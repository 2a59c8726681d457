"""The genotype codec's decoder, sampler and mutation against frozen copies
of the enum-based versions they replaced.

The references keep a genotype as a tuple of `Symbol` members, derive it
with a builder object that recurses into each branch body, and splice
lists in `mutate`. The code in `molga` keeps the symbols as bytes and
derives them with lookup tables and an explicit window stack. It must
derive the same atoms and bonds in the same order, draw the same genotypes
and children, and consume the RNG stream identically.
"""

from __future__ import annotations

import random

import pytest

from molga.codec import (
    ATOM_INFO,
    N_SYMBOLS,
    PHENYL_SYMBOLS,
    Genotype,
    Symbol,
    decode,
    random_genotype,
)
from molga.evolver import MUTATION_RETRIES, draw_mutation_kind, mutate
from molga.graph import VALENCE, MolecularGraph, canonical_length_bounds

# ---------------------------------------------------------------------------
# Reference copies
# ---------------------------------------------------------------------------

_SYMBOLS = tuple(Symbol)


class _ReferenceBuilder:
    def __init__(self):
        self.elements: list[str] = []
        self.bonds: dict[tuple[int, int], int] = {}
        self.free: list[int] = []

    def place(self, element: str) -> int:
        self.elements.append(element)
        self.free.append(VALENCE[element])
        return len(self.elements) - 1

    def bond(self, a: int, b: int, order: int) -> None:
        key = (a, b) if a < b else (b, a)
        self.bonds[key] = order
        self.free[a] -= order
        self.free[b] -= order

    def has_bond(self, a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        return key in self.bonds


def _reference_derive(b: _ReferenceBuilder, window: list, root: int | None) -> None:
    current = root
    i = 0
    n = len(window)
    while i < n:
        sym = window[i]
        if sym in ATOM_INFO:
            element, want = ATOM_INFO[sym]
            if current is None:
                current = b.place(element)
                i += 1
                continue
            if b.free[current] == 0:
                return
            order = min(want, b.free[current], VALENCE[element])
            new = b.place(element)
            b.bond(current, new, order)
            current = new
            i += 1
        elif sym in (Symbol.BRANCH1, Symbol.BRANCH2):
            nq = 1 if sym == Symbol.BRANCH1 else 2
            if i + nq >= n:
                return
            if nq == 1:
                length = int(window[i + 1]) + 1
            else:
                length = 16 * int(window[i + 1]) + int(window[i + 2]) + 1
            body = window[i + 1 + nq : i + 1 + nq + length]
            i = i + 1 + nq + len(body)
            if current is None or b.free[current] < 2 or not body:
                continue
            _reference_derive(b, body, current)
        else:
            nq = 1 if sym == Symbol.RING1 else 2
            if i + nq >= n:
                return
            if nq == 1:
                offset = int(window[i + 1]) + 2
            else:
                offset = 16 * int(window[i + 1]) + int(window[i + 2]) + 2
            i += 1 + nq
            if current is None:
                continue
            target = max(0, current - offset)
            if target == current:
                continue
            if b.has_bond(current, target):
                continue
            if b.free[current] == 0 or b.free[target] == 0:
                continue
            b.bond(current, target, 1)


def reference_structure(symbols) -> tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]:
    """The structure-cache key the enum-based decoder built."""
    b = _ReferenceBuilder()
    _reference_derive(b, [_SYMBOLS[s] for s in symbols], None)
    if b.elements:
        return tuple(b.elements), tuple((i, j, o) for (i, j), o in b.bonds.items())
    return ("C",), ()


_TOP5 = bytes(b >> 3 for b in range(256))
_REJECTED = bytes(range(128, 256))


def reference_random_genotype(rng: random.Random, max_len: int) -> tuple[Symbol, ...]:
    length = rng.randint(1, max_len)
    symbols = b""
    while len(symbols) < length:
        need = length - len(symbols)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        symbols += words[3::4].translate(_TOP5, _REJECTED)
    return tuple(map(_SYMBOLS.__getitem__, symbols))


def reference_mutate(symbols: tuple[Symbol, ...], rng: random.Random,
                     max_canonical_len: int, max_genotype_len: int) -> tuple[Symbol, ...]:
    """Returns `symbols` itself when every retry fails."""
    parent = symbols
    symbols = list(symbols)
    for _ in range(MUTATION_RETRIES):
        kind = draw_mutation_kind(rng)
        if kind == "phenyl":
            pos = rng.randint(0, len(symbols))
            cand = symbols[:pos] + [_SYMBOLS[s] for s in PHENYL_SYMBOLS] + symbols[pos:]
        elif kind == "insert":
            pos = rng.randint(0, len(symbols))
            sym = Symbol(rng.randrange(N_SYMBOLS))
            cand = symbols[:pos] + [sym] + symbols[pos:]
        else:
            pos = rng.randrange(len(symbols))
            sym = Symbol(rng.randrange(N_SYMBOLS))
            cand = list(symbols)
            cand[pos] = sym
        if len(cand) > max_genotype_len:
            continue
        graph = MolecularGraph(*reference_structure(cand))
        lo, hi = canonical_length_bounds(graph)
        if hi <= max_canonical_len or (
                lo <= max_canonical_len and len(graph.canonical()) <= max_canonical_len):
            return tuple(cand)
    return parent


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def structure(symbols) -> tuple:
    mol = decode(Genotype(bytes(symbols)))
    return mol.elements, mol.bond_list


S = Symbol
C, F, O, N = S.C, S.F, S.O, S.N


def _cases() -> dict[str, list[int]]:
    chain300 = [C] * 300
    return {
        # operands cut off by the end of the string, or of a branch body
        "branch1_at_end": [C, C, S.BRANCH1],
        "branch2_one_operand": [C, C, S.BRANCH2, C],
        "branch2_no_operand": [C, S.BRANCH2],
        "ring1_at_end": [C, C, C, S.RING1],
        "ring2_one_operand": [C, C, S.RING2, C],
        "body_past_end": [C, S.BRANCH1, S.F, C, C],
        "ring_cut_by_body_end": [C, S.BRANCH1, S.EQ_C, C, C, S.RING1, C, C, C],
        "branch_cut_by_body_end": [C, S.BRANCH1, S.EQ_C, C, S.BRANCH1, C, C, O],
        "nested_branches": [C, S.BRANCH1, S.P, C, S.BRANCH1, C, N, O, F, C, S.RING1, C],
        # two-symbol operands, up to 255
        "branch2_operand_16": [C, S.BRANCH2, S.EQ_C, C] + [C] * 20 + [O],
        "branch2_operand_255": [C, S.BRANCH2, S.RING2, S.RING2] + [C] * 256 + [O, N],
        "branch2_operand_255_cut": [C, S.BRANCH2, S.RING2, S.RING2] + [C] * 100 + [O],
        "ring2_operand_255": chain300 + [S.RING2, S.RING2, S.RING2, F],
        "ring2_operand_100": chain300 + [S.RING2, S.N, S.HASH_N, C],
        "ring2_operand_255_clamps": [C] * 100 + [S.RING2, S.RING2, S.RING2, F],
        # saturated attachment atoms
        "fluorine_pair": [F, F, C, C, C],
        "carbonyl": [C, S.EQ_O, S.EQ_O, S.S, S.S],
        "triple_then_triple": [C, S.HASH_C, S.HASH_C, S.HASH_N, C],
        "saturated_in_branch": [C, S.BRANCH1, S.EQ_C, F, F, C, N, O],
        "branch_on_low_valence": [C, F, S.BRANCH1, C, C, C],
        "ring_to_saturated_target": [F, C, C, S.RING1, C, C],
        "ring_from_saturated_atom": [C, C, S.HASH_C, S.RING1, C],
        "order_clamped": [F, S.EQ_C, S.HASH_C, S.EQ_O],
        # rings back to atom 0, from atom 0, and twice over one bond
        "ring_clamps_to_zero": [C, C, C, S.RING1, F],
        "ring_from_atom_zero": [C, S.RING1, C, C],
        "ring_onto_tree_bond": [C, C, S.RING1, C],
        "ring_twice": [C, C, C, C, S.RING1, C, S.RING1, C, S.RING1, C],
        "cyclopentane": [C, C, C, C, C, S.RING1, S.HASH_C],
        # no derivable atom: methane
        "all_control": [S.RING1, S.RING1],
        "branch_before_atom": [S.BRANCH1, C, C],
        "phenyl": list(PHENYL_SYMBOLS),
    }


class TestDerive:
    @pytest.mark.parametrize("name", sorted(_cases()))
    def test_hand_built(self, name):
        symbols = _cases()[name]
        assert structure(symbols) == reference_structure(symbols), name

    def test_random_genotypes(self):
        rng = random.Random(2024)
        for _ in range(20_000):
            symbols = bytes(rng.randrange(N_SYMBOLS) for _ in range(rng.randint(1, 100)))
            assert structure(symbols) == reference_structure(symbols), symbols

    def test_atom_rich_genotypes(self):
        # few control symbols: long chains, saturation and ring closures to
        # distant atoms, which uniform strings rarely reach
        rng = random.Random(77)
        controls = list(range(Symbol.BRANCH1, N_SYMBOLS))
        for _ in range(3_000):
            symbols = bytes(rng.choice(controls) if rng.random() < 0.08 else rng.randrange(12)
                            for _ in range(rng.randint(1, 300)))
            assert structure(symbols) == reference_structure(symbols), symbols

    def test_phenyl_splices(self):
        rng = random.Random(5)
        for _ in range(2_000):
            symbols = list(reference_random_genotype(rng, 40))
            for _ in range(rng.randint(1, 4)):
                pos = rng.randint(0, len(symbols))
                symbols[pos:pos] = PHENYL_SYMBOLS
            assert structure(symbols) == reference_structure(symbols), symbols


# ---------------------------------------------------------------------------
# Sampling and mutation
# ---------------------------------------------------------------------------


class TestRandomGenotype:
    def test_same_genotypes_and_stream(self):
        for seed in range(300):
            rng_new, rng_ref = random.Random(seed), random.Random(seed)
            for max_len in (1, 2, 17, 100):
                got = random_genotype(rng_new, max_len)
                assert got.symbols == bytes(reference_random_genotype(rng_ref, max_len))
                assert rng_new.getstate() == rng_ref.getstate(), (seed, max_len)


class TestMutate:
    def test_same_children_and_stream(self):
        for seed in range(150):
            parent = random_genotype(random.Random(seed), 99)
            ref_parent = tuple(_SYMBOLS[s] for s in parent.symbols)
            for cap, max_len in ((10, 100), (26, 100), (40, 100), (81, 100),
                                 (81, len(parent.symbols) + 1), (81, len(parent.symbols))):
                rng_new, rng_ref = random.Random(500 + seed), random.Random(500 + seed)
                child = mutate(parent, rng_new, cap, max_len)
                expected = reference_mutate(ref_parent, rng_ref, cap, max_len)
                assert child.symbols == bytes(expected), (seed, cap, max_len)
                assert (child is parent) == (expected is ref_parent), (seed, cap, max_len)
                assert rng_new.getstate() == rng_ref.getstate(), (seed, cap, max_len)
