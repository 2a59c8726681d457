"""Circular fingerprints and Tanimoto similarity against frozen copies of
the set-based versions they replaced.

The references keep the on bits as a `frozenset` of indices, take the
Tanimoto similarity from set intersection and union, and fill the 0/1 array
by fancy indexing. The code in `molga` keeps the bits as one int; it must
give the same on bits, bit-equal similarities and, through
`analysis.bit_matrix`, equal arrays.
"""

from __future__ import annotations

import random
from itertools import chain

import numpy as np
import pytest

from molga.analysis import bit_matrix
from molga.codec import decode, random_genotype
from molga.graph import (
    _ELEMENT_CODE,
    VALENCE,
    MolecularGraph,
    _atom_invariants,
    _hash_ints,
    tanimoto,
)

from test_graph import ring_rich_genotype

# ---------------------------------------------------------------------------
# Reference copies
# ---------------------------------------------------------------------------


def reference_fingerprint(g: MolecularGraph, radius: int, nbits: int) -> frozenset[int]:
    ring: set[int] = set()
    for cyc in g.ring_basis():
        ring.update(cyc)
    inv = [
        _hash_ints((_ELEMENT_CODE[el], deg, max(VALENCE[el] - osum, 0), 1 if i in ring else 0))
        for i, (el, deg, osum) in enumerate(_atom_invariants(g))
    ]
    bits: set[int] = {h % nbits for h in inv}
    for _ in range(radius):
        inv = [_hash_ints((inv[i], *chain.from_iterable(
                   sorted((o, inv[v]) for v, o in g.neighbors(i)))))
               for i in range(g.n_atoms)]
        bits.update(h % nbits for h in inv)
    return frozenset(bits)


def reference_tanimoto(a: frozenset[int], b: frozenset[int]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def reference_to_array(bits: frozenset[int], nbits: int) -> np.ndarray:
    arr = np.zeros(nbits, dtype=np.float64)
    if bits:
        arr[sorted(bits)] = 1.0
    return arr


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

# molga's one setting; the references take it as arguments
SETTINGS = [(2, 1024)]


def on_bits(fp: int) -> list[int]:
    return [k for k in range(fp.bit_length()) if fp >> k & 1]


def assert_same_as_reference(mols: list[MolecularGraph], radius: int, nbits: int) -> None:
    # fresh graphs, so nothing is read from a memo filled elsewhere
    fresh = [MolecularGraph(m.elements, m.bond_list) for m in mols]
    new = [g.fingerprint() for g in fresh]
    old = [reference_fingerprint(g, radius, nbits) for g in fresh]
    for fp, ref in zip(new, old):
        assert on_bits(fp) == sorted(ref)
    # all rows at once, so row order and reshaping are checked too
    mat = bit_matrix(new)
    assert mat.dtype == np.float64 and mat.shape == (len(new), nbits)
    for row, ref in zip(mat, old):
        assert np.array_equal(row, reference_to_array(ref, nbits))
    # each molecule against the next, and against the first as a start
    # molecule of the constrained task
    for i in range(len(new)):
        for j in (0, (i + 1) % len(new)):
            assert tanimoto(new[i], new[j]) == reference_tanimoto(old[i], old[j])


@pytest.mark.parametrize("radius, nbits", SETTINGS)
def test_bundled_reference(bundled_reference, radius, nbits):
    assert_same_as_reference(bundled_reference.graphs, radius, nbits)


@pytest.fixture(scope="module")
def random_decodes() -> list[MolecularGraph]:
    rng = random.Random(29)
    genotypes = [random_genotype(rng, 40) for _ in range(3000)]
    genotypes += [ring_rich_genotype(rng) for _ in range(2000)]
    mols = [decode(gt) for gt in genotypes]
    assert sum(len(m.ring_basis()) > 1 for m in mols) > 500
    return mols


@pytest.mark.parametrize("radius, nbits", SETTINGS)
def test_random_decodes(random_decodes, radius, nbits):
    assert_same_as_reference(random_decodes, radius, nbits)


def test_empty_fingerprints():
    empty, one = 0, 1 << 1023
    assert tanimoto(empty, empty) == reference_tanimoto(frozenset(), frozenset()) == 1.0
    assert tanimoto(empty, one) == reference_tanimoto(frozenset(), frozenset({1023})) == 0.0
    empty_row, one_row = bit_matrix([empty, one])
    assert np.array_equal(empty_row, reference_to_array(frozenset(), 1024))
    assert np.array_equal(one_row, reference_to_array(frozenset({1023}), 1024))
