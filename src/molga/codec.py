"""Robust string-grammar genotype codec.

A genotype is a sequence of 16 grammar symbols. decode() is total: every
symbol string derives a connected, valence-valid molecular graph, which is
what lets the GA mutate strings blindly. encode() inverts it for seeding
runs from existing molecules.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import MolgaError
from .graph import VALENCE, MolecularGraph


class UnencodableGraph(MolgaError):
    """Graph cannot be expressed as a genotype (foreign element, oversized
    ring offset or branch, or no conflict-free symbol layout)."""


class GenotypeSyntaxError(MolgaError):
    """Malformed genotype text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Symbol(enum.IntEnum):
    """The 16-symbol alphabet; index order is load-bearing (Branch/Ring
    operands are read as symbol indices)."""

    C = 0
    EQ_C = 1
    HASH_C = 2
    N = 3
    EQ_N = 4
    HASH_N = 5
    O = 6
    EQ_O = 7
    S = 8
    EQ_S = 9
    P = 10
    F = 11
    BRANCH1 = 12
    BRANCH2 = 13
    RING1 = 14
    RING2 = 15


SYMBOL_TEXT: tuple[str, ...] = (
    "[C]", "[=C]", "[#C]", "[N]", "[=N]", "[#N]", "[O]", "[=O]",
    "[S]", "[=S]", "[P]", "[F]", "[Branch1]", "[Branch2]", "[Ring1]", "[Ring2]",
)

_TEXT_TO_SYMBOL = {t: Symbol(i) for i, t in enumerate(SYMBOL_TEXT)}

# atom symbols carry (element, requested bond order)
ATOM_INFO: dict[Symbol, tuple[str, int]] = {
    Symbol.C: ("C", 1), Symbol.EQ_C: ("C", 2), Symbol.HASH_C: ("C", 3),
    Symbol.N: ("N", 1), Symbol.EQ_N: ("N", 2), Symbol.HASH_N: ("N", 3),
    Symbol.O: ("O", 1), Symbol.EQ_O: ("O", 2),
    Symbol.S: ("S", 1), Symbol.EQ_S: ("S", 2),
    Symbol.P: ("P", 1), Symbol.F: ("F", 1),
}

N_SYMBOLS = 16
_SYMBOLS: tuple[Symbol, ...] = tuple(Symbol)

# spliced by the phenyl mutation; decodes on its own to a Kekulé 6-ring
PHENYL_SYMBOLS: tuple[Symbol, ...] = (
    Symbol.C, Symbol.EQ_C, Symbol.C, Symbol.EQ_C, Symbol.C, Symbol.EQ_C,
    Symbol.RING1, Symbol.N,
)


@dataclass(frozen=True)
class Genotype:
    """Non-empty symbol sequence; the GA's unit of mutation."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("genotype must contain at least one symbol")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def text(self) -> str:
        return "".join(SYMBOL_TEXT[s] for s in self.symbols)

    def __str__(self) -> str:
        return self.text()

    @cached_property
    def graph(self) -> MolecularGraph:
        # a pure function of the symbols, kept on the instance (not a field,
        # so equality and hashing ignore it): a child that mutation has
        # decoded is not derived again when it is evaluated
        return _derive_graph(self.symbols)


_TOKEN_RE = re.compile(r"\[[^\[\]]*\]")


def parse_genotype(text: str) -> Genotype:
    """Parse concatenated bracketed symbols; unknown tokens and stray text
    are rejected with their byte offset."""
    symbols: list[Symbol] = []
    pos = 0
    while pos < len(text):
        if text[pos] != "[":
            raise GenotypeSyntaxError(f"expected '[', found {text[pos]!r}", pos)
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise GenotypeSyntaxError("unterminated symbol", pos)
        token = m.group(0)
        sym = _TEXT_TO_SYMBOL.get(token)
        if sym is None:
            raise GenotypeSyntaxError(f"unknown symbol {token}", pos)
        symbols.append(sym)
        pos = m.end()
    if not symbols:
        raise GenotypeSyntaxError("empty genotype", 0)
    return Genotype(tuple(symbols))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _Builder:
    __slots__ = ("elements", "bonds", "free")

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


def decode(g: Genotype) -> MolecularGraph:
    """Derive the molecular graph; total by construction.

    Left-to-right scan keeping a current attachment atom. Atom symbols bond
    to it with order clamped by both remaining valences; a saturated
    attachment atom terminates the (sub-)derivation. Branch symbols derive a
    fixed-length window rooted at the current atom; Ring symbols bond the
    current atom back to an earlier placement. Control symbols that cannot
    apply are skipped, and a string with no derivable atom falls back to
    methane.

    Pure function, memoized twice: a genotype object keeps its graph, and
    genotypes that derive the same atoms and bonds in the same order share
    one graph (and its memoized canonical form) while the structure cache
    holds it.
    """
    return g.graph


# The structure cache: (elements, bond tuple) -> the graph with exactly that
# labelling, oldest use first. A hit moves its entry to the end; a miss on a
# full cache drops the first. An entry keeps a graph alive with everything
# memoized on it: 1.1 KB on the benchmark's random_scan, 2.3 KB on ga_b10 and
# 6.4 KB on constrained_batch (tracemalloc, seed 7; structure tuples are
# shared between graphs, see graph._shared), so at most about 10 MB.
# The size trades memory for repeat work: at 1,024 / 1,536 / 2,048 entries
# and seed 7, random_scan builds 7,747 / 7,376 / 7,172 graphs and
# constrained_batch peaks at 46 / 49 / 52 MB resident.
_GRAPH_CACHE_SIZE = 1536
_graphs: dict[tuple, MolecularGraph] = {}


def _derive_graph(symbols: tuple[Symbol, ...]) -> MolecularGraph:
    b = _Builder()
    _derive(b, list(symbols), None)
    if b.elements:
        key = (tuple(b.elements), tuple((i, j, o) for (i, j), o in b.bonds.items()))
    else:
        key = (("C",), ())  # methane
    g = _graphs.pop(key, None)
    if g is None:
        g = MolecularGraph(*key)
        if len(_graphs) >= _GRAPH_CACHE_SIZE:
            del _graphs[next(iter(_graphs))]
    # keyed on the graph's own tuples, so none are held twice
    _graphs[g.elements, g.bond_list] = g
    return g


def _derive(b: _Builder, window: list[Symbol], root: int | None) -> None:
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
                return  # saturated: terminate this derivation
            order = min(want, b.free[current], VALENCE[element])
            new = b.place(element)
            b.bond(current, new, order)
            current = new
            i += 1
        elif sym in (Symbol.BRANCH1, Symbol.BRANCH2):
            nq = 1 if sym == Symbol.BRANCH1 else 2
            if i + nq >= n:
                return  # control at end of string with missing operand(s)
            if nq == 1:
                length = int(window[i + 1]) + 1
            else:
                length = 16 * int(window[i + 1]) + int(window[i + 2]) + 1
            body = window[i + 1 + nq : i + 1 + nq + length]
            i = i + 1 + nq + len(body)
            if current is None or b.free[current] < 2 or not body:
                continue
            _derive(b, body, current)
        else:  # RING1 / RING2
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
            # placement order equals atom index by construction
            target = max(0, current - offset)
            if target == current:
                continue
            if b.has_bond(current, target):
                continue
            if b.free[current] == 0 or b.free[target] == 0:
                continue
            b.bond(current, target, 1)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

MAX_RING_OFFSET = 257
MAX_BRANCH_LEN = 256


def encode(g: MolecularGraph) -> Genotype:
    """Inverse of decode: a spanning-tree traversal emitted as symbols.

    All bonds of order >= 2 must be tree edges (the decoder's ring closures
    are always single), so they are forced into the spanning tree first;
    remaining single bonds become ring-closure symbols. Sibling-subtree
    orderings are searched when a closure would need the impossible offset 1.
    Raises UnencodableGraph for foreign elements, high-order bond cycles,
    oversized offsets/branches, or when no layout works.
    """
    for el in g.elements:
        if el not in VALENCE:
            raise UnencodableGraph(f"element {el!r} not in the symbol alphabet")
    last_error = "no conflict-free traversal found"
    for tree, closures in _spanning_tree_variants(g):
        for root in _root_candidates(g):
            try:
                order = _layout(g, tree, closures, root)
                symbols = _emit(g, root, order, closures)
            except _LayoutConflict as exc:
                last_error = str(exc)
                continue
            genotype = Genotype(tuple(symbols))
            # paranoia: the decoder is the ground truth for what we emitted
            if decode(genotype).canonical() == g.canonical():
                return genotype
            last_error = "emitted genotype decodes to a different graph"
    raise UnencodableGraph(last_error)


class _LayoutConflict(Exception):
    pass


def _spanning_tree(g: MolecularGraph, single_order: list[tuple[int, int]]):
    """Union-find spanning tree seeded with all high-order bonds; remaining
    single bonds join in the given order, leftovers become ring closures."""
    parent = list(range(g.n_atoms))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: set[tuple[int, int]] = set()
    high = [(a, b) for (a, b), o in sorted(g.bonds.items()) if o >= 2]
    for a, b in high:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise UnencodableGraph(
                "cycle of double/triple bonds cannot be encoded (ring closures are single)")
        parent[ra] = rb
        tree.add((a, b))
    closures: list[tuple[int, int]] = []
    for a, b in single_order:
        ra, rb = find(a), find(b)
        if ra == rb:
            closures.append((a, b))
        else:
            parent[ra] = rb
            tree.add((a, b))
    return tree, closures


def _spanning_tree_variants(g: MolecularGraph):
    """Deterministic sequence of tree candidates.

    A phosphorus atom on a double bond must be walked parent-first (there is
    no raised-order P symbol), which requires one of its single bonds in the
    tree; those edges get priority. Further variants permute the edge order
    in case the first tree admits no conflict-free layout.
    """
    single = [(a, b) for (a, b), o in sorted(g.bonds.items()) if o == 1]
    constrained = {
        i for i in range(g.n_atoms)
        if g.elements[i] == "P" and any(o >= 2 for _, o in g.neighbors(i))
    }
    priority = [e for e in single if e[0] in constrained or e[1] in constrained]
    rest = [e for e in single if e not in priority]
    orders = [priority + rest]
    orders.append(priority + rest[::-1])
    orders.append(priority[::-1] + rest)
    n = len(rest)
    for k in (1, 2, 3, 5, 7):
        if 0 < k < n:
            orders.append(priority + rest[k:] + rest[:k])
    seen: set[tuple] = set()
    for order in orders:
        key = tuple(order)
        if key in seen:
            continue
        seen.add(key)
        try:
            yield _spanning_tree(g, order)
        except UnencodableGraph:
            raise  # high-order cycle: no tree can fix it


def _root_candidates(g: MolecularGraph):
    yield 0
    for i in range(1, g.n_atoms):
        yield i


def _layout(g: MolecularGraph, tree: set[tuple[int, int]],
            closures: list[tuple[int, int]], root: int) -> dict[int, list[int]]:
    """Choose per-atom child orders such that every closure's placement
    offset lands in [2, MAX_RING_OFFSET]."""
    adj: dict[int, list[int]] = {i: [] for i in range(g.n_atoms)}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)

    children: dict[int, list[int]] = {}
    sizes: dict[int, int] = {}

    def build(u: int, par: int) -> int:
        kids = [v for v in sorted(adj[u]) if v != par]
        children[u] = kids
        total = 1
        for c in kids:
            total += build(c, u)
        sizes[u] = total
        # smallest subtrees first: the biggest child rides the main chain,
        # keeping branch windows short
        kids.sort(key=lambda c: (sizes[c], c))
        return total

    build(root, -1)

    def placements() -> dict[int, int]:
        pos: dict[int, int] = {}
        stack = [root]
        while stack:
            u = stack.pop()
            pos[u] = len(pos)
            stack.extend(reversed(children[u]))
        return pos

    def conflicts(pos: dict[int, int]) -> list[tuple[int, int]]:
        bad = []
        for a, b in closures:
            off = abs(pos[a] - pos[b])
            if off < 2 or off > MAX_RING_OFFSET:
                bad.append((a, b))
        return bad

    pos = placements()
    bad = conflicts(pos)
    if not bad:
        return children
    # local repair: permute child orders at ancestors of the conflicting
    # closure endpoints (bounded search)
    parents: dict[int, int] = {root: -1}
    stack = [root]
    while stack:
        u = stack.pop()
        for c in children[u]:
            parents[c] = u
            stack.append(c)
    attempts = 0
    suspects: list[int] = []
    for a, b in bad:
        for x in (a, b):
            while x != -1 and x not in suspects:
                suspects.append(x)
                x = parents[x]
    for node in suspects:
        kids = children[node]
        if len(kids) < 2 or len(kids) > 5:
            continue
        original = list(kids)
        for perm in itertools.permutations(original):
            attempts += 1
            if attempts > 200:
                raise _LayoutConflict("child-order search budget exhausted")
            children[node] = list(perm)
            pos = placements()
            if not conflicts(pos):
                return children
        children[node] = original
    raise _LayoutConflict(
        f"ring closure offset outside [2, {MAX_RING_OFFSET}] for every ordering tried")


_ATOM_SYMBOL: dict[tuple[str, int], Symbol] = {v: k for k, v in ATOM_INFO.items()}


def _emit(g: MolecularGraph, root: int, children: dict[int, list[int]],
          closures: list[tuple[int, int]]) -> list[Symbol]:
    pos: dict[int, int] = {}
    stack = [root]
    while stack:
        u = stack.pop()
        pos[u] = len(pos)
        stack.extend(reversed(children[u]))
    # each closure is emitted at its later-placed endpoint
    closing_at: dict[int, list[int]] = {}
    for a, b in closures:
        late, early = (a, b) if pos[a] > pos[b] else (b, a)
        closing_at.setdefault(late, []).append(early)
    for lst in closing_at.values():
        lst.sort(key=lambda e: -e)  # larger offsets last; any fixed order works

    def index_symbols(value: int, width: int) -> list[Symbol]:
        if width == 1:
            return [Symbol(value)]
        return [Symbol(value // 16), Symbol(value % 16)]

    def subtree(u: int, bond_from_parent: int | None) -> list[Symbol]:
        out: list[Symbol] = []
        el = g.elements[u]
        order = bond_from_parent if bond_from_parent is not None else 1
        sym = _ATOM_SYMBOL.get((el, order))
        if sym is None:
            # no [=P]-style symbol: the high-order bond must point the other
            # way, which a different root can arrange
            raise _LayoutConflict(f"no symbol for {el} entered with bond order {order}")
        out.append(sym)
        for early in closing_at.get(u, []):
            offset = pos[u] - pos[early]
            if offset <= 17:
                out.append(Symbol.RING1)
                out.extend(index_symbols(offset - 2, 1))
            else:
                out.append(Symbol.RING2)
                out.extend(index_symbols(offset - 2, 2))
        kids = children[u]
        for k, c in enumerate(kids):
            bond = g.bonds[(u, c) if u < c else (c, u)]
            body = subtree(c, bond)
            if k < len(kids) - 1:
                if len(body) > MAX_BRANCH_LEN:
                    raise _LayoutConflict(
                        f"branch of {len(body)} symbols exceeds {MAX_BRANCH_LEN}")
                if len(body) <= 16:
                    out.append(Symbol.BRANCH1)
                    out.extend(index_symbols(len(body) - 1, 1))
                else:
                    out.append(Symbol.BRANCH2)
                    out.extend(index_symbols(len(body) - 1, 2))
                out.extend(body)
            else:
                out.extend(body)
        return out

    return subtree(root, None)


# ---------------------------------------------------------------------------


# A random symbol is the top five bits of one 32-bit Mersenne Twister output
# whose top bit is 0: the byte table keeps bits 31..27 of a word's high byte
# and the delete set drops the high bytes of rejected outputs.
_TOP5 = bytes(b >> 3 for b in range(256))
_REJECTED = bytes(range(128, 256))


def random_genotype(rng, max_len: int) -> Genotype:
    """Uniform i.i.d. symbols, length uniform in [1, max_len].

    Consumes `rng`'s stream exactly as drawing each symbol with
    `rng.randrange(16)` does, so genotypes and every later draw are the
    same. That call takes `getrandbits(5)`, the top five bits of one 32-bit
    output, until the value is below 16, i.e. until an output's top bit is
    0. Here `getrandbits(32 * k)` takes k outputs at once, the first in the
    lowest 32 bits. A batch asks for no more outputs than symbols still
    missing, so it never draws past the output that completes the genotype.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    length = rng.randint(1, max_len)
    symbols = b""
    while len(symbols) < length:
        need = length - len(symbols)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        symbols += words[3::4].translate(_TOP5, _REJECTED)
    return Genotype(tuple(map(_SYMBOLS.__getitem__, symbols)))
