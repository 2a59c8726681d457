"""Robust string-grammar genotype codec.

A genotype is a string of grammar symbols, one byte per symbol index 0-15.
decode() is total: every symbol string derives a connected, valence-valid
molecular graph, which is what lets the GA mutate strings blindly. encode()
inverts it for seeding runs from existing molecules.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass

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
    """Names of the 16 symbol indices; index order is load-bearing
    (Branch/Ring operands are read as symbol indices)."""

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

_TEXT_TO_SYMBOL = {t: i for i, t in enumerate(SYMBOL_TEXT)}

# atom symbols carry (element, requested bond order)
ATOM_INFO: dict[Symbol, tuple[str, int]] = {
    Symbol.C: ("C", 1), Symbol.EQ_C: ("C", 2), Symbol.HASH_C: ("C", 3),
    Symbol.N: ("N", 1), Symbol.EQ_N: ("N", 2), Symbol.HASH_N: ("N", 3),
    Symbol.O: ("O", 1), Symbol.EQ_O: ("O", 2),
    Symbol.S: ("S", 1), Symbol.EQ_S: ("S", 2),
    Symbol.P: ("P", 1), Symbol.F: ("F", 1),
}

N_SYMBOLS = 16

# spliced by the phenyl mutation; decodes on its own to a Kekulé 6-ring
PHENYL_SYMBOLS = bytes((
    Symbol.C, Symbol.EQ_C, Symbol.C, Symbol.EQ_C, Symbol.C, Symbol.EQ_C,
    Symbol.RING1, Symbol.N,
))


@dataclass(frozen=True)
class Genotype:
    """Non-empty symbol string, one byte per symbol index; the GA's unit of
    mutation. Any other sequence of ints is converted to bytes."""

    symbols: bytes

    def __post_init__(self):
        symbols = self.symbols
        if type(symbols) is not bytes:
            if isinstance(symbols, int):
                raise TypeError("genotype symbols must be a sequence of ints")
            symbols = bytes(symbols)  # ValueError outside 0..255
            object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValueError("genotype must contain at least one symbol")
        if max(symbols) >= N_SYMBOLS:
            raise ValueError(f"symbol index {max(symbols)} outside 0..{N_SYMBOLS - 1}")

    def text(self) -> str:
        return "".join(SYMBOL_TEXT[s] for s in self.symbols)


_TOKEN_RE = re.compile(r"\[[^\[\]]*\]")


def parse_genotype(text: str) -> Genotype:
    """Parse concatenated bracketed symbols; unknown tokens and stray text
    are rejected with their byte offset."""
    symbols: list[int] = []
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
    return Genotype(bytes(symbols))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


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
    # kept in the genotype's instance dict (not a field, so equality and
    # hashing ignore it): a child that mutation has decoded is not derived
    # again when it is evaluated. Not a functools.cached_property, which
    # takes a lock on every first read on Python 3.11.
    d = g.__dict__
    graph = d.get("_graph")
    if graph is None:
        graph = d["_graph"] = _derive_graph(g.symbols)
    return graph


# The structure cache: (elements, bond tuple) -> the graph with exactly that
# labelling, oldest use first. A hit moves its entry to the end; a miss on a
# full cache drops the first. An entry keeps a graph alive with everything
# memoized on it: 0.8 KB on the benchmark's random_scan, 1.4 KB on ga_b10 and
# 1.5 KB on constrained_batch (tracemalloc, seed 7; structure tuples are
# shared between graphs, see graph._shared), so about 2.2 MB when full.
# The size trades memory for repeat work: at 1,024 / 1,536 / 2,048 entries
# and seed 7, random_scan builds 7,747 / 7,376 / 7,172 graphs and
# constrained_batch peaks at 21.8 / 22.4 / 23.0 MB resident.
_GRAPH_CACHE_SIZE = 1536
_graphs: dict[tuple, MolecularGraph] = {}


def _derive_graph(symbols: bytes) -> MolecularGraph:
    elements, bonds = _derive(symbols)
    if elements:
        key = (tuple(elements), tuple(bonds.values()))
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


# Decode tables indexed by atom symbol: element, requested bond order (never
# above the element's valence) and valence cap. Indices from Symbol.BRANCH1
# up are control symbols.
_ELEMENT = [ATOM_INFO[s][0] for s in range(Symbol.BRANCH1)]
_ORDER = [min(ATOM_INFO[s][1], VALENCE[ATOM_INFO[s][0]]) for s in range(Symbol.BRANCH1)]
_CAP = [VALENCE[el] for el in _ELEMENT]


def _derive(symbols: bytes) -> tuple[list[str], dict[tuple[int, int], tuple[int, int, int]]]:
    """Atoms in placement order, and bonds {(i, j): (i, j, order)}, i < j,
    in the order they were made.

    A window is the whole string or a branch body, derived from the atom
    the branch hangs on; `stack` holds the resume position, window end and
    attachment atom of each enclosing window. Ending a window early
    (saturation, a control symbol missing operands) resumes the enclosing
    one after the branch.
    """
    elements: list[str] = []
    free: list[int] = []  # remaining valence per atom
    bonds: dict[tuple[int, int], tuple[int, int, int]] = {}
    stack: list[tuple[int, int, int]] = []
    current = None
    i, n = 0, len(symbols)
    while True:
        while i < n:
            s = symbols[i]
            if s < 12:  # an atom symbol: below Symbol.BRANCH1
                if current is None:
                    current = 0
                    elements.append(_ELEMENT[s])
                    free.append(_CAP[s])
                    i += 1
                    continue
                room = free[current]
                if room == 0:
                    break  # saturated: terminate this window
                order = _ORDER[s]
                if order > room:
                    order = room
                new = len(elements)
                elements.append(_ELEMENT[s])
                free.append(_CAP[s] - order)
                free[current] = room - order
                bonds[current, new] = (current, new, order)
                current = new
                i += 1
            elif s < 14:  # BRANCH1 / BRANCH2: a window of operand + 1 symbols
                if s == 12:  # BRANCH1
                    if i + 1 >= n:
                        break  # control at end of window with missing operand(s)
                    start = i + 2
                    end = start + symbols[i + 1] + 1
                else:
                    if i + 2 >= n:
                        break
                    start = i + 3
                    end = start + 16 * symbols[i + 1] + symbols[i + 2] + 1
                if end > n:
                    end = n
                if current is None or free[current] < 2 or start == end:
                    i = end
                    continue
                stack.append((end, n, current))
                i, n = start, end
            else:  # RING1 / RING2: bond back to atom current - (operand + 2)
                if s == 14:  # RING1
                    if i + 1 >= n:
                        break
                    offset = symbols[i + 1] + 2
                    i += 2
                else:
                    if i + 2 >= n:
                        break
                    offset = 16 * symbols[i + 1] + symbols[i + 2] + 2
                    i += 3
                # placement order equals atom index by construction; a
                # closure from atom 0 clamps to itself and is skipped
                if not current:
                    continue
                target = current - offset if offset < current else 0
                if ((target, current) in bonds
                        or free[current] == 0 or free[target] == 0):
                    continue
                bonds[target, current] = (target, current, 1)
                free[current] -= 1
                free[target] -= 1
        if not stack:
            return elements, bonds
        i, n, current = stack.pop()


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
        for root in range(g.n_atoms):
            try:
                children, pos = _layout(g, tree, closures, root)
                symbols = _emit(g, root, children, pos, closures)
            except _LayoutConflict as exc:
                last_error = str(exc)
                continue
            genotype = Genotype(bytes(symbols))
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
    high = [(a, b) for a, b, o in sorted(g.bond_list) if o >= 2]
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
    single = [(a, b) for a, b, o in sorted(g.bond_list) if o == 1]
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
        yield _spanning_tree(g, order)  # a high-order cycle raises: no tree can fix it


def _layout(g: MolecularGraph, tree: set[tuple[int, int]],
            closures: list[tuple[int, int]],
            root: int) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Choose per-atom child orders such that every closure's placement
    offset lands in [2, MAX_RING_OFFSET]; returns the child orders and
    each atom's placement."""
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
        return children, pos
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
                return children, pos
        children[node] = original
    raise _LayoutConflict(
        f"ring closure offset outside [2, {MAX_RING_OFFSET}] for every ordering tried")


_ATOM_SYMBOL: dict[tuple[str, int], int] = {v: k for k, v in ATOM_INFO.items()}


def _emit(g: MolecularGraph, root: int, children: dict[int, list[int]],
          pos: dict[int, int], closures: list[tuple[int, int]]) -> list[int]:
    # each closure is emitted at its later-placed endpoint
    closing_at: dict[int, list[int]] = {}
    for a, b in closures:
        late, early = (a, b) if pos[a] > pos[b] else (b, a)
        closing_at.setdefault(late, []).append(early)
    for lst in closing_at.values():
        lst.sort(key=lambda e: -e)  # larger offsets last; any fixed order works

    def index_symbols(value: int, width: int) -> list[int]:
        if width == 1:
            return [value]
        return [value // 16, value % 16]

    def subtree(u: int, bond_from_parent: int | None) -> list[int]:
        out: list[int] = []
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
            body = subtree(c, g.bond_order(u, c))
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
    length = need = rng.randint(1, max_len)
    symbols = b""
    while need:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        symbols += words[3::4].translate(_TOP5, _REJECTED)
        need = length - len(symbols)
    return Genotype(symbols)
