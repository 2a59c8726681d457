"""Molecular graph kernel.

Heavy-atom graphs with integer bond orders, plus the operations the rest of
the engine is built on: validity checking, minimum cycle basis, canonical
serialization, a restricted SMILES reader, circular fingerprints and
Tanimoto similarity.

Hydrogens are implicit everywhere: an atom's implicit-H count is its valence
cap minus the sum of its bond orders.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Any, Callable, Hashable, Iterable, Sequence

from .errors import MolgaError, OffsetError

# Maximum bond-order sum per element. S is capped at 2 (thioether-like), not
# hypervalent 6; P at 3. Immutable at runtime.
VALENCE: dict[str, int] = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1}

ELEMENTS: tuple[str, ...] = ("C", "N", "O", "S", "P", "F")


# Shared structure tuples (hash-consing: Filliatre & Conchon 2006). Every
# bond triple (a, b, order), adjacency pair (neighbor, order) and per-atom
# adjacency row a graph is built from is looked up here first, so equal
# tuples are one object across all graphs: thousands of graphs live at once
# (a population, the archive, the reference, the structure cache), and most
# of their atoms look alike. The tuples are immutable and equal, so a graph
# gives the same values either way. The table is cleared when a graph leaves
# it above _SHARED_SIZE entries; graphs keep their tuples, and later graphs
# start sharing anew. Full, its dict takes 1.3 MB and each tuple at most 72
# bytes (a row of four pairs), so about 4 MB in all. At seed 7 the
# benchmark's ga_b10, constrained_batch and random_scan end with 2,420 /
# 3,018 / 2,503 entries (about 0.3 MB), and ga_b10's config run for 60
# generations with 4,669.
_SHARED_SIZE = 1 << 15
_shared: dict[tuple, tuple] = {}


class UnsupportedFeature(OffsetError):
    """SMILES feature outside the supported subset (charges, stereo, ...)."""


class SmilesSyntaxError(OffsetError):
    """Malformed SMILES input."""


class KekulizationFailure(MolgaError):
    """No alternating single/double assignment exists for an aromatic system."""


class ValenceViolation(MolgaError):
    """Parsed molecule exceeds a valence cap."""


class MolecularGraph:
    """Immutable heavy-atom graph.

    Atom indices are dense 0..n-1 in placement order. Bonds are undirected
    with order in {1, 2, 3}, each stored once: as a triple (a, b, order),
    a < b, in `bond_list` and as a (neighbor, order) pair in both atoms'
    adjacency rows. A graph is one connected molecule. The constructor
    accepts over-valent atoms so that validate() can report them; a second
    component, self-loops, repeated bonds and out-of-range indices are
    rejected outright. The bond and adjacency tuples come from the
    process-wide `_shared` table, so equal ones are one object.
    """

    __slots__ = ("elements", "bond_list", "_adj", "_cache")

    def __init__(self, elements: Sequence[str], bonds: Iterable[tuple[int, int, int]]):
        self.elements: tuple[str, ...] = tuple(elements)
        n = len(self.elements)
        if n == 0:
            raise ValueError("graph needs at least one atom")
        for el in self.elements:
            if el not in VALENCE:
                raise ValueError(f"unknown element {el!r}")
        share = _shared.setdefault
        norm = []
        seen: set[int] = set()
        for i, j, order in bonds:
            if not (type(i) is type(j) is type(order) is int):
                # a shared tuple goes to later graphs: an equal bool or numpy int must not
                raise TypeError(f"bond ({i!r},{j!r},{order!r}) needs int atoms and order")
            if i == j:
                raise ValueError(f"self-loop on atom {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bond ({i},{j}) out of range")
            if order not in (1, 2, 3):
                raise ValueError(f"bond order {order} not in 1..3")
            if i > j:
                i, j = j, i
            key = i * n + j
            if key in seen:
                raise ValueError(f"repeated bond ({i},{j})")
            seen.add(key)
            t = (i, j, order)
            norm.append(share(t, t))
        self.bond_list: tuple[tuple[int, int, int], ...] = tuple(norm)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a, b, o in norm:
            pair = (b, o)
            adj[a].append(share(pair, pair))
            pair = (a, o)
            adj[b].append(share(pair, pair))
        rows = []
        for lst in adj:
            lst.sort()
            row = tuple(lst)
            rows.append(share(row, row))
        self._adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(rows)
        self._cache: dict = {}
        if len(_shared) > _SHARED_SIZE:
            _shared.clear()
        if not _proven_connected(self):  # search from atom 0
            seen = {0}
            stack = [0]
            while stack:
                for v, _ in self._adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) < n:
                raise ValueError(f"disconnected atoms: {sorted(set(range(n)) - seen)}")

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        """(neighbor index, bond order) pairs, sorted by neighbor index."""
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def bond_order(self, i: int, j: int) -> int | None:
        """The order of the bond between atoms i and j, None if unbonded."""
        for v, o in self._adj[i]:  # four pairs at most in a valid graph
            if v == j:
                return o
        return None

    def __repr__(self) -> str:
        return f"MolecularGraph({len(self.elements)} atoms, {len(self.bond_list)} bonds)"

    # Derived data is memoized on the instance; graphs are never mutated.
    def memo(self, key: Hashable, compute: Callable[["MolecularGraph"], Any]) -> Any:
        """`compute(self)`, computed once per graph."""
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    def ring_basis(self) -> tuple[tuple[int, ...], ...]:
        return self.memo("rings", _minimum_cycle_basis)

    def ring_atoms(self) -> frozenset[int]:
        # Not memoized: its readers, the canonical string and the
        # fingerprint, are, so it runs at most twice per graph.
        return frozenset(chain.from_iterable(self.ring_basis()))

    def canonical(self) -> str:
        return self.memo("canonical", _canonical_string)

    def fingerprint(self) -> int:
        return self.memo("fingerprint", _fingerprint)


def validate(g: MolecularGraph) -> list[str]:
    """Return a list of violations; empty means the graph is valid.

    Checks every atom's bond-order sum against its valence cap. A second
    component or a repeated bond never gets this far: the constructor
    rejects both.
    """
    problems: list[str] = []
    for i, (el, _, total) in enumerate(_atom_invariants(g)):
        if total > VALENCE[el]:
            problems.append(f"atom {i} ({el}) bond-order sum {total} exceeds cap {VALENCE[el]}")
    return problems


def _atom_invariants(g: MolecularGraph) -> list[tuple[str, int, int]]:
    """(element, degree, bond-order sum) of every atom. Not memoized: it is
    cheap next to each caller, and a cached copy per graph would cost
    about 90 bytes an atom."""
    order_sum = [0] * len(g.elements)
    for a, b, o in g.bond_list:
        order_sum[a] += o
        order_sum[b] += o
    return [(el, len(nbrs), s) for el, nbrs, s in zip(g.elements, g._adj, order_sum)]


def _proven_connected(g: MolecularGraph) -> bool:
    """True when every atom after the first has a lower-indexed neighbor,
    which proves the graph connected. Every decoded or parsed graph passes
    (each atom is placed bonded to an earlier one); a relabelled connected
    graph may not, and the constructor then searches from atom 0."""
    adj = g._adj
    return all(adj[i] and adj[i][0][0] < i for i in range(1, len(adj)))


# ---------------------------------------------------------------------------
# Minimum cycle basis (Horton-style): candidate cycles are the shortest cycle
# through each edge plus the spanning-tree fundamental cycles, greedily
# selected for GF(2) independence in order of increasing length.
# ---------------------------------------------------------------------------


def _edge_index_map(g: MolecularGraph) -> dict[tuple[int, int], int]:
    return {(a, b): i for i, (a, b, _) in enumerate(sorted(g.bond_list))}


def _cycle_mask(cycle: Sequence[int], eidx: dict[tuple[int, int], int]) -> int:
    mask = 0
    k = len(cycle)
    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        e = (a, b) if a < b else (b, a)
        mask |= 1 << eidx[e]
    return mask


def _canonical_cycle(atoms: list[int]) -> tuple[int, ...]:
    """Rotate/reflect a cycle's atom list into a deterministic form: from its
    lowest atom, towards the lower of that atom's two cycle neighbors."""
    start = atoms.index(min(atoms))  # a simple cycle: every atom appears once
    return tuple(min(atoms[start:] + atoms[:start], atoms[start::-1] + atoms[:start:-1]))


def _shortest_cycle_mask(adj: list[list[tuple[int, int]]], src: int, dst: int,
                         skip: int) -> tuple[list[int], int] | None:
    """BFS path src..dst over `adj` ((neighbor, edge bit) lists) that never
    crosses the `skip` edge, with the edge mask of the cycle it closes."""
    parent: dict[int, tuple[int, int]] = {src: (-1, 0)}
    queue = [src]
    while queue:
        nxt: list[int] = []
        for u in queue:
            for v, bit in adj[u]:
                if bit == skip or v in parent:
                    continue
                parent[v] = (u, bit)
                if v == dst:
                    path = [v]
                    mask = skip
                    while v != src:
                        v, bit = parent[v]
                        mask |= bit
                        path.append(v)
                    path.reverse()
                    return path, mask
                nxt.append(v)
        queue = nxt
    return None


def _bridges(adj: Sequence[Sequence[tuple[int, int]]]) -> set[tuple[int, int]]:
    """Edges not on any cycle (iterative low-link from atom 0), over the
    adjacency rows of a connected graph, (neighbor, order) pairs with no
    repeated neighbor."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    out: set[tuple[int, int]] = set()
    disc[0] = low[0] = 0
    counter = 1
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        u, parent, nbrs = stack[-1]
        for v, _ in nbrs:
            if v == parent:  # no parallel bonds, so this is the tree edge
                continue
            if disc[v] == -1:
                disc[v] = low[v] = counter
                counter += 1
                stack.append((v, u, iter(adj[v])))
                break
            if disc[v] < low[u]:
                low[u] = disc[v]
        else:
            stack.pop()
            if parent != -1:
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] > disc[parent]:
                    out.add((parent, u) if parent < u else (u, parent))
    return out


def _fundamental_cycles(g: MolecularGraph) -> list[list[int]]:
    """The cycle each non-tree bond closes in a DFS spanning tree rooted at
    atom 0, as an atom sequence in walk order."""
    n = g.n_atoms
    parent = [-2] * n  # -2: not reached yet, -1: the root
    depth = [0] * n
    cycles: list[list[int]] = []
    parent[0] = -1
    stack = [0]
    while stack:
        u = stack.pop()
        for v, _ in g._adj[u]:
            if parent[v] == -2:
                parent[v] = u
                depth[v] = depth[u] + 1
                stack.append(v)
    for a, b, _ in g.bond_list:
        if parent[b] == a or parent[a] == b:
            continue  # a tree edge
        # walk both endpoints up to their common ancestor
        pa, pb = a, b
        left, right = [a], [b]
        while depth[pa] > depth[pb]:
            pa = parent[pa]
            left.append(pa)
        while depth[pb] > depth[pa]:
            pb = parent[pb]
            right.append(pb)
        while pa != pb:
            pa = parent[pa]
            pb = parent[pb]
            left.append(pa)
            right.append(pb)
        cycles.append(left + right[-2::-1])  # drop duplicated ancestor
    return cycles


def _minimum_cycle_basis(g: MolecularGraph) -> tuple[tuple[int, ...], ...]:
    # cycle rank m - n + 1: zero for a tree, which needs no DFS
    if len(g.bond_list) - g.n_atoms + 1 == 0:
        return ()
    # a spanning tree leaves out one bond per independent cycle
    cycles = _fundamental_cycles(g)
    if len(cycles) <= 1:
        # no cycle, or the graph's one cycle is its only candidate
        return tuple(_canonical_cycle(c) for c in cycles)
    return _basis_by_elimination(g, cycles)


def _basis_by_elimination(g: MolecularGraph,
                          fundamental: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """A minimum cycle basis from the shortest cycle through each ring bond
    plus `fundamental`, the graph's fundamental cycles (_fundamental_cycles),
    whose count is the basis's rank."""
    eidx = _edge_index_map(g)
    candidates: dict[int, tuple[int, ...]] = {}  # edge mask -> atom tuple
    # A shortest path between two atoms of a ring never crosses a bridge, so
    # the BFS runs over ring bonds only and finds the same parents.
    bridges = _bridges(g._adj)
    ring_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_atoms)]
    for (a, b), k in eidx.items():  # sorted bonds, so each list is sorted by neighbor
        if (a, b) not in bridges:
            ring_adj[a].append((b, 1 << k))
            ring_adj[b].append((a, 1 << k))
    # only a cycle with a new edge mask is put into canonical form
    for (a, b), k in eidx.items():
        if (a, b) in bridges:
            continue
        found = _shortest_cycle_mask(ring_adj, a, b, 1 << k)
        if found is not None and found[1] not in candidates:
            candidates[found[1]] = _canonical_cycle(found[0])
    for cyc in fundamental:
        mask = _cycle_mask(cyc, eidx)
        if mask not in candidates:
            candidates[mask] = _canonical_cycle(cyc)

    inv = _atom_invariants(g)

    def invariant_key(cycle: tuple[int, ...]):
        # labeling-independent ordering: length, then multisets of local atom
        # invariants and of the cycle's bond orders; final tie-break on the
        # canonical atom tuple (ties at the full key are near-always
        # automorphic images of each other)
        atom_sig = tuple(sorted(inv[a] for a in cycle))
        k = len(cycle)
        bond_sig = tuple(sorted(g.bond_order(cycle[i], cycle[(i + 1) % k]) for i in range(k)))
        return (k, atom_sig, bond_sig, cycle)

    ordered = sorted(candidates.items(), key=lambda kv: invariant_key(kv[1]))
    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []  # row-reduced masks
    for mask, cyc in ordered:
        reduced = mask
        for p in pivots:
            if reduced & (p & -p):
                reduced ^= p
        if reduced:
            pivots.append(reduced)
            pivots.sort(key=lambda m: -(m & -m))
            basis.append(cyc)
            if len(basis) == len(fundamental):
                break
    return tuple(basis)


# ---------------------------------------------------------------------------
# Canonical serialization: Morgan-style refinement ranks atoms; a DFS from
# the lowest-ranked atom emits a SMILES-subset string; remaining rank ties
# are resolved by enumerating the tied orderings and keeping the
# lexicographically smallest rendering.
# ---------------------------------------------------------------------------


def _refined_ranks(g: MolecularGraph) -> list[int]:
    n = g.n_atoms
    adj = g._adj
    ring = g.ring_atoms()
    sig: list = [(el, deg, osum, i in ring)
                 for i, (el, deg, osum) in enumerate(_atom_invariants(g))]
    ranks = _ranks_from_signatures(sig)
    n_classes = len(set(ranks))
    for _ in range(n):
        if n_classes == n:
            break  # every atom has its own class: refinement keeps the ranks
        # (bond order, neighbor rank) pairs as o * n + rank, which sort alike
        sig = [
            (ranks[i], tuple(sorted([o * n + ranks[v] for v, o in adj[i]])))
            for i in range(n)
        ]
        new_ranks = _ranks_from_signatures(sig)
        new_classes = len(set(new_ranks))
        if new_classes == n_classes:
            ranks = new_ranks
            break
        ranks, n_classes = new_ranks, new_classes
    return ranks


def _ranks_from_signatures(sig: list) -> list[int]:
    order = {s: r for r, s in enumerate(sorted(set(sig)))}
    return [order[s] for s in sig]


_BOND_CHAR = {1: "", 2: "=", 3: "#"}
_DIGIT_TEXT = [str(d) if d < 10 else f"%{d:02d}" for d in range(100)]

# One DFS step from atom u: (u, v, bond order, v newly visited).
_Step = tuple[int, int, int, bool]


def _canonical_string(g: MolecularGraph) -> str:
    """The smallest rendering over every tied traversal."""
    n = g.n_atoms
    if n == 1:
        return g.elements[0]
    ranks = _refined_ranks(g)
    # each atom's bonds in the order the DFS takes them (by neighbor rank,
    # then neighbor index), with the bond's bit in the `done` mask and the
    # neighbor's bit in the `seen` mask
    bond_bit: dict[int, int] = {}
    order = []
    for u, nbrs in enumerate(g._adj):
        bonds = []
        for v, o in nbrs:
            if v < u:
                b = bond_bit[v * n + u]
            else:
                b = bond_bit[u * n + v] = 1 << len(bond_bit)
            bonds.append((ranks[v], v, o, b, 1 << v))
        bonds.sort()
        order.append(bonds)
    lowest = min(ranks)
    renders: list[str] = []
    for start in range(n):
        if ranks[start] == lowest:
            _traverse(order, g.elements, start, (start, None), 0, 1 << start, [], renders)
    return min(renders)


def _traverse(order: list[list[tuple[int, int, int, int, int]]], elements: tuple[str, ...],
              start: int, stack: tuple | None, done: int, seen: int,
              steps: list[_Step], renders: list[str]) -> None:
    """Walk the DFS from this state to its end and render it into `renders`.

    The DFS stack is a linked list of (atom, rest) pairs, and `done` and
    `seen` are bit masks of the processed bonds and the visited atoms, so a
    state is never changed in place; `steps` only grows. When the top atom's
    pending bonds tie on the lowest neighbor rank, the first is taken here
    and each other one is taken from the same state in its own call."""
    while stack is not None:
        u, rest = stack
        pending = [bond for bond in order[u] if not done & bond[3]]
        if not pending:
            stack = rest
            continue
        rank, v, o, b, vb = pending[0]
        if len(pending) > 1 and pending[1][0] == rank:
            mark = len(steps)
            for r, v2, o2, b2, vb2 in pending[1:]:
                if r != rank:
                    break
                steps.append((u, v2, o2, not seen & vb2))
                _traverse(order, elements, start, stack if seen & vb2 else (v2, stack),
                          done | b2, seen | vb2, steps, renders)
                del steps[mark:]
        steps.append((u, v, o, not seen & vb))
        if not seen & vb:
            stack = (v, stack)
        done |= b
        seen |= vb
    renders.append(_render(elements, start, steps))


def _render(elements: tuple[str, ...], start: int, steps: list[_Step]) -> str:
    """SMILES-subset text of one DFS.

    Atoms are written in visit order. A child that is not its parent's last
    is written as a branch, which the next sibling closes with ")": a
    parent's first child is the atom visited right after it. A ring-closure
    bond's earlier-visited end opens it with the lowest free digit, and its
    later end closes it."""
    last_child: dict[int, int] = {-1: start}  # -1: the start's parent
    opens: dict[int, list[int]] = {}
    closes: dict[int, list[tuple[int, int]]] = {}
    for k, (u, v, o, tree) in enumerate(steps):
        if tree:
            last_child[u] = v
        else:  # v is an ancestor of u, so visited first
            opens.setdefault(v, []).append(k)
            closes.setdefault(u, []).append((k, o))
    digit: dict[int, int] = {}
    freed: list[int] = []  # heap of released digits, all below `unused`
    unused = 1
    out: list[str] = []
    prev = -1
    for u, v, o, tree in chain(((-1, start, 1, True),), steps):
        if not tree:
            continue
        if u != prev:
            out.append(")")
        out.append(_BOND_CHAR[o] if last_child[u] == v else "(" + _BOND_CHAR[o])
        out.append(elements[v])
        prev = v
        if v in closes:
            for k, order in closes[v]:
                d = digit[k]
                out.append(_BOND_CHAR[order] + _DIGIT_TEXT[d])
                heapq.heappush(freed, d)
        if v in opens:
            for k in opens[v]:
                if freed:
                    d = heapq.heappop(freed)
                elif unused < 100:
                    d = unused
                    unused += 1
                else:
                    raise RuntimeError("more than 99 simultaneously open ring closures")
                digit[k] = d
                out.append(_DIGIT_TEXT[d])
    return "".join(out)


def canonical_length_bounds(g: MolecularGraph) -> tuple[int, int]:
    """(lo, hi) with lo <= len(g.canonical()) <= hi, without rendering.

    The canonical DFS of a graph with n atoms, m bonds, b of them
    of order 2 or 3, and cycle rank r = m - n + 1 makes n - 1 tree steps and
    r ring-closure steps, and `_render` writes:
    - n element letters, one per atom;
    - b bond characters: each double or triple bond is written once, on its
      tree step or where its ring closure closes;
    - 2r ring-digit tokens, an opening and a closing one per closure. A
      token is one character below 10 and three (`%nn`) from 10 up. The
      k-th closure opened gets a digit of at most k, so the first nine take
      one character each: at most 2r characters if r <= 9, else
      18 + 6(r - 9);
    - a "(" for every child that is not its parent's last and a ")" for
      every child that is not its first, so 2 * sum(max(0, children - 1)).
      The start atom has at most deg children, any other atom deg - 1,
      which is at most 2 + 2 * sum(max(0, deg - 2)).
    So lo = n + b + 2r (no branches, one-character digits) and hi adds
    the maxima.

    A graph with more closures than `_render` has digits for is rendered,
    and its bounds are its length.
    """
    adj = g._adj
    n = len(adj)
    r = len(g.bond_list) - n + 1
    if r > 99:
        k = len(g.canonical())
        return k, k
    b = sum(1 for _, _, o in g.bond_list if o > 1)
    lo = n + b + 2 * r
    digits = 2 * r if r <= 9 else 18 + 6 * (r - 9)
    branches = 2 + 2 * sum(len(nbrs) - 2 for nbrs in adj if len(nbrs) > 2)
    return lo, n + b + digits + branches


def canonical_length_in(g: MolecularGraph, lo: int, hi: int) -> bool:
    """lo <= len(g.canonical()) <= hi. The string is rendered only when its
    length bounds straddle the range."""
    low, high = canonical_length_bounds(g)
    if high < lo or low > hi:
        return False
    return lo <= low and high <= hi or lo <= len(g.canonical()) <= hi


def canonical(g: MolecularGraph) -> str:
    """Deterministic SMILES-subset serialization; isomorphic graphs yield
    identical text."""
    return g.canonical()


# ---------------------------------------------------------------------------
# Restricted SMILES reader
# ---------------------------------------------------------------------------

_AROMATIC = {"c": "C", "n": "N", "o": "O", "s": "S"}
_ALIPHATIC = set("CNOSPF")
_BOND_ORDER = {"-": 1, "=": 2, "#": 3}


def parse_smiles(text: str) -> MolecularGraph:
    """Parse the supported SMILES subset into a molecular graph.

    Supported: atoms C N O S P F, aromatic c n o s, bonds - = #,
    parenthesized branches, ring closures 1-9 and %nn. Aromatic systems are
    Kekulized (alternating double bonds via a matching that covers every
    aromatic carbon). Anything else raises with a byte offset.
    """
    elements: list[str] = []
    aromatic: list[bool] = []
    bonds: list[tuple[int, int, int | None]] = []  # None = aromatic default
    anchor: int | None = None
    pending: int | None = None
    pending_off = 0
    branch_stack: list[int] = []
    ring_open: dict[int, tuple[int, int | None]] = {}

    def add_atom(el: str, is_ar: bool) -> None:
        nonlocal anchor, pending
        idx = len(elements)
        elements.append(el)
        aromatic.append(is_ar)
        if anchor is not None:
            order: int | None
            if pending is not None:
                order = pending
            elif aromatic[anchor] and is_ar:
                order = None
            else:
                order = 1
            bonds.append((anchor, idx, order))
        elif pending is not None:
            raise SmilesSyntaxError("bond with no preceding atom", pending_off)
        pending = None
        anchor = idx

    def close_ring(num: int, off: int) -> None:
        nonlocal pending
        if anchor is None:
            raise SmilesSyntaxError("ring closure before any atom", off)
        if num in ring_open:
            other, order_open = ring_open.pop(num)
            if other == anchor:
                raise SmilesSyntaxError(f"ring closure {num} bonds an atom to itself", off)
            if order_open is not None and pending is not None and order_open != pending:
                raise SmilesSyntaxError(f"conflicting bond orders on ring closure {num}", off)
            order: int | None
            if pending is not None:
                order = pending
            elif order_open is not None:
                order = order_open
            elif aromatic[other] and aromatic[anchor]:
                order = None
            else:
                order = 1
            a, b = (other, anchor) if other < anchor else (anchor, other)
            if any(x == a and y == b for x, y, _ in bonds):
                raise SmilesSyntaxError(f"duplicate bond via ring closure {num}", off)
            bonds.append((a, b, order))
        else:
            ring_open[num] = (anchor, pending)
        pending = None

    i = 0
    n = len(text)
    if n == 0:
        raise SmilesSyntaxError("empty SMILES", 0)
    while i < n:
        ch = text[i]
        if ch in _ALIPHATIC:
            if ch == "C" and i + 1 < n and text[i + 1] == "l":
                raise UnsupportedFeature("element Cl not supported", i)
            add_atom(ch, False)
            i += 1
        elif ch in _AROMATIC:
            add_atom(_AROMATIC[ch], True)
            i += 1
        elif ch == "B":
            if i + 1 < n and text[i + 1] == "r":
                raise UnsupportedFeature("element Br not supported", i)
            raise UnsupportedFeature("element B not supported", i)
        elif ch in "-=#":
            if pending is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending = _BOND_ORDER[ch]
            pending_off = i
            i += 1
        elif ch == "(":
            if anchor is None:
                raise SmilesSyntaxError("branch before any atom", i)
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before branch open", i)
            branch_stack.append(anchor)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError("unmatched ')'", i)
            if pending is not None:
                raise SmilesSyntaxError("dangling bond before ')'", i)
            anchor = branch_stack.pop()
            i += 1
        elif ch.isdigit():
            if ch == "0":
                raise SmilesSyntaxError("ring closure 0 is not allowed", i)
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                raise SmilesSyntaxError("'%' needs two digits", i)
            close_ring(int(text[i + 1 : i + 3]), i)
            i += 3
        elif ch == "[":
            raise UnsupportedFeature("bracket atoms (charges, isotopes, explicit H) not supported", i)
        elif ch in "/\\@":
            raise UnsupportedFeature("stereochemistry not supported", i)
        elif ch == ".":
            raise UnsupportedFeature("disconnected components not supported", i)
        elif ch in "bp":
            raise UnsupportedFeature(f"aromatic element {ch!r} not supported", i)
        else:
            raise SmilesSyntaxError(f"unexpected character {ch!r}", i)
    if pending is not None:
        raise SmilesSyntaxError("dangling bond at end of input", pending_off)
    if branch_stack:
        raise SmilesSyntaxError("unclosed branch", n - 1)
    if ring_open:
        raise SmilesSyntaxError(f"unclosed ring closure {sorted(ring_open)[0]}", n - 1)

    resolved = _kekulize(elements, aromatic, bonds)
    g = MolecularGraph(elements, resolved)
    problems = validate(g)
    if problems:
        raise ValenceViolation("; ".join(problems))
    return g


def _kekulize(elements: list[str], aromatic: list[bool],
              bonds: list[tuple[int, int, int | None]]) -> list[tuple[int, int, int]]:
    ar_edges = [(a, b) for a, b, o in bonds if o is None]
    if not ar_edges and not any(aromatic):
        return [(a, b, o) for a, b, o in bonds if o is not None]

    # every aromatic atom must sit on a ring, i.e. on a bond that is no bridge;
    # parse order bonds each atom to an earlier one, so the bonds are connected
    adj: list[list[tuple[int, int]]] = [[] for _ in elements]
    for a, b, _ in bonds:
        adj[a].append((b, 1))
        adj[b].append((a, 1))
    bridges = _bridges(adj)
    in_ring = {atom for a, b, _ in bonds if (a, b) not in bridges for atom in (a, b)}
    for idx, is_ar in enumerate(aromatic):
        if is_ar and idx not in in_ring:
            raise KekulizationFailure(f"aromatic atom {idx} is not in a ring")

    # capacity with every bond counted at face value (aromatic as single)
    load = [0] * len(elements)
    for a, b, o in bonds:
        order = 1 if o is None else o
        load[a] += order
        load[b] += order
    capacity = [VALENCE[elements[i]] - load[i] for i in range(len(elements))]

    must = [i for i in range(len(elements)) if aromatic[i] and elements[i] == "C"]
    for i in must:
        if capacity[i] < 1:
            raise KekulizationFailure(f"aromatic carbon {i} has no capacity for a double bond")

    ar_neighbors: dict[int, list[int]] = {}
    for a, b in ar_edges:
        ar_neighbors.setdefault(a, []).append(b)
        ar_neighbors.setdefault(b, []).append(a)

    matched: dict[int, int] = {}

    def backtrack(k: int) -> bool:
        while k < len(must) and must[k] in matched:
            k += 1
        if k == len(must):
            return True
        u = must[k]
        for v in ar_neighbors.get(u, []):
            if v in matched or not aromatic[v] or capacity[v] < 1:
                continue
            matched[u] = v
            matched[v] = u
            if backtrack(k + 1):
                return True
            del matched[u]
            del matched[v]
        return False

    if not backtrack(0):
        raise KekulizationFailure("no alternating double-bond assignment covers every aromatic carbon")

    out: list[tuple[int, int, int]] = []
    for a, b, o in bonds:
        if o is not None:
            out.append((a, b, o))
        elif matched.get(a) == b:
            out.append((a, b, 2))
        else:
            out.append((a, b, 1))
    return out


# ---------------------------------------------------------------------------
# Circular fingerprints and Tanimoto similarity
# ---------------------------------------------------------------------------

# A fingerprint is an int in which bit k is on when some atom environment of
# up to FP_RADIUS bonds hashes to k mod FP_BITS; `analysis.bit_matrix` gives
# the 0/1 array form.
FP_RADIUS = 2
FP_BITS = 1024

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_PRIME_7 = pow(_FNV_PRIME, 7, 1 << 64)
_MASK64 = (1 << 64) - 1

# Hashed atom environments, memoized process-wide:
# GA children share almost all of their atom environments with their
# parents. Cleared when full. An entry takes about 150 bytes in a GA run and
# at most about 370 (nine unshared 64-bit ints), so at most about 1.5 MB.
# At 32,768 entries the memo never filled on the benchmark's
# constrained_batch and kept all 19,230 environments it hashed (2.85 MB,
# seed 7); at 4,096 that run hashes 26,811 times instead.
_HASH_MEMO_SIZE = 1 << 12
_hash_memo: dict[tuple[int, ...], int] = {}


def _hash_ints(values: Iterable[int]) -> int:
    """FNV-1a-64 over the values as 8-byte big-endian unsigned ints."""
    key = tuple(values)
    h = _hash_memo.get(key)
    if h is None:
        if len(_hash_memo) >= _HASH_MEMO_SIZE:
            _hash_memo.clear()
        # A byte's xor touches only the low 8 bits, so masking to 64 bits
        # once per value gives the byte-serial result.
        h = _FNV_OFFSET
        for v in key:
            if v < 256:
                # seven zero bytes multiply h by the prime seven times; then v
                h = ((h * _FNV_PRIME_7) ^ v) * _FNV_PRIME & _MASK64
            else:
                for byte in v.to_bytes(8, "big"):
                    h = (h ^ byte) * _FNV_PRIME
                h &= _MASK64
        _hash_memo[key] = h
    return h


_ELEMENT_CODE = {el: k for k, el in enumerate(ELEMENTS)}


def _fingerprint(g: MolecularGraph) -> int:
    ring = g.ring_atoms()
    inv = [
        _hash_ints((_ELEMENT_CODE[el], deg, max(VALENCE[el] - osum, 0), 1 if i in ring else 0))
        for i, (el, deg, osum) in enumerate(_atom_invariants(g))
    ]
    bits = 0
    for h in inv:
        bits |= 1 << (h % FP_BITS)
    for _ in range(FP_RADIUS):
        # an atom's invariant, then its (bond order, neighbor invariant) pairs in order
        inv = [_hash_ints((inv[i], *chain.from_iterable(sorted((o, inv[v]) for v, o in row))))
               for i, row in enumerate(g._adj)]
        for h in inv:
            bits |= 1 << (h % FP_BITS)
    return bits


def fingerprint(g: MolecularGraph) -> int:
    """ECFP-style circular fingerprint with FNV-1a hashed neighborhoods."""
    return g.fingerprint()


def tanimoto(a: int, b: int) -> float:
    """On-bit intersection over union; 1.0 when both are empty."""
    union = (a | b).bit_count()
    if not union:
        return 1.0
    return (a & b).bit_count() / union
