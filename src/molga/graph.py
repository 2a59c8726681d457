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
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Sequence

from .errors import MolgaError

# Maximum bond-order sum per element. S is capped at 2 (thioether-like), not
# hypervalent 6; P at 3. Immutable at runtime.
VALENCE: dict[str, int] = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1}

ELEMENTS: tuple[str, ...] = ("C", "N", "O", "S", "P", "F")


class UnsupportedFeature(MolgaError):
    """SMILES feature outside the supported subset (charges, stereo, ...)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class SmilesSyntaxError(MolgaError):
    """Malformed SMILES input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class KekulizationFailure(MolgaError):
    """No alternating single/double assignment exists for an aromatic system."""


class ValenceViolation(MolgaError):
    """Parsed molecule exceeds a valence cap."""


class MolecularGraph:
    """Immutable heavy-atom graph.

    Atom indices are dense 0..n-1 in placement order. Bonds are undirected
    with order in {1, 2, 3}. The constructor accepts structurally bad input
    (duplicate bonds, over-valent atoms, disconnected fragments) so that
    validate() can report the violations; self-loops and out-of-range
    indices are rejected outright.
    """

    __slots__ = ("elements", "bond_list", "bonds", "_adj", "_cache")

    def __init__(self, elements: Sequence[str], bonds: Iterable[tuple[int, int, int]]):
        self.elements: tuple[str, ...] = tuple(elements)
        n = len(self.elements)
        if n == 0:
            raise ValueError("graph needs at least one atom")
        for el in self.elements:
            if el not in VALENCE:
                raise ValueError(f"unknown element {el!r}")
        norm = []
        for i, j, order in bonds:
            if i == j:
                raise ValueError(f"self-loop on atom {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bond ({i},{j}) out of range")
            if order not in (1, 2, 3):
                raise ValueError(f"bond order {order} not in 1..3")
            a, b = (i, j) if i < j else (j, i)
            norm.append((a, b, order))
        self.bond_list: tuple[tuple[int, int, int], ...] = tuple(norm)
        self.bonds: dict[tuple[int, int], int] = {(a, b): o for a, b, o in norm}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (a, b), o in self.bonds.items():
            adj[a].append((b, o))
            adj[b].append((a, o))
        for lst in adj:
            lst.sort()
        self._adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(tuple(l) for l in adj)
        self._cache: dict = {}

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        """(neighbor index, bond order) pairs, sorted by neighbor index."""
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def bond_order_sum(self, i: int) -> int:
        return sum(o for _, o in self._adj[i])

    def implicit_hydrogens(self, i: int) -> int:
        return max(VALENCE[self.elements[i]] - self.bond_order_sum(i), 0)

    def bond_order(self, i: int, j: int) -> int | None:
        a, b = (i, j) if i < j else (j, i)
        return self.bonds.get((a, b))

    def __repr__(self) -> str:
        return f"MolecularGraph({len(self.elements)} atoms, {len(self.bonds)} bonds)"

    def int_adjacency(self) -> list[list[int]]:
        """Neighbor indices only (no orders); cached."""
        if "int_adj" not in self._cache:
            self._cache["int_adj"] = [[v for v, _ in nbrs] for nbrs in self._adj]
        return self._cache["int_adj"]

    # Derived data is memoized on the instance; graphs are never mutated.
    def ring_basis(self) -> tuple[tuple[int, ...], ...]:
        if "rings" not in self._cache:
            self._cache["rings"] = _minimum_cycle_basis(self)
        return self._cache["rings"]

    def ring_atoms(self) -> frozenset[int]:
        if "ring_atoms" not in self._cache:
            atoms: set[int] = set()
            for cyc in self.ring_basis():
                atoms.update(cyc)
            self._cache["ring_atoms"] = frozenset(atoms)
        return self._cache["ring_atoms"]

    def canonical(self) -> str:
        if "canonical" not in self._cache:
            self._cache["canonical"] = _canonical_string(self)
        return self._cache["canonical"]

    def memo(self, key: str, compute: Callable[["MolecularGraph"], Any]) -> Any:
        """`compute(self)`, computed once per graph."""
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    def fingerprint(self, radius: int = 2, nbits: int = 1024) -> "Fingerprint":
        key = ("fp", radius, nbits)
        if key not in self._cache:
            self._cache[key] = _fingerprint(self, radius, nbits)
        return self._cache[key]


def methane() -> MolecularGraph:
    """Single-carbon graph; the decoder's fallback and the GA's seed."""
    return MolecularGraph(["C"], [])


def validate(g: MolecularGraph) -> list[str]:
    """Return a list of violations; empty means the graph is valid.

    Checks every atom's bond-order sum against its valence cap, parallel
    bonds, and connectivity.
    """
    problems: list[str] = []
    seen: set[tuple[int, int]] = set()
    for a, b, _ in g.bond_list:
        if (a, b) in seen:
            problems.append(f"parallel bond between atoms {a} and {b}")
        seen.add((a, b))
    for i, el in enumerate(g.elements):
        total = g.bond_order_sum(i)
        if total > VALENCE[el]:
            problems.append(f"atom {i} ({el}) bond-order sum {total} exceeds cap {VALENCE[el]}")
    components = _components(g)
    if len(components) > 1:
        missing = sorted(i for comp in components[1:] for i in comp)
        problems.append(f"disconnected atoms: {missing}")
    return problems


def _proven_connected(g: MolecularGraph) -> bool:
    """True when every atom after the first has a lower-indexed neighbor,
    which proves the graph connected. Every decoded or parsed graph passes
    (each atom is placed bonded to an earlier one); a relabelled connected
    graph may not."""
    adj = g._adj
    return all(adj[i] and adj[i][0][0] < i for i in range(1, len(adj)))


def _components(g: MolecularGraph) -> list[list[int]]:
    """Sorted atom indices of each connected component, ordered by their
    lowest atom."""
    n = g.n_atoms
    if _proven_connected(g):
        return [list(range(n))]
    seen = [False] * n
    components = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [root], [root]
        while stack:
            for v, _ in g._adj[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        components.append(sorted(comp))
    return components


# ---------------------------------------------------------------------------
# Minimum cycle basis (Horton-style): candidate cycles are the shortest cycle
# through each edge plus the spanning-forest fundamental cycles, greedily
# selected for GF(2) independence in order of increasing length.
# ---------------------------------------------------------------------------


def _edge_index_map(g: MolecularGraph) -> dict[tuple[int, int], int]:
    return {e: i for i, e in enumerate(sorted(g.bonds))}


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


def _bridges(g: MolecularGraph) -> set[tuple[int, int]]:
    """Edges not on any cycle (iterative low-link)."""
    n = g.n_atoms
    adj = g._adj
    disc = [-1] * n
    low = [0] * n
    out: set[tuple[int, int]] = set()
    counter = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
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
    """The cycle each non-tree bond closes in a DFS spanning forest, as an
    atom sequence in walk order."""
    n = g.n_atoms
    parent = [-2] * n  # -2: not reached yet, -1: a root
    depth = [0] * n
    cycles: list[list[int]] = []
    for root in range(n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            u = stack.pop()
            for v, _ in g._adj[u]:
                if parent[v] == -2:
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    stack.append(v)
    for a, b in g.bonds:
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
    # a spanning forest leaves out one bond per independent cycle
    cycles = _fundamental_cycles(g)
    if len(cycles) <= 1:
        # no cycle, or the graph's one cycle is its only candidate
        return tuple(_canonical_cycle(c) for c in cycles)
    return _basis_by_elimination(g, len(cycles))


def _basis_by_elimination(g: MolecularGraph, target_rank: int) -> tuple[tuple[int, ...], ...]:
    eidx = _edge_index_map(g)
    candidates: dict[int, tuple[int, ...]] = {}  # edge mask -> atom tuple
    # A shortest path between two atoms of a ring never crosses a bridge, so
    # the BFS runs over ring bonds only and finds the same parents.
    bridges = _bridges(g)
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
    for cyc in _fundamental_cycles(g):
        mask = _cycle_mask(cyc, eidx)
        if mask not in candidates:
            candidates[mask] = _canonical_cycle(cyc)

    def invariant_key(cycle: tuple[int, ...]):
        # labeling-independent ordering: length, then multisets of local atom
        # invariants and of the cycle's bond orders; final tie-break on the
        # canonical atom tuple (ties at the full key are near-always
        # automorphic images of each other)
        atom_sig = tuple(sorted(
            (g.elements[a], g.degree(a), g.bond_order_sum(a)) for a in cycle))
        k = len(cycle)
        bond_sig = tuple(sorted(
            g.bonds[(cycle[i], cycle[(i + 1) % k]) if cycle[i] < cycle[(i + 1) % k]
                    else (cycle[(i + 1) % k], cycle[i])]
            for i in range(k)))
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
            if len(basis) == target_rank:
                break
    return tuple(basis)


# ---------------------------------------------------------------------------
# Canonical serialization: Morgan-style refinement ranks atoms; a DFS from
# the lowest-ranked atom emits a SMILES-subset string; remaining rank ties
# are resolved by enumerating the tied orderings and keeping the
# lexicographically smallest rendering.
# ---------------------------------------------------------------------------


def _refined_ranks(g: MolecularGraph) -> list[int]:
    if "ranks" in g._cache:
        return g._cache["ranks"]
    n = g.n_atoms
    adj = g._adj
    ring = g.ring_atoms()
    order_sum = [0] * n
    for (a, b), o in g.bonds.items():
        order_sum[a] += o
        order_sum[b] += o
    sig: list = [
        (g.elements[i], len(adj[i]), order_sum[i], i in ring)
        for i in range(n)
    ]
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
    g._cache["ranks"] = ranks
    return ranks


def _ranks_from_signatures(sig: list) -> list[int]:
    order = {s: r for r, s in enumerate(sorted(set(sig)))}
    return [order[s] for s in sig]


_BOND_CHAR = {1: "", 2: "=", 3: "#"}
_DIGIT_TEXT = [str(d) if d < 10 else f"%{d:02d}" for d in range(100)]

# One DFS step from atom u: (u, v, bond order, v newly visited).
_Step = tuple[int, int, int, bool]


def _canonical_string(g: MolecularGraph) -> str:
    """The canonical text of a connected graph. A disconnected graph's is
    its components' texts, sorted and joined by dots."""
    n = g.n_atoms
    if n == 1:
        return g.elements[0]
    components = _components(g)
    if len(components) > 1:
        return ".".join(sorted(_subgraph(g, comp).canonical() for comp in components))
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


def _subgraph(g: MolecularGraph, atoms: list[int]) -> MolecularGraph:
    """The graph induced on `atoms`, relabelled 0..k-1 in the order given."""
    index = {a: k for k, a in enumerate(atoms)}
    return MolecularGraph([g.elements[a] for a in atoms],
                          [(index[a], index[b], o) for a, b, o in g.bond_list if a in index])


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

    The canonical DFS of a connected graph with n atoms, m bonds, b of them
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

    The bounds hold for a connected graph, which `_proven_connected`
    proves cheaply for every decoded or parsed graph. A graph that fails
    that test, or has more closures than `_render` has digits for, is
    rendered, and its bounds are its length.
    """
    adj = g._adj
    n = len(adj)
    r = len(g.bonds) - n + 1
    if r > 99 or not _proven_connected(g):
        k = len(g.canonical())
        return k, k
    b = sum(1 for o in g.bonds.values() if o > 1)
    lo = n + b + 2 * r
    digits = 2 * r if r <= 9 else 18 + 6 * (r - 9)
    branches = 2 + 2 * sum(len(nbrs) - 2 for nbrs in adj if len(nbrs) > 2)
    return lo, n + b + digits + branches


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

    def add_atom(el: str, is_ar: bool, off: int) -> None:
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
            add_atom(ch, False, i)
            i += 1
        elif ch in _AROMATIC:
            add_atom(_AROMATIC[ch], True, i)
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

    # every aromatic atom must sit on a ring, i.e. on a bond that is no bridge
    probe = MolecularGraph(elements, [(a, b, 1) for a, b, _ in bonds])
    bridges = _bridges(probe)
    in_ring = {atom for bond in probe.bonds if bond not in bridges for atom in bond}
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

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


# Hashed atom environments, memoized process-wide:
# GA children share almost all of their atom environments with their
# parents. Cleared when full. An entry takes about 150 bytes in a GA run and
# at most about 370 (nine unshared 64-bit ints), so at most about 12 MB.
_HASH_MEMO_SIZE = 1 << 15
_hash_memo: dict[tuple[int, ...], int] = {}


def _hash_ints(values: Iterable[int]) -> int:
    """FNV-1a-64 over the values as 8-byte big-endian unsigned ints."""
    key = tuple(values)
    h = _hash_memo.get(key)
    if h is None:
        if len(_hash_memo) >= _HASH_MEMO_SIZE:
            _hash_memo.clear()
        h = _hash_memo[key] = _fnv1a(struct.pack(f">{len(key)}Q", *key))
    return h


@dataclass(frozen=True)
class Fingerprint:
    """Folded circular fingerprint: the set of on bits in an nbits vector."""

    nbits: int
    bits: frozenset[int]

    def to_array(self):
        import numpy as np

        arr = np.zeros(self.nbits, dtype=np.float64)
        if self.bits:
            arr[sorted(self.bits)] = 1.0
        return arr


_ELEMENT_CODE = {el: k for k, el in enumerate(ELEMENTS)}


def _fingerprint(g: MolecularGraph, radius: int, nbits: int) -> Fingerprint:
    ring = g.ring_atoms()
    inv = [
        _hash_ints((_ELEMENT_CODE[g.elements[i]], g.degree(i),
                    g.implicit_hydrogens(i), 1 if i in ring else 0))
        for i in range(g.n_atoms)
    ]
    bits: set[int] = {h % nbits for h in inv}
    for _ in range(radius):
        # an atom's invariant, then its (bond order, neighbor invariant) pairs in order
        inv = [_hash_ints((inv[i], *chain.from_iterable(
                   sorted((o, inv[v]) for v, o in g.neighbors(i)))))
               for i in range(g.n_atoms)]
        bits.update(h % nbits for h in inv)
    return Fingerprint(nbits, frozenset(bits))


def fingerprint(g: MolecularGraph, radius: int = 2, nbits: int = 1024) -> Fingerprint:
    """ECFP-style circular fingerprint with FNV-1a hashed neighborhoods."""
    return g.fingerprint(radius, nbits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Bit-set intersection over union; 1.0 when both sets are empty."""
    if a.nbits != b.nbits:
        raise ValueError(f"fingerprint sizes differ: {a.nbits} vs {b.nbits}")
    if not a.bits and not b.bits:
        return 1.0
    inter = len(a.bits & b.bits)
    union = len(a.bits | b.bits)
    return inter / union
