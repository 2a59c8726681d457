"""The canonical-form kernel and the ring-basis candidate search against
reference copies of the straightforward versions they replaced.

The references recurse once per DFS step, copy the DFS stack on every step,
render each traversal recursively, refine ranks until the class count
stops growing, and canonicalize every candidate cycle found by a BFS over
the whole graph. The kernel in `molga.graph` must give byte-identical
strings and identical bases, including the ring-basis pivot order that
ROADMAP item 4 will change.
"""

from __future__ import annotations

import random

from molga.cli import bundled_reference_path
from molga.codec import decode, random_genotype
from molga.graph import (
    MolecularGraph,
    _bridges,
    _canonical_string,
    _refined_ranks,
    parse_smiles,
)
from molga.reference import load_reference

from test_graph import permuted

_BOND_CHAR = {1: "", 2: "=", 3: "#"}


def bond_order_sum(g: MolecularGraph, i: int) -> int:
    return sum(o for _, o in g.neighbors(i))


def reference_ranks(g: MolecularGraph) -> list[int]:
    n = g.n_atoms
    ring = g.ring_atoms()
    sig: list = [
        (g.elements[i], g.degree(i), bond_order_sum(g, i), i in ring)
        for i in range(n)
    ]
    ranks = _ranks_from_signatures(sig)
    n_classes = len(set(ranks))
    for _ in range(n):
        sig = [
            (ranks[i], tuple(sorted((o, ranks[v]) for v, o in g.neighbors(i))))
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


def reference_canonical(g: MolecularGraph) -> str:
    n = g.n_atoms
    if n == 1:
        return g.elements[0]
    ranks = reference_ranks(g)
    lowest = min(ranks)
    best: list[str | None] = [None]
    for start in range(n):
        if ranks[start] == lowest:
            _enumerate_traversals(g, start, ranks, best)
    assert best[0] is not None
    return best[0]


def _enumerate_traversals(g: MolecularGraph, start: int, ranks: list[int],
                          best: list[str | None]) -> None:
    pos: dict[int, int] = {start: 0}
    children: dict[int, list[int]] = {start: []}
    closure_edges: list[tuple[int, int]] = []
    classified: set[tuple[int, int]] = set()

    def process(stack: list[int]) -> None:
        if not stack:
            s = _render(g, start, children, closure_edges, pos)
            if best[0] is None or s < best[0]:
                best[0] = s
            return
        u = stack[-1]
        pending = []
        for v, _ in g.neighbors(u):
            e = (u, v) if u < v else (v, u)
            if e not in classified:
                pending.append(v)
        if not pending:
            process(stack[:-1])
            return
        min_rank = min(ranks[v] for v in pending)
        group = [v for v in pending if ranks[v] == min_rank]
        for v in group:
            e = (u, v) if u < v else (v, u)
            classified.add(e)
            if v in pos:
                closure_edges.append((u, v))
                process(stack)
                closure_edges.pop()
            else:
                pos[v] = len(pos)
                children[v] = []
                children[u].append(v)
                process(stack + [v])
                children[u].pop()
                del children[v]
                del pos[v]
            classified.discard(e)

    process([start])


def _render(g: MolecularGraph, start: int, children: dict[int, list[int]],
            closure_edges: list[tuple[int, int]], pos: dict[int, int]) -> str:
    opens: dict[int, list[int]] = {}
    closes: dict[int, list[int]] = {}
    for k, (u, v) in enumerate(closure_edges):
        opener, closer = (u, v) if pos[u] < pos[v] else (v, u)
        opens.setdefault(opener, []).append(k)
        closes.setdefault(closer, []).append(k)
    digit_of: dict[int, str] = {}
    free: list[bool] = [True] * 100

    def take_digit(k: int) -> str:
        for d in range(1, 100):
            if free[d]:
                free[d] = False
                digit_of[k] = str(d) if d < 10 else f"%{d:02d}"
                return digit_of[k]
        raise RuntimeError("more than 99 simultaneously open ring closures")

    out: list[str] = []

    def emit(u: int) -> None:
        out.append(g.elements[u])
        for k in closes.get(u, []):
            u2, v2 = closure_edges[k]
            out.append(_BOND_CHAR[g.bond_order(u2, v2)] + digit_of[k])
            free[int(digit_of[k].lstrip("%"))] = True
        for k in opens.get(u, []):
            out.append(take_digit(k))
        kids = children[u]
        for i, c in enumerate(kids):
            order = g.bond_order(u, c)
            if i < len(kids) - 1:
                out.append("(" + _BOND_CHAR[order])
                emit(c)
                out.append(")")
            else:
                out.append(_BOND_CHAR[order])
                emit(c)

    emit(start)
    return "".join(out)


def reference_path_avoiding(g: MolecularGraph, src: int, dst: int) -> list[int] | None:
    """BFS path src..dst over the whole graph that does not use the bond
    src-dst; None when that bond is a bridge."""
    parent = {src: -1}
    queue = [src]
    while queue:
        nxt = []
        for u in queue:
            for v, _ in g.neighbors(u):
                if {u, v} == {src, dst} or v in parent:
                    continue
                parent[v] = u
                if v == dst:
                    path = [v]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(v)
        queue = nxt
    return None


def reference_basis(g: MolecularGraph, target_rank: int) -> tuple[tuple[int, ...], ...]:
    """Candidate cycles from a BFS over the whole graph, each put into
    canonical form; then the same ordering and pivot elimination."""
    eidx = {(a, b): i for i, (a, b, _) in enumerate(sorted(g.bond_list))}

    def mask_of(cycle):
        k = len(cycle)
        return sum(1 << eidx[tuple(sorted((cycle[i], cycle[(i + 1) % k])))]
                   for i in range(k))

    def canonical_cycle(atoms):
        k = len(atoms)
        lowest = min(atoms)
        return min(tuple(atoms[(start + step * i) % k] for i in range(k))
                   for start in range(k) if atoms[start] == lowest for step in (1, -1))

    def spanning_forest_cycles():
        parent, depth = {}, {}
        for root in range(g.n_atoms):
            if root in parent:
                continue
            parent[root], depth[root] = -1, 0
            stack = [root]
            while stack:
                u = stack.pop()
                for v, _ in g.neighbors(u):
                    if v not in parent:
                        parent[v], depth[v] = u, depth[u] + 1
                        stack.append(v)
        for a, b, _ in sorted(g.bond_list):
            if parent[b] == a or parent[a] == b:
                continue
            left, right = [a], [b]
            while left[-1] != right[-1]:
                if depth[left[-1]] >= depth[right[-1]]:
                    left.append(parent[left[-1]])
                else:
                    right.append(parent[right[-1]])
            yield left + right[-2::-1]

    candidates: dict[int, tuple[int, ...]] = {}
    for a, b, _ in sorted(g.bond_list):
        path = reference_path_avoiding(g, a, b)  # None for a bridge
        if path is not None:
            candidates.setdefault(mask_of(path), canonical_cycle(path))
    for cycle in spanning_forest_cycles():
        candidates.setdefault(mask_of(cycle), canonical_cycle(cycle))

    def invariant_key(cycle):
        atom_sig = tuple(sorted(
            (g.elements[a], g.degree(a), bond_order_sum(g, a)) for a in cycle))
        k = len(cycle)
        bond_sig = tuple(sorted(g.bond_order(cycle[i], cycle[(i + 1) % k]) for i in range(k)))
        return (k, atom_sig, bond_sig, cycle)

    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for mask, cyc in sorted(candidates.items(), key=lambda kv: invariant_key(kv[1])):
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


def _graphs():
    """3,000 decoded random genotypes and the bundled reference's ring-rich
    molecules, each also relabelled, plus rank-tie-heavy molecules under a
    few relabellings."""
    rng = random.Random(2015)
    molecules = [decode(random_genotype(rng, rng.choice((20, 40, 60)))) for _ in range(3_000)]
    molecules += load_reference(bundled_reference_path())[0].graphs
    for mol in molecules:
        yield MolecularGraph(mol.elements, mol.bond_list)
        yield permuted(mol, rng)
    # The last two are 3-regular: refinement leaves every atom tied, though
    # not every atom is equivalent, so only trying every tied choice finds
    # the smallest string. The larger one costs the reference about a
    # second, so it is relabelled once.
    for smiles, relabellings in (("CC(C)(C)C(C)(C)C", 3), ("C12C3C4C1C5C2C3C45", 3),
                                 ("C1C2CC3CC1CC(C2)C3", 3), ("C1CC11CC1", 3),
                                 ("c1ccc2ccccc2c1", 3), ("C1CCC2(CC1)CCCC2", 3),
                                 ("C12C3C1C1C2C2C1C23", 3), ("C12C3C1C1C4C2C2C1C3C24", 1)):
        mol = parse_smiles(smiles)
        for _ in range(relabellings):
            yield permuted(mol, rng)


def test_kernel_matches_reference():
    n_multi_ring = 0
    for g in _graphs():
        rank = len(g.bond_list) - g.n_atoms + 1  # every graph here is connected
        assert g.ring_basis() == reference_basis(g, rank)
        if rank >= 2:
            n_multi_ring += 1
            assert _bridges(g._adj) == {
                (a, b) for a, b, _ in g.bond_list if reference_path_avoiding(g, a, b) is None}
        assert _refined_ranks(g) == reference_ranks(g)
        assert _canonical_string(g) == reference_canonical(g)
    assert n_multi_ring > 500
