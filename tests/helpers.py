"""Independent oracles used across the test suite.

These deliberately re-derive facts by brute force rather than calling the
package's own algorithms, so they can catch systematic bugs.
"""

from __future__ import annotations

from molga.codec import N_SYMBOLS, Genotype, Symbol
from molga.graph import VALENCE, MolecularGraph


def valence_ok(g: MolecularGraph) -> bool:
    """Independent valence check: per-atom bond-order sums vs caps."""
    sums = [0] * g.n_atoms
    for a, b, order in g.bond_list:
        sums[a] += order
        sums[b] += order
    return all(s <= VALENCE[el] for s, el in zip(sums, g.elements))


def connected_ok(g: MolecularGraph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v, _ in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n_atoms


def brute_force_isomorphic(g1: MolecularGraph, g2: MolecularGraph,
                           max_atoms: int = 12) -> bool:
    """Backtracking isomorphism test for small graphs (bond orders must
    match)."""
    n = g1.n_atoms
    if n > max_atoms:
        raise ValueError(f"brute-force isomorphism capped at {max_atoms} atoms")
    if n != g2.n_atoms or len(g1.bond_list) != len(g2.bond_list):
        return False
    if sorted(g1.elements) != sorted(g2.elements):
        return False

    def signature(g: MolecularGraph, i: int):
        return (g.elements[i], g.degree(i), tuple(sorted(o for _, o in g.neighbors(i))))

    sig1 = [signature(g1, i) for i in range(n)]
    sig2 = [signature(g2, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False
    candidates = [[j for j in range(n) if sig2[j] == sig1[i]] for i in range(n)]
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for v, order in g1.neighbors(i):
                if v < i and g2.bond_order(j, mapping[v]) != order:
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used.add(j)
                if extend(i + 1):
                    return True
                used.discard(j)
                del mapping[i]
        return False

    return extend(0)


def enumerate_simple_cycles(g: MolecularGraph, max_len: int = 12) -> list[tuple[int, ...]]:
    """All simple cycles up to max_len, deduplicated, via DFS paths."""
    cycles: set[frozenset] = set()
    out: list[tuple[int, ...]] = []

    def walk(start: int, path: list[int], visited: set[int]) -> None:
        u = path[-1]
        for v, _ in g.neighbors(u):
            if v == start and len(path) >= 3:
                key = frozenset(path)
                if key not in cycles:
                    cycles.add(key)
                    out.append(tuple(path))
            elif v not in visited and v > start and len(path) < max_len:
                visited.add(v)
                path.append(v)
                walk(start, path, visited)
                path.pop()
                visited.discard(v)

    for s in range(g.n_atoms):
        walk(s, [s], {s})
    return out


def brute_force_diameter(g: MolecularGraph) -> int:
    """Largest shortest-path distance in bonds, from a BFS at every atom."""
    best = 0
    for src in range(g.n_atoms):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v, _ in g.neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def random_genotype_per_symbol(rng, max_len: int) -> Genotype:
    """`codec.random_genotype` as one `randrange(16)` call per symbol."""
    length = rng.randint(1, max_len)
    return Genotype(tuple(Symbol(rng.randrange(N_SYMBOLS)) for _ in range(length)))
