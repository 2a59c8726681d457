"""Surrogate property evaluators and the penalized-logP objective.

The three raw properties mirror the shape of the usual cheminformatics
objective (octanol-water partition, synthetic accessibility, large-ring
penalty) with simple additive surrogates; the combined objective is
j = z(logp) - z(sa) - z(ring) with z-scores fit on a reference set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import MolgaError
from .graph import MolecularGraph

SIGMA_FLOOR = 1e-6


class EmptyReference(MolgaError):
    """Normalization requested over an empty reference collection."""


# per-atom logP contributions; ring-conjugated carbon gets the aromatic-like
# bonus
_LOGP_CONTRIB = {"N": -0.60, "O": -0.40, "S": 0.60, "P": -0.50, "F": 0.20}
_LOGP_C_PLAIN = 0.20
_LOGP_C_CONJ_RING = 0.30


def _conjugated_ring_atoms(g: MolecularGraph) -> set[int]:
    """Atoms in a ring of size <= 6 that contains at least one double bond."""
    out: set[int] = set()
    for cyc in g.ring_basis():
        if len(cyc) > 6:
            continue
        k = len(cyc)
        has_double = any(
            g.bond_order(cyc[i], cyc[(i + 1) % k]) == 2 for i in range(k)
        )
        if has_double:
            out.update(cyc)
    return out


def logp_raw(g: MolecularGraph) -> float:
    """Additive hydrophobicity surrogate.

    Computed from per-class atom counts so the value is bit-identical across
    isomorphic labelings. Memoized on the graph: the property record, QED
    and the discriminator features all read it.
    """
    return g.memo("logp_raw", _logp_raw)


def _logp_raw(g: MolecularGraph) -> float:
    conj = _conjugated_ring_atoms(g)
    elements = g.elements
    n_conj_c = sum(1 for i in conj if elements[i] == "C")
    n_plain_c = elements.count("C") - n_conj_c
    total = n_conj_c * _LOGP_C_CONJ_RING + n_plain_c * _LOGP_C_PLAIN
    for el, contrib in _LOGP_CONTRIB.items():
        count = elements.count(el)
        if count:
            total += count * contrib
    return total


def sa_raw(g: MolecularGraph) -> float:
    """Complexity surrogate: size, branching, rings, element variety.
    Memoized on the graph."""
    return g.memo("sa_raw", _sa_raw)


def _sa_raw(g: MolecularGraph) -> float:
    n_branch = sum(1 for i in range(g.n_atoms) if g.degree(i) >= 3)
    n_rings = len(g.ring_basis())
    n_distinct = len(set(g.elements))
    return 0.05 * g.n_atoms + 0.30 * n_branch + 0.40 * n_rings + 0.80 * (n_distinct - 1)


def ring_penalty_raw(g: MolecularGraph) -> float:
    """Linear penalty on basis cycles larger than 6. Memoized on the graph."""
    return g.memo("ring_penalty_raw", _ring_penalty_raw)


def _ring_penalty_raw(g: MolecularGraph) -> float:
    return float(sum(max(0, len(cyc) - 6) for cyc in g.ring_basis()))


def _desirability(x: float, x0: float, w: float) -> float:
    return math.exp(-((x - x0) ** 2) / (2.0 * w * w))


def qed(g: MolecularGraph) -> float:
    """Drug-likeness surrogate in (0, 1]: geometric mean of four Gaussian
    desirabilities (heavy atoms, logP, ring count, heteroatom fraction).
    Memoized on the graph."""
    return g.memo("qed", _qed)


def _qed(g: MolecularGraph) -> float:
    n = g.n_atoms
    het = sum(1 for el in g.elements if el != "C") / n
    d = (
        _desirability(n, 23.0, 8.0)
        * _desirability(logp_raw(g), 2.5, 2.0)
        * _desirability(len(g.ring_basis()), 2.0, 1.5)
        * _desirability(het, 0.25, 0.15)
    )
    return d ** 0.25


@dataclass(frozen=True)
class NormStats:
    """Per-property mean and (floored) standard deviation over a reference
    set; frozen after fitting."""

    logp_mean: float
    logp_std: float
    sa_mean: float
    sa_std: float
    ring_mean: float
    ring_std: float


@dataclass(frozen=True)
class PropertyRecord:
    """Raw and normalized property values for one molecule."""

    logp_raw: float
    sa_raw: float
    ring_raw: float
    qed: float
    logp_z: float
    sa_z: float
    ring_z: float
    j: float


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, max(math.sqrt(var), SIGMA_FLOOR)


def fit_norm(reference: Iterable[MolecularGraph]) -> NormStats:
    """Fit z-score statistics for logp/sa/ring over the reference set."""
    logps, sas, ringps = [], [], []
    for g in reference:
        logps.append(logp_raw(g))
        sas.append(sa_raw(g))
        ringps.append(ring_penalty_raw(g))
    if not logps:
        raise EmptyReference("cannot fit normalization on an empty reference set")
    lm, ls = _mean_std(logps)
    sm, ss = _mean_std(sas)
    rm, rs = _mean_std(ringps)
    return NormStats(lm, ls, sm, ss, rm, rs)


def penalized_logp(g: MolecularGraph, stats: NormStats) -> PropertyRecord:
    """Full property record with j = z(logp) - z(sa) - z(ring)."""
    lp = logp_raw(g)
    sa = sa_raw(g)
    rp = ring_penalty_raw(g)
    lz = (lp - stats.logp_mean) / stats.logp_std
    sz = (sa - stats.sa_mean) / stats.sa_std
    rz = (rp - stats.ring_mean) / stats.ring_std
    return PropertyRecord(
        logp_raw=lp, sa_raw=sa, ring_raw=rp, qed=qed(g),
        logp_z=lz, sa_z=sz, ring_z=rz, j=lz - sz - rz,
    )
