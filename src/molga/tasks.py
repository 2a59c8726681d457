"""Experiment drivers: the constrained, property-target and logP+QED
protocols, the random baseline and the beta sweep.

Each GA driver takes the caller's EvolverConfig and overrides only what its
protocol fixes. The unconstrained and adaptive-schedule tasks need no
driver: they are `evolver.run` on the caller's config."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Sequence

from .codec import (
    Genotype, UnencodableGraph, decode, encode, parse_genotype, random_genotype,
)
from .evolver import Evolver, EvolverConfig, run
from .graph import MolecularGraph, canonical_length_in, tanimoto
from .graph import fingerprint  # noqa: F401 (bench/tests reads tasks.fingerprint)
from .props import PropertyRecord, penalized_logp
from .reference import ReferenceSet
from .schedules import BetaSchedule

SIMILARITY_PENALTY = 1e6


def _without_discriminator(config: EvolverConfig, **changes) -> EvolverConfig:
    """The config with beta fixed at 0 and no discriminator trained."""
    return replace(config, schedule=BetaSchedule(low=0.0, high=0.0),
                   use_discriminator=False, **changes)


def _nth_run(config: EvolverConfig, k: int) -> EvolverConfig:
    """The config of the k-th independently seeded run of a batch."""
    return replace(config, seed=config.seed * 1_000_003 + k)


def first_trigger_generation(result: Evolver, high: float) -> int | None:
    for log in result.logs:
        if log.beta == high:
            return log.generation
    return None


# ---------------------------------------------------------------------------
# Constrained similarity improvement
# ---------------------------------------------------------------------------


def constrained_fitness(j: float, sim: float, delta: float) -> float:
    """Objective under the similarity constraint: the full penalty applies
    whenever sim <= delta (strict inequality required to escape it)."""
    return j if sim > delta else j - SIMILARITY_PENALTY


@dataclass
class ConstrainedResult:
    reference_canonical: str
    reference_j: float
    delta: float
    best_canonical: str | None = None
    best_genotype: str | None = None
    best_j: float | None = None
    best_similarity: float | None = None
    improvement: float = 0.0
    success: bool = False
    verified: bool = False
    error: str | None = None


def run_constrained(reference_graph: MolecularGraph, ref: ReferenceSet,
                    config: EvolverConfig, *, delta: float) -> ConstrainedResult:
    """Improve one molecule's objective while staying similar to it.

    The population starts as copies of the reference molecule, beta is 0,
    and the reported winner's similarity is re-verified on a new graph built
    from its decoded atoms and bonds, not on cached state.
    """
    ref_record = penalized_logp(reference_graph, ref.prop_stats)
    out = ConstrainedResult(
        reference_canonical=reference_graph.canonical(),
        reference_j=ref_record.j, delta=delta,
    )
    try:
        seed_genotype = encode(reference_graph)
    except UnencodableGraph as exc:
        out.error = str(exc)
        return out
    ref_fp = reference_graph.fingerprint()

    def objective(graph: MolecularGraph, record: PropertyRecord) -> float:
        return constrained_fitness(record.j, tanimoto(graph.fingerprint(), ref_fp), delta)

    config = _without_discriminator(
        config, initial_genotypes=[seed_genotype] * config.population_size)
    result = run(config, ref, objective)

    best = None
    for entry in result.archive_sorted():
        # decode() may return a cached graph that carries the fingerprint
        # the objective memoized; a new graph recomputes it
        graph = decode(parse_genotype(entry.genotype_text))
        sim = tanimoto(MolecularGraph(graph.elements, graph.bond_list).fingerprint(), ref_fp)
        if sim > delta:
            j = penalized_logp(graph, ref.prop_stats).j
            if best is None or j > best[0]:
                best = (j, sim, entry)
    if best is None:
        return out  # no qualifying molecule at this delta
    j, sim, entry = best
    out.best_canonical = entry.canonical
    out.best_genotype = entry.genotype_text
    out.best_j = j
    out.best_similarity = sim
    out.improvement = j - ref_record.j
    out.success = out.improvement > 0
    out.verified = sim > delta
    return out


@dataclass
class ConstrainedBatchResult:
    results: list[ConstrainedResult]
    mean_improvement: float
    success_rate: float


def lowest_scoring_references(ref: ReferenceSet, n: int) -> list[int]:
    """Indices of the n reference molecules with the lowest j, ties broken
    by canonical string. Only molecules at or below the n-th lowest j can
    be picked, so only they are canonicalized."""
    js = [r.j for r in ref.records]
    cut = sorted(js)[min(n, len(js)) - 1]
    candidates = [i for i, j in enumerate(js) if j <= cut]
    candidates.sort(key=lambda i: (js[i], ref.graphs[i].canonical()))
    return candidates[:n]


def run_constrained_batch(ref: ReferenceSet, config: EvolverConfig, *, n_molecules: int,
                          delta: float) -> ConstrainedBatchResult:
    """Constrained improvement over the n lowest-scoring reference molecules."""
    picks = lowest_scoring_references(ref, n_molecules)
    results = [run_constrained(ref.graphs[idx], ref, _nth_run(config, k), delta=delta)
               for k, idx in enumerate(picks)]
    usable = [r for r in results if r.error is None]
    improvements = [r.improvement for r in usable]
    successes = [r.success for r in usable]
    return ConstrainedBatchResult(
        results=results,
        mean_improvement=sum(improvements) / len(improvements) if improvements else 0.0,
        success_rate=sum(successes) / len(successes) if successes else 0.0,
    )


# ---------------------------------------------------------------------------
# Property targeting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyTargets:
    logp: float
    sa: float
    ring: float


@dataclass(frozen=True)
class TargetRanges:
    """Affine maps from the conventional target ranges onto the surrogate
    property ranges observed in the reference set."""

    logp_lo: float
    logp_hi: float
    sa_lo: float
    sa_hi: float
    ring_lo: float
    ring_hi: float

    @staticmethod
    def from_reference(ref: ReferenceSet) -> "TargetRanges":
        logps = [r.logp_raw for r in ref.records]
        sas = [r.sa_raw for r in ref.records]
        rings = [r.ring_raw for r in ref.records]
        return TargetRanges(min(logps), max(logps), min(sas), max(sas),
                            min(rings), max(rings))

    def map_conventional(self, logp_u: float, sa_u: float, ring_u: float) -> PropertyTargets:
        """(logp in [-5,10], sa in [1,5], ring in [0,3]) -> surrogate scale."""

        def lerp(u: float, ulo: float, uhi: float, lo: float, hi: float) -> float:
            return lo + (u - ulo) / (uhi - ulo) * (hi - lo)

        return PropertyTargets(
            logp=lerp(logp_u, -5.0, 10.0, self.logp_lo, self.logp_hi),
            sa=lerp(sa_u, 1.0, 5.0, self.sa_lo, self.sa_hi),
            ring=lerp(ring_u, 0.0, 3.0, self.ring_lo, self.ring_hi),
        )


def draw_property_targets(ref: ReferenceSet, n: int, seed: int) -> list[PropertyTargets]:
    ranges = TargetRanges.from_reference(ref)
    rng = random.Random(seed)
    return [
        ranges.map_conventional(rng.uniform(-5.0, 10.0), rng.uniform(1.0, 5.0),
                                rng.uniform(0.0, 3.0))
        for _ in range(n)
    ]


def property_target_fitness(record: PropertyRecord, targets: PropertyTargets) -> float:
    """Negated summed squared difference on raw property values."""
    return -(
        (record.logp_raw - targets.logp) ** 2
        + (record.sa_raw - targets.sa) ** 2
        + (record.ring_raw - targets.ring) ** 2
    )


SUCCESS_SSD = 1.0


@dataclass
class PropertyTargetResult:
    targets: PropertyTargets
    success: bool
    best_canonical: str
    best_genotype: str
    best_ssd: float
    generations_used: int


def run_property_target(targets: PropertyTargets, ref: ReferenceSet,
                        config: EvolverConfig) -> PropertyTargetResult:
    """Seek a molecule matching the raw property targets (SSD < 1.0).

    The run ends at the first generation whose best-ever molecule already
    satisfies the success criterion.
    """

    def objective(graph: MolecularGraph, record: PropertyRecord) -> float:
        return property_target_fitness(record, targets)

    result = run(_without_discriminator(config), ref, objective,
                 stop_condition=lambda ev: ev.best_ever() > -SUCCESS_SSD)
    best = result.archive_sorted()[0]
    ssd = -best.score
    return PropertyTargetResult(
        targets=targets, success=ssd < SUCCESS_SSD,
        best_canonical=best.canonical, best_genotype=best.genotype_text,
        best_ssd=ssd, generations_used=len(result.logs) - 1,
    )


@dataclass
class PropertyTargetBatchResult:
    results: list[PropertyTargetResult]
    success_rate: float


def run_property_target_batch(ref: ReferenceSet, config: EvolverConfig, *,
                              n_targets: int) -> PropertyTargetBatchResult:
    targets = draw_property_targets(ref, n_targets, config.seed)
    results = [run_property_target(t, ref, _nth_run(config, k)) for k, t in enumerate(targets)]
    rate = sum(r.success for r in results) / len(results)
    return PropertyTargetBatchResult(results, rate)


# ---------------------------------------------------------------------------
# Simultaneous logP and drug-likeness
# ---------------------------------------------------------------------------


def run_logp_qed(ref: ReferenceSet, config: EvolverConfig, *, w_j: float,
                 w_qed: float) -> Evolver:
    """Weighted combination of the penalized-logP objective and QED."""

    def objective(graph: MolecularGraph, record: PropertyRecord) -> float:
        return w_j * record.j + w_qed * record.qed

    return run(_without_discriminator(config), ref, objective)


# ---------------------------------------------------------------------------
# Summary statistics, in pure Python with numpy's exact bits
# ---------------------------------------------------------------------------


def _pairwise_sum(v: Sequence[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of v[lo:lo + n]: a plain loop below 8
    elements, eight strided accumulators up to 128, else two halves split
    at a multiple of 8."""
    if n < 8:
        return reduce(add, v[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, v[j:end:8]) for j in range(lo, lo + 8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in v[end:lo + n]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(v, lo, n2) + _pairwise_sum(v, lo + n2, n - n2)


def _np_sum(values: Sequence[float]) -> float:
    """`np.add.reduce` of a float64 array, bit for bit: the pairwise sum
    added to the identity 0.0, so that a sum of -0.0 is 0.0."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


def mean(values: Sequence[float]) -> float:
    """`np.mean`, bit for bit."""
    return _np_sum(values) / len(values)


def std(values: Sequence[float]) -> float:
    """`np.std` (population, ddof 0), bit for bit."""
    m = mean(values)
    return math.sqrt(_np_sum([(x - m) * (x - m) for x in values]) / len(values))


def histogram(values: Sequence[float], bins: int) -> tuple[list[int], list[float]]:
    """`np.histogram(values, bins)` as (counts, edges), bit for bit: edges
    from np.linspace over [min, max] (widened by 0.5 each way when they are
    equal), and numpy's uniform-bin index with its two edge corrections."""
    first, last = min(values), max(values)
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError(f"autodetected range of [{first}, {last}] is not finite")
    if first == last:
        first, last = first - 0.5, last + 0.5
    width = last - first
    step = width / bins
    edges = [i * step + first for i in range(bins)] + [last]
    counts = [0] * bins
    for x in values:
        i = min(int((x - first) / width * bins), bins - 1)
        if x < edges[i]:
            i -= 1
        elif i != bins - 1 and x >= edges[i + 1]:
            i += 1
        counts[i] += 1
    return counts, edges


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------


@dataclass
class BaselineResult:
    n: int
    max_j: float
    mean_j: float
    std_j: float
    best_canonical: str
    best_genotype: str
    histogram_edges: list[float]
    histogram_counts: list[int]


def run_random_baseline(ref: ReferenceSet, n: int, seed: int, *, max_canonical_len: int,
                        max_genotype_len: int) -> BaselineResult:
    """Score n random genotypes (canonical length capped); the exploration
    floor the GA must beat.

    A sample whose canonical length bound fits the cap is scored without
    rendering its canonical string; only the best sample's is rendered."""
    rng = random.Random(seed)
    best_j = -float("inf")
    best: tuple[MolecularGraph, Genotype] | None = None
    values: list[float] = []
    while len(values) < n:
        genotype = random_genotype(rng, max_genotype_len)
        graph = decode(genotype)
        if not canonical_length_in(graph, 1, max_canonical_len):
            continue
        j = penalized_logp(graph, ref.prop_stats).j
        values.append(j)
        if j > best_j:
            best_j = j
            best = (graph, genotype)
    counts, edges = histogram(values, 50)
    assert best is not None
    return BaselineResult(
        n=n, max_j=max(values), mean_j=mean(values), std_j=std(values),
        best_canonical=best[0].canonical(), best_genotype=best[1].text(),
        histogram_edges=edges, histogram_counts=counts,
    )


# ---------------------------------------------------------------------------
# Beta sweep
# ---------------------------------------------------------------------------


@dataclass
class BetaSweepRow:
    beta: float
    mean_j_trace: list[float]  # per generation, averaged over seeds
    mean_d_trace: list[float]
    final_mean_j: float
    late_mean_d: float  # mean D over the last quarter of generations


@dataclass
class BetaSweepResult:
    rows: list[BetaSweepRow]


def run_beta_sweep(ref: ReferenceSet, config: EvolverConfig, betas: list[float], *,
                   seeds_per_beta: int) -> BetaSweepResult:
    """Unconstrained runs (discriminator always attached) across betas,
    averaged over seeds."""
    rows = []
    for beta in betas:
        j_traces, d_traces = [], []
        final_j: list[float] = []
        for s in range(seeds_per_beta):
            result = run(replace(_nth_run(config, s), schedule=BetaSchedule(low=beta, high=beta),
                                 use_discriminator=True), ref)
            j_traces.append([log.mean_j for log in result.logs])
            d_traces.append([log.mean_d for log in result.logs])
            final_j.extend(ind.score for ind in result.population)
        mean_j_trace = [mean(col) for col in zip(*j_traces)]
        mean_d_trace = [mean(col) for col in zip(*d_traces)]
        late = max(1, len(mean_d_trace) // 4)
        rows.append(BetaSweepRow(
            beta=beta, mean_j_trace=mean_j_trace, mean_d_trace=mean_d_trace,
            final_mean_j=mean(final_j),
            late_mean_d=mean(mean_d_trace[-late:]),
        ))
    return BetaSweepResult(rows)
