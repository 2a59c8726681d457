import math
import random

import numpy as np
import pytest

from molga import tasks
from molga.codec import decode, parse_genotype
from molga.evolver import EvolverConfig, run
from molga.graph import (
    MolecularGraph,
    canonical_length_bounds,
    fingerprint,
    parse_smiles,
    tanimoto,
)
from molga.props import penalized_logp
from molga.reference import ReferenceSet, synthetic_reference
from molga.schedules import BetaSchedule
from molga.tasks import (
    PropertyTargets,
    SIMILARITY_PENALTY,
    TargetRanges,
    constrained_fitness,
    draw_property_targets,
    first_trigger_generation,
    lowest_scoring_references,
    property_target_fitness,
    run_beta_sweep,
    run_constrained,
    run_logp_qed,
    run_property_target,
    run_random_baseline,
)

from helpers import random_genotype_per_symbol


@pytest.fixture(scope="module")
def ref():
    return synthetic_reference(200, seed=11)


class TestConstrainedFitness:
    def test_above_threshold(self):
        assert constrained_fitness(3.2, 0.7, 0.4) == pytest.approx(3.2)

    def test_below_threshold(self):
        assert constrained_fitness(3.2, 0.3, 0.4) == pytest.approx(3.2 - 1e6)

    def test_boundary_is_penalized(self):
        assert constrained_fitness(1.0, 0.4, 0.4) == pytest.approx(1.0 - SIMILARITY_PENALTY)


class TestRunConstrained:
    def test_delta_zero_any_improvement_succeeds(self, ref):
        graph = parse_smiles("CCOCC")
        res = run_constrained(graph, ref, EvolverConfig(population_size=40,
                              generations=8, seed=0), delta=0.0)
        assert res.error is None
        assert res.best_j is not None
        assert res.success == (res.improvement > 0)

    def test_delta_one_reports_no_qualifier(self, ref):
        graph = parse_smiles("CCOCC")
        res = run_constrained(graph, ref, EvolverConfig(population_size=30,
                              generations=3, seed=1), delta=1.0)
        assert res.best_canonical is None
        assert res.improvement == 0.0
        assert not res.success

    def test_winner_verified_against_fresh_fingerprints(self, ref):
        graph = parse_smiles("CCCCOC")
        res = run_constrained(graph, ref, EvolverConfig(population_size=60,
                              generations=10, seed=2), delta=0.4)
        assert res.best_genotype is not None
        # brute re-check: a new graph, so new fingerprints
        decoded = decode(parse_genotype(res.best_genotype))
        cand = MolecularGraph(decoded.elements, decoded.bond_list)
        sim = tanimoto(fingerprint(cand), fingerprint(parse_smiles("CCCCOC")))
        assert sim > 0.4
        assert res.verified

    def test_winner_similarity_recomputed_on_a_fresh_graph(self, ref, monkeypatch):
        # decode() returns the memoized graph with the fingerprint the
        # objective cached on it; re-verifying on that graph checks nothing
        archive, verified_on = [], []
        original_fingerprint = MolecularGraph.fingerprint

        def run_then_watch(*args, **kwargs):
            result = run(*args, **kwargs)
            archive.extend(result.archive_sorted())
            monkeypatch.setattr(MolecularGraph, "fingerprint",
                                lambda g: verified_on.append(g) or original_fingerprint(g))
            return result

        monkeypatch.setattr(tasks, "run", run_then_watch)
        res = run_constrained(parse_smiles("CCCCOC"), ref, EvolverConfig(
            population_size=30, generations=4, seed=2), delta=0.4)
        assert res.verified
        assert len(verified_on) == len(archive) > 0
        for g, entry in zip(verified_on, archive):
            memoized = decode(parse_genotype(entry.genotype_text))
            assert g is not memoized
            assert (g.elements, g.bond_list) == (memoized.elements, memoized.bond_list)

    def test_population_starts_at_reference(self, ref):
        graph = parse_smiles("CCC")
        res = run_constrained(graph, ref, EvolverConfig(population_size=20,
                              generations=0, seed=3), delta=0.9999)
        # with zero generations only the reference population exists; it is
        # its own best qualifier (sim == 1 > delta) with zero improvement
        assert res.best_canonical == graph.canonical()
        assert res.improvement == pytest.approx(0.0)
        assert not res.success

    def test_lowest_scoring_selection(self, ref):
        picks = lowest_scoring_references(ref, 10)
        js = [ref.records[i].j for i in picks]
        assert js == sorted(js)
        all_js = sorted(r.j for r in ref.records)
        assert js == all_js[:10]


class TestLowestScoringReferences:
    @staticmethod
    def full_sort(ref, n):
        return sorted(range(len(ref)),
                      key=lambda i: (ref.records[i].j, ref.canonicals[i]))[:n]

    @pytest.mark.parametrize("n", [1, 5, 50, 999, 1000])
    def test_bundled_matches_full_sort(self, bundled_reference, n):
        picks = lowest_scoring_references(bundled_reference, n)
        assert picks == self.full_sort(bundled_reference, n)

    def test_ties_at_the_cut(self):
        # four groups of equal j, made of isomers and of molecules written in
        # two atom orders (NCCCO and OCCCN), so most cuts fall inside a tie
        smiles = ["CC(N)CO", "CC(O)CN", "NCCCO", "CNCCO", "OCCCN", "CCNCO",
                  "OCCNC", "CCC(C)O", "CC(C)CO", "COC(C)C", "CC(O)CC",
                  "CCCCO", "CCOCC", "CCCOC", "OCCCC"]
        ref = ReferenceSet([parse_smiles(s) for s in smiles])
        assert len({r.j for r in ref.records}) == 4
        assert len(set(ref.canonicals)) < len(ref)
        for n in range(1, len(ref) + 1):
            assert lowest_scoring_references(ref, n) == self.full_sort(ref, n)

    def test_rejects_zero(self, ref):
        with pytest.raises(ValueError):
            lowest_scoring_references(ref, 0)


class TestPropertyTargetFitness:
    def test_exact_match_is_zero(self):
        rec = penalized_logp(parse_smiles("CCC"), _identity_stats())
        targets = PropertyTargets(rec.logp_raw, rec.sa_raw, rec.ring_raw)
        assert property_target_fitness(rec, targets) == pytest.approx(0.0)

    def test_unit_error_is_minus_one(self):
        rec = penalized_logp(parse_smiles("CCC"), _identity_stats())
        targets = PropertyTargets(rec.logp_raw + 1.0, rec.sa_raw, rec.ring_raw)
        assert property_target_fitness(rec, targets) == pytest.approx(-1.0)

    def test_maximum_at_match(self):
        rec = penalized_logp(parse_smiles("CCC"), _identity_stats())
        t = PropertyTargets(rec.logp_raw, rec.sa_raw, rec.ring_raw)
        assert property_target_fitness(rec, t) >= property_target_fitness(
            rec, PropertyTargets(t.logp + 0.5, t.sa, t.ring))


def _identity_stats():
    from molga.props import NormStats

    return NormStats(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)


class TestRunPropertyTarget:
    def test_methane_target_succeeds_at_generation_zero(self, ref):
        rec = penalized_logp(parse_smiles("C"), ref.prop_stats)
        targets = PropertyTargets(rec.logp_raw, rec.sa_raw, rec.ring_raw)
        res = run_property_target(targets, ref, EvolverConfig(population_size=20,
                                  generations=5, seed=0))
        assert res.success
        assert res.generations_used == 0
        assert res.best_ssd == pytest.approx(0.0)

    def test_infeasible_target_fails_cleanly(self, ref):
        targets = PropertyTargets(0.2, 0.05, -5.0)  # negative ring impossible
        res = run_property_target(targets, ref, EvolverConfig(population_size=20,
                                  generations=3, seed=1))
        assert not res.success
        assert res.best_ssd >= 25.0 - 1e6 and math.isfinite(res.best_ssd)

    def test_target_mapping_spans_reference(self, ref):
        ranges = TargetRanges.from_reference(ref)
        lo = ranges.map_conventional(-5.0, 1.0, 0.0)
        hi = ranges.map_conventional(10.0, 5.0, 3.0)
        assert lo.logp == pytest.approx(ranges.logp_lo)
        assert hi.logp == pytest.approx(ranges.logp_hi)
        assert lo.sa == pytest.approx(ranges.sa_lo)
        assert hi.ring == pytest.approx(ranges.ring_hi)

    def test_draw_targets_within_ranges(self, ref):
        ranges = TargetRanges.from_reference(ref)
        for t in draw_property_targets(ref, 50, seed=5):
            assert ranges.logp_lo - 1e-9 <= t.logp <= ranges.logp_hi + 1e-9
            assert ranges.sa_lo - 1e-9 <= t.sa <= ranges.sa_hi + 1e-9
            assert ranges.ring_lo - 1e-9 <= t.ring <= ranges.ring_hi + 1e-9


class TestLogpQed:
    def test_zero_qed_weight_reduces_to_unconstrained(self, ref):
        res = run_logp_qed(ref, EvolverConfig(population_size=30, generations=5,
                           seed=3), w_j=1.0, w_qed=0.0)
        base = run(EvolverConfig(population_size=30, generations=5, seed=3,
                                 schedule=BetaSchedule.const(0.0),
                                 use_discriminator=False), ref)
        assert [l.csv_row() for l in res.run.logs] == [l.csv_row() for l in base.logs]

    def test_tradeoff_witness(self, ref):
        res = run_logp_qed(ref, EvolverConfig(population_size=60, generations=25, seed=4))
        scatter = res.archive_scatter
        best_logp = max(scatter, key=lambda p: p[0])
        best_qed = max(scatter, key=lambda p: p[1])
        assert best_logp != best_qed

    def test_negative_weights_rejected(self, ref):
        with pytest.raises(ValueError):
            run_logp_qed(ref, EvolverConfig(population_size=10, generations=1, seed=0),
                         w_j=-1.0)

    def test_scatter_shapes(self, ref):
        res = run_logp_qed(ref, EvolverConfig(population_size=20, generations=3, seed=5))
        assert all(len(p) == 2 for p in res.archive_scatter)

    def test_edge_sampling_pilot(self):
        # pilot-derived seeded desk run: with strong drug-likeness weighting
        # the archive reaches past the reference distribution's qed edge
        # (99th percentile) while staying above the reference logp median
        from molga.cli import bundled_reference_path
        from molga.reference import load_reference

        bundle, _ = load_reference(bundled_reference_path())
        qeds = sorted(r.qed for r in bundle.records)
        logps = sorted(r.logp_raw for r in bundle.records)
        q99 = qeds[int(0.99 * len(qeds))]
        med = logps[len(logps) // 2]
        res = run_logp_qed(bundle, EvolverConfig(population_size=100,
                           generations=100, seed=0), w_j=1.0, w_qed=50.0)
        hits = [(lp, q) for lp, q in res.archive_scatter if q > q99 and lp > med]
        assert len(hits) >= 1


class TestRandomBaseline:
    def test_single_sample(self, ref):
        res = run_random_baseline(ref, 1, seed=0)
        assert res.max_j == pytest.approx(res.mean_j)
        assert res.n == 1

    def test_canonical_cap_respected(self, ref):
        res = run_random_baseline(ref, 50, seed=1)
        assert len(res.best_canonical) <= 81

    def test_right_tail_exists(self, ref):
        res = run_random_baseline(ref, 5000, seed=2)
        assert res.max_j > res.mean_j + 2 * res.std_j

    def test_deterministic(self, ref):
        a = run_random_baseline(ref, 100, seed=3)
        b = run_random_baseline(ref, 100, seed=3)
        assert a.max_j == b.max_j and a.best_canonical == b.best_canonical

    def test_rejects_zero(self, ref):
        with pytest.raises(ValueError):
            run_random_baseline(ref, 0)


class TestSummaryMatchesNumpy:
    """The random baseline's pure-Python summary against numpy, bit for bit.
    The lengths straddle the pairwise sum's 8-element unroll, its
    128-element block and numpy's 8,192-element buffer size; rounded
    values land on bin edges, and constant arrays take the widened range."""

    @staticmethod
    def _arrays(n: int, rng: random.Random):
        yield [rng.gauss(0.0, 2.0) for _ in range(n)]
        yield [rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-6, 6) for _ in range(n)]
        # + 0.0 makes -0.0 a plain zero: numpy's max picks between tied
        # zeros by its own loop order
        yield [round(rng.gauss(0.0, 1.5), 1) + 0.0 for _ in range(n)]
        yield [round(rng.uniform(-4.0, 6.0), 1) + 0.0 for _ in range(n)]
        yield [rng.choice([-2.75, 0.0, 0.1, 3.0])] * n

    @staticmethod
    def _check(values: list[float]) -> None:
        arr = np.array(values)
        counts, edges = np.histogram(arr, bins=50)
        assert tasks.histogram(values, 50) == (
            [int(c) for c in counts], [float(e) for e in edges])
        assert max(values) == float(arr.max())
        assert tasks.mean(values) == float(np.mean(arr))
        assert tasks.std(values) == float(np.std(arr))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 15_000])
    def test_boundary_lengths(self, n):
        rng = random.Random(n)
        for _ in range(4 if n < 1000 else 1):
            for values in self._arrays(n, rng):
                self._check(values)

    def test_random_lengths(self):
        rng = random.Random(18)
        for _ in range(40):
            for values in self._arrays(rng.randint(1, 3000), rng):
                self._check(values)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            tasks.histogram([0.0, math.inf], 50)


def structure(mol: MolecularGraph) -> tuple:
    return mol.elements, mol.bond_list


class TestSamplersMatchRendering:
    """The random baseline and the synthetic reference decide by canonical
    length bounds where they can; both must keep exactly the samples that
    rendering every canonical string keeps. At these tight caps the bounds
    settle some samples and leave others to the rendered string."""

    @pytest.mark.parametrize("cap", [6, 12])
    def test_random_baseline(self, ref, cap, monkeypatch):
        rng = random.Random(5)
        values, kept = [], []
        best_j, best, by_bound, rendered = -math.inf, None, 0, 0
        while len(values) < 400:
            genotype = random_genotype_per_symbol(rng, 100)
            mol = decode(genotype)
            if canonical_length_bounds(mol)[1] <= cap:
                by_bound += 1
            else:
                rendered += 1
            if len(mol.canonical()) > cap:
                continue
            j = penalized_logp(mol, ref.prop_stats).j
            values.append(j)
            kept.append(structure(mol))
            if j > best_j:
                best_j, best = j, (mol.canonical(), genotype.text())
        assert by_bound and rendered

        scored = []

        def recording(mol, stats):
            scored.append(structure(mol))
            return penalized_logp(mol, stats)

        monkeypatch.setattr(tasks, "penalized_logp", recording)
        res = run_random_baseline(ref, 400, seed=5, max_canonical_len=cap)
        counts, edges = np.histogram(values, bins=50)
        assert (res.max_j, res.mean_j, res.std_j) == (
            float(np.max(values)), float(np.mean(values)), float(np.std(values)))
        assert res.histogram_counts == [int(c) for c in counts]
        assert res.histogram_edges == [float(e) for e in edges]
        assert (res.best_canonical, res.best_genotype) == best
        assert scored == kept

    def test_synthetic_reference(self):
        rng = random.Random(9)
        kept, outcomes = [], set()
        while len(kept) < 300:
            mol = decode(random_genotype_per_symbol(rng, 60))
            lo, hi = canonical_length_bounds(mol)
            outcomes.add("out" if hi < 10 or lo > 14 else "in" if 10 <= lo and hi <= 14
                         else "straddles")
            if 10 <= len(mol.canonical()) <= 14:
                kept.append(structure(mol))
        assert outcomes == {"out", "in", "straddles"}
        built = synthetic_reference(300, seed=9, min_canonical=10, max_canonical=14)
        assert [structure(mol) for mol in built.graphs] == kept


class TestBetaSweep:
    def test_beta_zero_row_matches_unconstrained(self, ref):
        sweep = run_beta_sweep(ref, EvolverConfig(population_size=25,
                               generations=6, seed=9), [0.0], seeds_per_beta=1)
        base = run(EvolverConfig(population_size=25, generations=6,
                                 seed=9 * 1_000_003, schedule=BetaSchedule.const(0.0),
                                 use_discriminator=True), ref)
        assert sweep.rows[0].mean_j_trace == [l.mean_j for l in base.logs]
        assert sweep.rows[0].mean_d_trace == [l.mean_d for l in base.logs]

    def test_empty_betas_rejected(self, ref):
        with pytest.raises(ValueError):
            run_beta_sweep(ref, EvolverConfig(population_size=100, generations=60,
                                              seed=0), [])

    def test_row_shapes(self, ref):
        sweep = run_beta_sweep(ref, EvolverConfig(population_size=20, generations=4,
                               seed=0), [0.0, 5.0], seeds_per_beta=2)
        assert len(sweep.rows) == 2
        for row in sweep.rows:
            assert len(row.mean_j_trace) == 5


def _run_adaptive(ref, window, population_size, generations, seed):
    return run(EvolverConfig(population_size=population_size, generations=generations,
                             seed=seed, schedule=BetaSchedule(mode="adaptive", window=window),
                             use_discriminator=True), ref)


class TestAdaptive:
    def test_trigger_detection(self, ref):
        res = _run_adaptive(ref, window=3, population_size=25, generations=12,
                            seed=2)
        trig = first_trigger_generation(res, 1000.0)
        if 1000.0 in res.beta_trace:
            assert trig == res.beta_trace.index(1000.0)
        else:
            assert trig is None

    def test_beta_trace_values(self, ref):
        res = _run_adaptive(ref, window=4, population_size=25, generations=10, seed=3)
        assert set(res.beta_trace) <= {0.0, 1000.0}

    def test_archive_monotone_in_adaptive_mode(self, ref):
        res = _run_adaptive(ref, window=3, population_size=30, generations=15, seed=5)
        assert all(b >= a - 1e-12 for a, b in zip(res.best_trace, res.best_trace[1:]))
