import math
import random

import pytest

from molga import evolver
from molga.codec import Genotype, Symbol, decode, parse_genotype
from molga.discriminator import featurize
from molga.evolver import (
    Evolver,
    EvolverConfig,
    draw_mutation_kind,
    fitness,
    kill_probabilities,
    mutate,
    run,
)
from molga.graph import canonical
from molga.reference import synthetic_reference
from molga.schedules import BetaSchedule

from helpers import valence_ok


@pytest.fixture(scope="module")
def ref():
    return synthetic_reference(150, seed=42)


class TestFitness:
    def test_weighted_sum(self):
        assert fitness(2.0, 0.5, 10.0) == pytest.approx(7.0)

    def test_beta_zero_ignores_d(self):
        for d in (0.0, 0.3, 1.0):
            assert fitness(1.5, d, 0.0) == pytest.approx(1.5)

    def test_large_beta(self):
        assert fitness(0.0, 1.0, 1000.0) == pytest.approx(1000.0)


class TestFeatures:
    def test_individuals_sharing_a_graph_share_one_read_only_vector(self, ref):
        ev = Evolver(EvolverConfig(population_size=2, generations=0,
                                   schedule=BetaSchedule(low=0.0, high=0.0), seed=0), ref, None)
        a = ev._evaluate(parse_genotype("[C][C][Branch1][C][O][N]"))
        b = ev._evaluate(parse_genotype("[C][C][Branch1][C][O][N]"))
        assert a is not b and a.graph is b.graph
        assert featurize(a.graph) is featurize(b.graph)
        with pytest.raises(ValueError):
            featurize(a.graph)[0] = 0.5


class TestKillProbabilities:
    def test_median_rank_is_half(self):
        probs = kill_probabilities(list(range(11)), [0] * 11, 0)
        # fitness 5 is the median: normalized rank 0.5
        assert probs[5] == pytest.approx(0.5)

    def test_best_of_501(self):
        fits = list(range(501))
        probs = kill_probabilities(fits, [0] * 501, 0)
        assert probs[500] == pytest.approx(1 / (1 + math.exp(5.0)), rel=1e-9)

    def test_monotone_in_rank(self):
        fits = [random.Random(0).random() for _ in range(100)]
        probs = kill_probabilities(fits, [0] * 100, 0)
        ranked = sorted(range(100), key=lambda i: -fits[i])
        seq = [probs[i] for i in ranked]
        assert all(a <= b for a, b in zip(seq, seq[1:]))

    def test_single_member_never_killed(self):
        assert kill_probabilities([3.0], [0], 0) == [0.0]

    def test_tie_break_younger_first(self):
        # equal fitness: the younger individual gets the better (lower) rank
        probs = kill_probabilities([1.0, 1.0], ages=[5, 0], elite_count=0)
        assert probs[1] < probs[0]

    def test_elite_is_never_killed(self):
        fits = [0.5, 3.0, 1.0, 2.0, 0.0]
        probs = kill_probabilities(fits, [0] * 5, 2)
        # fitness 3.0 and 2.0 hold the two best ranks; the rest keep theirs
        assert probs[1] == probs[3] == 0.0
        rest = kill_probabilities(fits, [0] * 5, 0)
        assert [probs[i] for i in (0, 2, 4)] == [rest[i] for i in (0, 2, 4)]
        assert all(p > 0.0 for p in rest)


class TestMutate:
    def test_kind_distribution(self):
        rng = random.Random(0)
        counts = {"insert": 0, "replace": 0, "phenyl": 0}
        n = 10_000
        for _ in range(n):
            counts[draw_mutation_kind(rng)] += 1
        assert counts["insert"] / n == pytest.approx(0.48, abs=0.02)
        assert counts["replace"] / n == pytest.approx(0.48, abs=0.02)
        assert counts["phenyl"] / n == pytest.approx(0.04, abs=0.02)

    def test_output_always_decodes(self):
        rng = random.Random(1)
        g = Genotype(bytes((Symbol.C,)))
        for _ in range(500):
            g = mutate(g, rng, 81, 100)
            assert valence_ok(decode(g))
            assert len(decode(g).canonical()) <= 81

    def test_retry_exhaustion_returns_parent(self):
        # a genotype already at the canonical cap rejects every growth
        rng = random.Random(2)
        g = parse_genotype("[S]" * 81)
        assert len(decode(g).canonical()) == 81
        results = {mutate(g, rng, max_canonical_len=81, max_genotype_len=81).text()
                   for _ in range(30)}
        # replacements of S by another atom keep length; parent returns when
        # all ten draws fail; either way the cap holds
        for text in results:
            assert len(decode(parse_genotype(text)).canonical()) <= 81

    def test_hard_cap_returns_parent(self):
        rng = random.Random(3)
        g = parse_genotype("[F][F]")  # canonical "FF", length 2
        out = mutate(g, rng, max_canonical_len=2, max_genotype_len=2)
        # only same-length results are possible; often the parent itself
        assert len(decode(out).canonical()) <= 2

    def test_genotype_length_cap(self):
        rng = random.Random(4)
        g = parse_genotype("[C]" * 100)
        for _ in range(50):
            out = mutate(g, rng, max_canonical_len=81, max_genotype_len=100)
            assert len(out.symbols) <= 100


class TestStep:
    def test_all_methane_produces_mutants(self, ref):
        cfg = EvolverConfig(population_size=100, generations=1,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=0)
        result = run(cfg, ref)
        texts = {ind.canonical for ind in result.population}
        assert len(texts) > 1  # at least one accepted mutation

    def test_elite_retention_monotone_max_f(self, ref):
        cfg = EvolverConfig(population_size=60, generations=15,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=1)
        ev = Evolver(cfg, ref, None)
        ev.initialize()
        prev = ev.logs[-1].max_f
        for _ in range(15):
            ev.step(0.0)
            cur = ev.logs[-1].max_f
            assert cur >= prev - 1e-12
            prev = cur

    def test_population_size_invariant(self, ref):
        cfg = EvolverConfig(population_size=37, generations=5,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=2)
        result = run(cfg, ref)
        assert len(result.population) == 37

    def test_reference_sample_count(self, ref, monkeypatch):
        cfg = EvolverConfig(population_size=25, generations=1,
                            schedule=BetaSchedule(low=5.0, high=5.0),
                            use_discriminator=True, seed=3)
        ref_rows = []
        train = evolver.train

        def counting_train(model, ga_feats, ref_feats, rng):
            ref_rows.append(len(ref_feats))
            return train(model, ga_feats, ref_feats, rng=rng)

        monkeypatch.setattr(evolver, "train", counting_train)
        ev = Evolver(cfg, ref, None)
        ev.initialize()
        ev.step(5.0)
        assert ref_rows == [25]

    def test_ages_update(self, ref):
        cfg = EvolverConfig(population_size=30, generations=0,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=4)
        ev = Evolver(cfg, ref, None)
        ev.initialize()
        assert all(i.age == 0 for i in ev.population)
        log = ev.step(0.0)
        survivors = [i for i in ev.population if i.age == 1]
        fresh = [i for i in ev.population if i.age == 0]
        assert len(fresh) == log.n_replaced
        assert len(survivors) == 30 - log.n_replaced


class TestGenerationLog:
    @pytest.mark.parametrize("beta,objective", [
        (10.0, None),
        (0.0, lambda graph, record: record.j - 100),
    ])
    def test_max_f_is_the_best_fitness_of_the_logged_population(self, ref, beta, objective):
        cfg = EvolverConfig(population_size=30, generations=4,
                            schedule=BetaSchedule(low=beta, high=beta),
                            use_discriminator=beta > 0, seed=7)
        ev = Evolver(cfg, ref, objective)
        for gen in range(5):
            log = ev.step(beta) if gen else ev.initialize()
            assert log.max_f == pytest.approx(max(i.score + beta * i.d for i in ev.population))


class TestRun:
    def test_zero_generations_archive_is_methane(self, ref):
        cfg = EvolverConfig(population_size=10, generations=0,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=0)
        result = run(cfg, ref)
        assert len(result.archive) == 1
        assert result.archive_sorted()[0].canonical == "C"
        assert result.best_trace[-1] == pytest.approx(result.archive_sorted()[0].score)

    def test_fixed_seed_reproducible(self, ref):
        cfg = EvolverConfig(population_size=40, generations=10,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=7)
        r1 = run(cfg, ref)
        cfg2 = EvolverConfig(population_size=40, generations=10,
                             schedule=BetaSchedule(low=0.0, high=0.0), seed=7)
        r2 = run(cfg2, ref)
        assert [l.csv_row() for l in r1.logs] == [l.csv_row() for l in r2.logs]
        assert ([e.canonical for e in r1.archive_sorted()]
                == [e.canonical for e in r2.archive_sorted()])

    def test_reused_config_reproduces_adaptive_run(self):
        # the schedule keeps no state between runs, so a second run on the
        # same config object starts again at the low weight
        cfg = EvolverConfig(population_size=30, generations=25,
                            schedule=BetaSchedule(low=0.0, high=1000.0,
                                                  window=3, epsilon=0.5),
                            use_discriminator=True, seed=5)
        ref = synthetic_reference(150, seed=0)
        r1 = run(cfg, ref)
        r2 = run(cfg, ref)
        assert 1000.0 in r1.beta_trace and r1.beta_trace[0] == 0.0
        assert r2.beta_trace == r1.beta_trace
        assert [l.csv_row() for l in r2.logs] == [l.csv_row() for l in r1.logs]

    def test_archive_monotone(self, ref):
        cfg = EvolverConfig(population_size=50, generations=20,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=9)
        result = run(cfg, ref)
        assert all(b >= a - 1e-12 for a, b in zip(result.best_trace, result.best_trace[1:]))

    def test_archive_monotone_with_discriminator(self, ref):
        cfg = EvolverConfig(population_size=40, generations=12,
                            schedule=BetaSchedule(low=10.0, high=10.0),
                            use_discriminator=True, seed=10)
        result = run(cfg, ref)
        assert all(b >= a - 1e-12 for a, b in zip(result.best_trace, result.best_trace[1:]))

    def test_snapshots_collected(self, ref):
        cfg = EvolverConfig(population_size=20, generations=6,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=11,
                            snapshot_every=3)
        result = run(cfg, ref)
        assert sorted(result.snapshots) == [0, 3, 6]
        assert len(result.snapshots[3]) == 20

    def test_custom_initial_population(self, ref):
        seed_genotype = parse_genotype("[S][S][S][S]")
        cfg = EvolverConfig(population_size=12, generations=0,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=12,
                            initial_genotypes=[seed_genotype] * 12)
        result = run(cfg, ref)
        assert all(ind.canonical == "SSSS" for ind in result.population)

    def test_objective_override(self, ref):
        # maximize atom count instead of the property objective
        cfg = EvolverConfig(population_size=30, generations=10,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=13)
        result = run(cfg, ref, objective=lambda graph, record: graph.n_atoms)
        assert result.best_trace[-1] > 1

    def test_generation_log_csv_shape(self, ref):
        cfg = EvolverConfig(population_size=15, generations=3,
                            schedule=BetaSchedule(low=0.0, high=0.0), seed=14)
        result = run(cfg, ref)
        assert len(result.logs) == 4
        for log in result.logs:
            row = log.csv_row()
            assert len(row.split(",")) == 8
