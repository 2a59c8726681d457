import pytest

from molga.schedules import BetaSchedule, next_beta


@pytest.mark.acceptance
class TestEndToEndRecovery:
    # Pilot-confirmed seeded reproduction of the full adaptive-penalty
    # pattern: the weight trigger fires, the population's best objective
    # value collapses under the high weight, and the best-ever value ends
    # above the level at which the first trigger fired. Seed 8 was found by
    # scanning seeds 0-8 at this configuration; the scramble-then-recover
    # pattern is bistable per seed (a too-early scramble can trap the run
    # below its old best), so the exhibiting seed is frozen.
    def test_trigger_drop_and_recovery(self, fresh_sample_reference):
        from collections import Counter

        from molga.analysis import bit_matrix, kmeans
        from molga.codec import decode, parse_genotype
        from molga.evolver import EvolverConfig, run

        ref = fresh_sample_reference
        cfg = EvolverConfig(population_size=250, generations=300,
                            schedule=BetaSchedule(low=0.0, high=1000.0,
                                                  window=12, epsilon=0.75),
                            use_discriminator=True, seed=8,
                            max_canonical_len=45, max_genotype_len=50,
                            snapshot_every=5)
        result = run(cfg, ref)
        edges = [i for i, (a, b) in enumerate(zip(result.beta_trace,
                                                  result.beta_trace[1:]), start=1)
                 if a == 0.0 and b == 1000.0]
        assert edges, "no trigger fired"
        first = edges[0]
        max_j = [log.max_j for log in result.logs]
        post = max_j[first:]
        biggest_drop = max(post[i] - min(post[i:]) for i in range(len(post)))
        assert biggest_drop > 0.05, "population max-j never dropped after the trigger"
        assert result.best_trace[-1] > result.best_trace[first]

        # the scramble moves the population: the top-50 before the trigger
        # and well after it concentrate in different clusters of a joint
        # k-means over their fingerprints
        pre_gen = max(g for g in result.snapshots if g < first)
        post_gen = min(g for g in result.snapshots if g >= first + 10)

        def top50(gen):
            rows = sorted(result.snapshots[gen], key=lambda r: -r[1])[:50]
            return [decode(parse_genotype(gt)).fingerprint() for gt, _ in rows]

        pts = bit_matrix(top50(pre_gen) + top50(post_gen))
        out = kmeans(pts, k=20, seed=0)
        pre_major = Counter(out.labels[:50].tolist()).most_common(1)[0][0]
        post_major = Counter(out.labels[50:].tolist()).most_common(1)[0][0]
        assert pre_major != post_major


class TestConstant:
    def test_always_returns_constant(self):
        s = BetaSchedule(low=10.0, high=10.0)
        history = []
        for gen in range(25):
            assert next_beta(s, history) == 10.0
            history.append(float(gen))

    @pytest.mark.parametrize("history", [
        [],
        [5.0] * 30,  # stagnates for longer than the window
        [float(gen) for gen in range(30)],  # improves every generation
    ])
    def test_equal_levels_give_a_constant_schedule(self, history):
        s = BetaSchedule(low=7.5, high=7.5, window=3)
        assert next_beta(s, history) == 7.5


class TestAdaptive:
    def test_flat_history_triggers_high(self):
        s = BetaSchedule(low=0.0, high=1000.0, window=20)
        history = []
        betas = []
        for _ in range(25):
            betas.append(next_beta(s, history))
            history.append(5.0)  # never improves
        assert betas[0] == 0.0
        assert betas[-1] == 1000.0
        # exactly window non-improving generations precede the first high
        first_high = betas.index(1000.0)
        assert first_high == 21  # gen0 sets the baseline; 20 stagnant gens follow

    def test_release_on_improvement(self):
        s = BetaSchedule(window=3)
        history = []
        betas = []
        values = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
        for v in values:
            betas.append(next_beta(s, history))
            history.append(v)
        # trigger after 3 stagnant gens, release right after the improvement
        assert 1000.0 in betas
        idx = betas.index(1000.0)
        # improvement enters history at gen 6; the next call returns low
        assert betas[idx:] == [1000.0] * (7 - idx) + [0.0] * (len(betas) - 7)

    def test_epsilon_filters_tiny_improvements(self):
        s = BetaSchedule(window=2, epsilon=1e-3)
        history = []
        betas = []
        # improvements below epsilon must not reset the stagnation counter
        values = [1.0, 1.0 + 5e-4, 1.0 + 9e-4]
        for v in values:
            betas.append(next_beta(s, history))
            history.append(v)
        assert next_beta(s, history) == 1000.0

    def test_trace_structure(self):
        # every low->high edge is preceded by >= window stagnant generations;
        # every high->low edge is preceded by a strict improvement
        s = BetaSchedule(window=4, epsilon=1e-3)
        history = []
        betas = []
        values = [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3]
        for v in values:
            betas.append(next_beta(s, history))
            history.append(float(v))
        for t in range(1, len(betas)):
            if betas[t - 1] == s.low and betas[t] == s.high:
                window = history[t - s.window : t]
                base = history[t - s.window - 1]
                assert all(v <= base + s.epsilon for v in window)
            if betas[t - 1] == s.high and betas[t] == s.low:
                assert history[t - 1] > max(history[: t - 1]) + s.epsilon