"""The GA generation's mutation, archive update and discriminator training
against frozen copies of the straightforward versions they replaced.

The references render every mutation candidate to check its length, read
every child's canonical string when updating the archive, and train with a
fancy-index gather, `np.mean`, a masked sigmoid, a concatenated gradient
and fresh Adam temporaries on every step. The code in `molga` must give the
same children, the same archives and bit-equal models, and consume the RNG
stream identically.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from molga import codec, discriminator, evolver, graph
from molga.codec import N_SYMBOLS, PHENYL_SYMBOLS, Genotype, Symbol, decode, random_genotype
from molga.discriminator import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_STEP,
    BATCH_SIZE,
    EPOCHS,
    N_FEATURES,
    FeatureStats,
    NonFiniteLoss,
    init_model,
    loss_and_gradients,
    predict,
    train,
)
from molga.evolver import (
    MUTATION_RETRIES,
    ArchiveEntry,
    Evolver,
    EvolverConfig,
    Individual,
    draw_mutation_kind,
    mutate,
    run,
)
from molga.props import NormStats, penalized_logp
from molga.reference import synthetic_reference

# ---------------------------------------------------------------------------
# Reference copies
# ---------------------------------------------------------------------------


def reference_mutate(g: Genotype, rng: random.Random, max_canonical_len: int = 81,
                     max_genotype_len: int = 100) -> Genotype:
    symbols = list(g.symbols)
    for _ in range(MUTATION_RETRIES):
        kind = draw_mutation_kind(rng)
        if kind == "phenyl":
            pos = rng.randint(0, len(symbols))
            cand = symbols[:pos] + list(PHENYL_SYMBOLS) + symbols[pos:]
        elif kind == "insert":
            pos = rng.randint(0, len(symbols))
            sym = Symbol(rng.randrange(N_SYMBOLS))
            cand = symbols[:pos] + [sym] + symbols[pos:]
        else:
            pos = rng.randrange(len(symbols))
            sym = Symbol(rng.randrange(N_SYMBOLS))
            cand = list(symbols)
            cand[pos] = sym
        if len(cand) > max_genotype_len:
            continue
        child = Genotype(bytes(cand))
        if len(decode(child).canonical()) <= max_canonical_len:
            return child
    return g


def reference_update_archive(archive: dict[str, ArchiveEntry], individuals, archive_k: int):
    archive = dict(archive)
    for ind in individuals:
        cur = archive.get(ind.canonical)
        if cur is None or ind.score > cur.score:
            archive[ind.canonical] = ArchiveEntry(
                ind.canonical, ind.genotype.text(), ind.score, ind.record)
    if len(archive) > archive_k:
        keep = sorted(archive.values(), key=lambda e: (-e.score, e.canonical))
        archive = {e.canonical: e for e in keep[:archive_k]}
    return archive


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_forward(model, x):
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = _reference_sigmoid(z) if k == last else np.maximum(z, 0.0)
        acts.append(h)
    return h[:, 0], acts


def reference_loss_and_gradients(model, x, y):
    p, acts = _reference_forward(model, x)
    n = len(y)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    grad_w, grad_b = [], []
    delta = ((p - y) / n)[:, None]
    for k in range(len(model.weights) - 1, -1, -1):
        grad_w.append(acts[k].T @ delta)
        grad_b.append(delta.sum(axis=0))
        if k > 0:
            delta = (delta @ model.weights[k].T) * (acts[k] > 0)
    return loss, grad_w[::-1], grad_b[::-1]


def _reference_adam_update(model, grad):
    model.step_count += 1
    t = model.step_count
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    m, v = model.m, model.v
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grad * grad
    model.params -= ADAM_STEP * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


def reference_train(model, ga_samples, ref_samples, epochs=EPOCHS, rng=None):
    x = np.concatenate([np.asarray(ga_samples, dtype=np.float64),
                        np.asarray(ref_samples, dtype=np.float64)])
    y = np.concatenate([np.zeros(len(ga_samples)), np.ones(len(ref_samples))])
    x = (x - model.feature_stats.mean) / model.feature_stats.std
    saved = (model.params.copy(), model.m.copy(), model.v.copy(), model.step_count)
    indices = list(range(len(y)))
    losses = []
    for _ in range(epochs):
        if rng is not None:
            rng.shuffle(indices)
        total = 0.0
        for lo in range(0, len(indices), BATCH_SIZE):
            batch = indices[lo : lo + BATCH_SIZE]
            loss, gw, gb = reference_loss_and_gradients(model, x[batch], y[batch])
            if not math.isfinite(loss):
                model.params[:], model.m[:], model.v[:], model.step_count = saved
                raise NonFiniteLoss(f"loss became {loss}")
            _reference_adam_update(model, np.concatenate([g.ravel() for g in gw + gb]))
            total += loss * len(batch)
        losses.append(total / len(indices))
    return losses


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------


class TestMutate:
    def test_same_child_and_stream_as_rendering_every_candidate(self, monkeypatch):
        decided = {"accept": 0, "reject": 0, "render": 0}
        current_cap = [0]
        bounds = graph.canonical_length_bounds

        def recording_bounds(g):
            lo, hi = bounds(g)
            cap = current_cap[0]
            decided["accept" if hi <= cap else "reject" if lo > cap else "render"] += 1
            return lo, hi

        monkeypatch.setattr(graph, "canonical_length_bounds", recording_bounds)
        for seed in range(150):
            draw = random.Random(seed)
            parent = random_genotype(draw, 99)
            for cap in (*range(10, 81, 8), 81):
                current_cap[0] = cap
                # mutated first: a reference render would fill the shared memo
                rng_new, rng_ref = random.Random(1000 + seed), random.Random(1000 + seed)
                child = mutate(parent, rng_new, cap, 100)
                expected = reference_mutate(parent, rng_ref, cap)
                assert child.symbols == expected.symbols, (seed, cap)
                assert rng_new.getstate() == rng_ref.getstate(), (seed, cap)
        # every branch of the length decision ran
        assert min(decided.values()) >= 50, decided

    def test_genotype_length_cap(self):
        parent = Genotype(bytes((Symbol.C,) * 100))
        for seed in range(20):
            rng_new, rng_ref = random.Random(seed), random.Random(seed)
            child = mutate(parent, rng_new, 81, max_genotype_len=100)
            assert child.symbols == reference_mutate(parent, rng_ref, 81, 100).symbols
            assert rng_new.getstate() == rng_ref.getstate()


# ---------------------------------------------------------------------------
# Archive update
# ---------------------------------------------------------------------------


def _individuals(rng: random.Random, pool: list[Genotype], n: int) -> list[Individual]:
    out = []
    for _ in range(n):
        gt = rng.choice(pool)
        mol = decode(gt)
        # few distinct scores, so ties at the archive's lowest entry are common
        score = rng.choice((-1.0, 0.0, 0.25, 0.5, 1.0, 2.0))
        record = penalized_logp(mol, NormStats(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
        out.append(Individual(genotype=gt, graph=mol, record=record, score=score))
    return out


class TestUpdateArchive:
    def test_same_archive_on_random_inputs(self):
        rng = random.Random(3)
        # several genotypes per structure: duplicate canonicals with other texts
        pool = [random_genotype(rng, 12) for _ in range(40)]
        pool += [Genotype(gt.symbols + bytes((Symbol.BRANCH1,))) for gt in pool[:20]]
        for trial in range(300):
            k = rng.choice((1, 2, 3, 5, 8))
            archiver = SimpleNamespace(config=EvolverConfig(archive_k=k), archive={})
            expected: dict = {}
            for _ in range(6):
                batch = _individuals(rng, pool, rng.randint(1, 12))
                Evolver._update_archive(archiver, batch)
                expected = reference_update_archive(expected, batch, k)
                assert archiver.archive == expected, trial

    def test_child_below_a_full_archive_is_not_rendered(self, monkeypatch):
        rng = random.Random(8)
        pool = [random_genotype(rng, 12) for _ in range(10)]
        archiver = SimpleNamespace(config=EvolverConfig(archive_k=3), archive={})
        Evolver._update_archive(archiver, _individuals(rng, pool, 10))
        assert len(archiver.archive) == 3
        floor = min(e.score for e in archiver.archive.values())
        low = [ind for ind in _individuals(rng, pool, 30) if ind.score < floor]
        assert low
        rendered = []
        monkeypatch.setattr(Individual, "canonical",
                            property(lambda ind: rendered.append(ind) or ind.graph.canonical()))
        before = dict(archiver.archive)
        Evolver._update_archive(archiver, low)
        assert rendered == []
        assert archiver.archive == before


# ---------------------------------------------------------------------------
# Discriminator training
# ---------------------------------------------------------------------------


def _samples(seed: int, n_ga: int, n_ref: int):
    rs = np.random.RandomState(seed)
    ga = rs.standard_normal((n_ga, N_FEATURES)) * 1.5
    ref = rs.standard_normal((n_ref, N_FEATURES)) + 0.7
    return ga, ref, FeatureStats.fit(np.concatenate([ga, ref]))


def _pair(seed: int, stats: FeatureStats):
    return init_model(random.Random(seed), stats), init_model(random.Random(seed), stats)


def _assert_same_model(a, b):
    for name in ("params", "m", "v"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.step_count == b.step_count


class TestTrain:
    # sample counts that leave a short last batch, and one that does not
    @pytest.mark.parametrize("seed,n_ga,n_ref", [(0, 50, 45), (1, 500, 500), (2, 17, 3),
                                                 (3, 64, 64), (4, 1, 1), (5, 130, 71)])
    def test_bit_equal_to_reference(self, seed, n_ga, n_ref, monkeypatch):
        ga, ref, stats = _samples(seed, n_ga, n_ref)
        model, expected = _pair(seed, stats)
        rng, rng_ref = random.Random(seed), random.Random(seed)
        for epochs in (EPOCHS, 3, EPOCHS):  # continued training: Adam state carries over
            monkeypatch.setattr(discriminator, "EPOCHS", epochs)
            losses = train(model, ga, ref, rng=rng)
            assert losses == reference_train(expected, ga, ref, epochs=epochs, rng=rng_ref)
            _assert_same_model(model, expected)
            assert rng.getstate() == rng_ref.getstate()
        assert np.array_equal(predict(model, ga), _reference_forward(
            expected, (ga - stats.mean) / stats.std)[0])

    def test_loss_and_gradients_bit_equal(self):
        ga, ref, stats = _samples(11, 24, 0)
        model = init_model(random.Random(11), stats)
        y = (np.random.RandomState(12).random_sample(24) > 0.5).astype(float)
        loss, gw, gb = loss_and_gradients(model, ga, y)
        ref_loss, ref_gw, ref_gb = reference_loss_and_gradients(model, ga, y)
        assert loss == ref_loss
        for got, want in zip(gw + gb, ref_gw + ref_gb):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("poison", ["inf_weights", "nan_sample"])
    def test_non_finite_path(self, poison, monkeypatch):
        ga, ref, stats = _samples(13, 90, 80)
        model, expected = _pair(13, stats)
        rng, rng_ref = random.Random(4), random.Random(4)
        monkeypatch.setattr(discriminator, "EPOCHS", 2)
        train(model, ga, ref, rng=rng)  # a trained entry state
        monkeypatch.setattr(discriminator, "EPOCHS", EPOCHS)
        reference_train(expected, ga, ref, epochs=2, rng=rng_ref)
        if poison == "inf_weights":
            model.weights[0][:] = np.inf
            expected.weights[0][:] = np.inf
        else:
            ga = ga.copy()
            ga[57, 3] = np.nan
        entry = model.params.copy(), model.m.copy(), model.v.copy(), model.step_count
        # inf * 0 in the forward pass is the point of this test, not a warning
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLoss) as got:
                train(model, ga, ref, rng=rng)
            with pytest.raises(NonFiniteLoss) as want:
                reference_train(expected, ga, ref, rng=rng_ref)
        assert str(got.value) == str(want.value)
        assert np.array_equal(model.params, entry[0])
        assert np.array_equal(model.m, entry[1])
        assert np.array_equal(model.v, entry[2])
        assert model.step_count == entry[3]
        _assert_same_model(model, expected)
        assert rng.getstate() == rng_ref.getstate()


# ---------------------------------------------------------------------------
# How many strings a run renders
# ---------------------------------------------------------------------------


class TestRenderCount:
    def test_small_seeded_run(self, monkeypatch):
        """Pinned: a later change that reads every member's canonical string
        (or renders every mutation candidate again) moves this count."""
        ref = synthetic_reference(150, seed=42)
        monkeypatch.setattr(codec, "_graphs", {})  # no string rendered by an earlier test
        renders = []
        canonical_string = graph._canonical_string
        monkeypatch.setattr(graph, "_canonical_string",
                            lambda g: renders.append(g) or canonical_string(g))
        result = run(EvolverConfig(population_size=60, generations=8, archive_k=10,
                                   use_discriminator=True, seed=5), ref)
        assert len(result.archive) == 10
        assert len(renders) == RENDERS_PINNED


RENDERS_PINNED = 29
