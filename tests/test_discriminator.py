import json
import math
import random

import numpy as np
import pytest

from molga.codec import decode, random_genotype
from molga.discriminator import (
    LAYER_SIZES,
    N_FEATURES,
    DiscriminatorModel,
    FeatureStats,
    NonFiniteLoss,
    _max_chain_length,
    featurize,
    init_model,
    load_checkpoint,
    loss_and_gradients,
    predict,
    save_checkpoint,
    train,
)
from molga.graph import MolecularGraph, parse_smiles

from helpers import brute_force_diameter
from test_graph import permuted


class TestFeaturize:
    def test_methane(self):
        f = featurize(MolecularGraph(["C"], []))
        assert f.shape == (N_FEATURES,)
        assert f[0] == 1.0  # carbon fraction
        assert f[7] == 0.0 and f[8] == 0.0  # no rings
        assert f[11] == 0.0  # no heteroatoms
        assert f[10] == pytest.approx(1 / 50)

    def test_sulfur_chain(self):
        f = featurize(parse_smiles("S" * 8))
        assert f[3] == 1.0  # sulfur fraction
        assert f[10] == pytest.approx(8 / 50)
        assert f[11] == 1.0

    def test_isomorphic_graphs_identical(self):
        rng = random.Random(0)
        for _ in range(50):
            g = decode(random_genotype(rng, 40))
            assert np.array_equal(featurize(permuted(g, rng)), featurize(g))

    def test_all_finite(self):
        rng = random.Random(1)
        for _ in range(200):
            f = featurize(decode(random_genotype(rng, 50)))
            assert np.all(np.isfinite(f))


class TestMaxChainLength:
    # iFUB stops sweeping once twice a BFS level cannot beat the largest
    # eccentricity found; stopping one level early undercounts some
    # labellings of the ethyl cyclooctane, one decoded genotype and
    # reference molecules
    SHAPES = [
        "C1CCC1", "C1CCCC1", "C1CCCCC1", "C1CCCCCC1", "C1CCCCCCC1", "C1CCCCCCCC1",
        "C1CCC2CCCCC2C1", "C1CC2CCC1CC2", "C1CC2CC1C2", "C1CCC2CCCC2C1",
        "C1CCC2(C1)CCCC2", "C1CC2(C1)CCC2", "C1CCC2(CC1)CCCCC2",
        "C12C3C1C1C4C2C2C1C3C24",
        "CCCCCCC1CCC(CCCCCCC)CC1", "CCCCCC1CC(CCCCCCCC)C1", "CCCCC1CCCCCCC1CCCCCC",
        "CCC1CCCCCCC1",
    ]

    def assert_exact(self, g):
        assert _max_chain_length(g) == brute_force_diameter(g) + 1

    @pytest.mark.parametrize("smiles", SHAPES)
    def test_hand_built_shapes_relabelled(self, smiles):
        g = parse_smiles(smiles)
        rng = random.Random(len(smiles))
        self.assert_exact(g)
        for _ in range(20):
            self.assert_exact(permuted(g, rng))

    def test_decoded_random_genotypes(self):
        rng = random.Random(5)
        for _ in range(3000):
            self.assert_exact(decode(random_genotype(rng, 100)))

    def test_bundled_reference(self, bundled_reference):
        for g in bundled_reference.graphs:
            self.assert_exact(g)

    def test_keeps_no_adjacency_copy(self):
        g = parse_smiles("CCC1CCCCCCC1")
        self.assert_exact(g)
        assert g._cache == {}


class TestPredict:
    def test_zero_parameters_give_half(self):
        model = init_model(random.Random(0))
        for w in model.weights:
            w[:] = 0.0
        assert predict(model, np.zeros(N_FEATURES)) == pytest.approx(0.5)
        assert predict(model, np.ones(N_FEATURES)) == pytest.approx(0.5)

    def test_output_in_open_interval(self):
        model = init_model(random.Random(1))
        rng = np.random.RandomState(2)
        for _ in range(100):
            p = predict(model, rng.standard_normal(N_FEATURES) * 10)
            assert 0.0 < p < 1.0

    def test_dimension_mismatch_is_an_error(self):
        model = init_model(random.Random(0))
        with pytest.raises(ValueError):
            predict(model, np.zeros(N_FEATURES + 1))

    def test_batch_prediction_matches_single(self):
        model = init_model(random.Random(3))
        x = np.random.RandomState(0).standard_normal((5, N_FEATURES))
        batch = predict(model, x)
        singles = [predict(model, x[i]) for i in range(5)]
        assert np.allclose(batch, singles)

    def test_deterministic(self):
        model = init_model(random.Random(4))
        x = np.arange(N_FEATURES, dtype=float)
        assert predict(model, x) == predict(model, x)


def _blobs(n=200, seed=0):
    rng = np.random.RandomState(seed)
    a = rng.standard_normal((n, N_FEATURES)) * 0.5 - 2.0
    b = rng.standard_normal((n, N_FEATURES)) * 0.5 + 2.0
    return a, b


class TestTrain:
    def test_initial_loss_near_ln2(self):
        # untrained nets on normalized balanced data predict near 0.5;
        # averaged over inits to wash out the (convex) wobble above ln 2
        rs = np.random.RandomState(0)
        x = rs.standard_normal((400, N_FEATURES))
        y = np.concatenate([np.zeros(200), np.ones(200)])
        losses = []
        for seed in range(5):
            model = init_model(random.Random(seed))
            loss, _, _ = loss_and_gradients(model, x, y)
            losses.append(loss)
        assert np.mean(losses) == pytest.approx(math.log(2), abs=0.05)

    def test_loss_at_exactly_half_is_ln2(self):
        model = init_model(random.Random(0))
        for w in model.weights:
            w[:] = 0.0
        x = np.random.RandomState(3).standard_normal((64, N_FEATURES))
        y = np.concatenate([np.zeros(32), np.ones(32)])
        loss, _, _ = loss_and_gradients(model, x, y)
        assert loss == pytest.approx(math.log(2), abs=1e-9)

    def test_separable_blobs_reach_accuracy(self):
        a, b = _blobs()
        model = init_model(random.Random(0))
        train(model, a, b, epochs=10, rng=random.Random(1))
        pa = predict(model, a)
        pb = predict(model, b)
        acc = (np.sum(pa < 0.5) + np.sum(pb >= 0.5)) / (len(a) + len(b))
        assert acc >= 0.95

    def test_loss_trace_deterministic(self):
        a, b = _blobs()
        t1 = train(init_model(random.Random(7)), a, b, rng=random.Random(5))
        t2 = train(init_model(random.Random(7)), a, b, rng=random.Random(5))
        assert t1 == t2
        assert len(t1) == 10

    def test_empty_collection_rejected(self):
        model = init_model(random.Random(0))
        with pytest.raises(ValueError):
            train(model, np.zeros((0, N_FEATURES)), np.zeros((3, N_FEATURES)))

    def test_non_finite_loss_restores_parameters(self):
        a, b = _blobs(50)
        model = init_model(random.Random(0))
        model.weights[0][:] = np.inf
        before = [w.copy() for w in model.weights]
        # inf * 0 in the forward pass is the point of this test, not a warning
        with pytest.raises(NonFiniteLoss), np.errstate(invalid="ignore"):
            train(model, a, b, rng=random.Random(0))
        for w, prev in zip(model.weights, before):
            assert np.array_equal(w, prev)


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        rng = random.Random(11)
        model = init_model(rng)
        rs = np.random.RandomState(13)
        x = rs.standard_normal((24, N_FEATURES))
        y = (rs.random_sample(24) > 0.5).astype(float)
        _, gw, gb = loss_and_gradients(model, x, y)
        h = 1e-5
        checked = 0
        while checked < 100:
            layer = rs.randint(len(model.weights))
            if rs.random_sample() < 0.8:
                i = rs.randint(model.weights[layer].shape[0])
                j = rs.randint(model.weights[layer].shape[1])
                param, grad = model.weights[layer], gw[layer][i, j]
                idx = (i, j)
            else:
                i = rs.randint(model.biases[layer].shape[0])
                param, grad = model.biases[layer], gb[layer][i]
                idx = (i,)
            orig = param[idx]
            param[idx] = orig + h
            lp, _, _ = loss_and_gradients(model, x, y)
            param[idx] = orig - h
            lm, _, _ = loss_and_gradients(model, x, y)
            param[idx] = orig
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric), abs(grad), 1e-8)
            assert abs(numeric - grad) / denom < 1e-4, (layer, idx, numeric, grad)
            checked += 1


class TestStagnationMemory:
    def test_long_surviving_family_scores_decay(self):
        rng = random.Random(0)
        family = [parse_smiles("S" * k) for k in (8, 9, 10)]
        fam = np.stack([featurize(g) for g in family])
        ref_graphs = [decode(random_genotype(rng, 30)) for _ in range(60)]
        ref = np.stack([featurize(g) for g in ref_graphs])
        stats = FeatureStats.fit(np.concatenate([fam, ref]))
        model = init_model(rng, stats)
        ga = np.concatenate([fam] * 20)
        trace = []
        for _ in range(30):
            train(model, ga, ref, epochs=10, rng=rng)
            trace.append(float(np.mean(predict(model, fam))))
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9  # monotone decay, plateaus allowed
        assert trace[-1] < 0.1


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(5)
        model = init_model(rng, FeatureStats.identity())
        a, b = _blobs(40)
        train(model, a, b, epochs=2, rng=random.Random(1))
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        x = np.random.RandomState(9).standard_normal((7, N_FEATURES))
        assert np.allclose(predict(loaded, x), predict(model, x))
        assert loaded.step_count == model.step_count

    def test_dimension_validation(self, tmp_path):
        model = init_model(random.Random(0))
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path))
        doc = json.loads(path.read_text())
        doc["layer_sizes"] = [16, 8, 16, 1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_adam_moments_survive(self, tmp_path):
        a, b = _blobs(40)
        model = init_model(random.Random(5))
        train(model, a, b, epochs=2, rng=random.Random(1))
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        train(model, a, b, epochs=1, rng=random.Random(2))
        train(loaded, a, b, epochs=1, rng=random.Random(2))
        assert loaded.step_count == model.step_count
        assert np.array_equal(loaded.params, model.params)

    @pytest.mark.parametrize("key, value", [
        ("weights", [[[0.0] * 32] * 16, [[0.0] * 16] * 32]),  # a layer missing
        ("m_w", [[[0.0] * 3], [[0.0] * 16] * 32, [[0.0]] * 16]),
        ("v_b", []),
        ("feature_std", [1.0] * 15),
    ])
    def test_shape_validation(self, tmp_path, key, value):
        path = tmp_path / "model.json"
        save_checkpoint(init_model(random.Random(0)), str(path))
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_format_validation(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


class TestInit:
    def test_layer_sizes(self):
        model = init_model(random.Random(0))
        dims = [w.shape for w in model.weights]
        assert dims == [(16, 32), (32, 16), (16, 1)]
        assert LAYER_SIZES == (16, 32, 16, 1)

    def test_biases_zero_weights_bounded(self):
        model = init_model(random.Random(0))
        for b in model.biases:
            assert np.all(b == 0.0)
        for w, (fi, fo) in zip(model.weights, [(16, 32), (32, 16), (16, 1)]):
            bound = math.sqrt(6 / (fi + fo))
            assert np.all(np.abs(w) <= bound)

    def test_seeded_init_deterministic(self):
        m1 = init_model(random.Random(42))
        m2 = init_model(random.Random(42))
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_models_compare_by_identity(self):
        # a field-wise == would compare the numpy vectors and raise
        m1 = init_model(random.Random(0))
        m2 = init_model(random.Random(0))
        assert m1 == m1
        assert m1 != m2
