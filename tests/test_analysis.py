import itertools
import random

import numpy as np
import pytest

from molga.analysis import (
    DegenerateData,
    TooFewPoints,
    kmeans,
    mean_pairwise_tanimoto,
    pca2,
    snapshot_report,
    snapshot_rows_csv,
)
from molga.codec import decode, random_genotype
from molga.graph import fingerprint, tanimoto


class TestKmeans:
    def test_two_far_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        out = kmeans(pts, k=2, seed=0)
        assert out.inertia == pytest.approx(0.0)
        assert set(out.labels.tolist()) == {0, 1}

    def test_identical_points_one_cluster(self):
        pts = np.ones((8, 4))
        out = kmeans(pts, k=1, seed=0)
        assert out.inertia == pytest.approx(0.0)
        assert np.allclose(out.centroids[0], 1.0)

    def test_four_planted_blobs_recovered(self):
        rng = np.random.RandomState(0)
        centers = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        pts = np.concatenate([
            rng.standard_normal((50, 3)) * 0.1 + c for c in centers
        ])
        out = kmeans(pts, k=4, seed=3)
        truth = np.repeat(np.arange(4), 50)
        # exact recovery: every found cluster maps to exactly one blob
        for c in range(4):
            members = truth[out.labels == c]
            assert len(set(members.tolist())) == 1
        assert len(set(out.labels.tolist())) == 4

    def test_inertia_non_increasing(self):
        rng = np.random.RandomState(1)
        pts = rng.standard_normal((120, 8))
        out = kmeans(pts, k=6, seed=5)
        for a, b in zip(out.inertia_trace, out.inertia_trace[1:]):
            assert b <= a + 1e-9

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            kmeans(np.zeros((3, 2)), k=4)

    def test_deterministic(self):
        rng = np.random.RandomState(2)
        pts = rng.standard_normal((60, 5))
        a = kmeans(pts, k=4, seed=9)
        b = kmeans(pts, k=4, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.centroids, b.centroids)

    def test_centroid_is_member_mean(self):
        rng = np.random.RandomState(3)
        pts = rng.standard_normal((80, 4))
        out = kmeans(pts, k=5, seed=1)
        for c in range(5):
            members = pts[out.labels == c]
            if len(members):
                assert np.allclose(out.centroids[c], members.mean(axis=0), atol=1e-9)


class TestPca2:
    def test_line_in_2d(self):
        t = np.linspace(-1, 1, 50)
        pts = np.stack([t, 2 * t], axis=1)
        out = pca2(pts)
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(np.abs(out.axes[0]), expected, atol=1e-6)
        assert out.explained_variance[1] == pytest.approx(0.0, abs=1e-9)
        assert out.explained_ratio[0] == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_cloud_splits_evenly(self):
        rng = np.random.RandomState(0)
        pts = rng.standard_normal((10_000, 2))
        out = pca2(pts)
        assert out.explained_ratio[0] == pytest.approx(0.5, abs=0.05)
        assert out.explained_ratio[1] == pytest.approx(0.5, abs=0.05)

    def test_projections_are_centered(self):
        rng = np.random.RandomState(1)
        pts = rng.standard_normal((200, 6)) + 5.0
        out = pca2(pts)
        assert np.all(np.abs(out.coords.mean(axis=0)) < 1e-9)

    def test_axes_orthonormal(self):
        rng = np.random.RandomState(2)
        pts = rng.standard_normal((300, 16))
        out = pca2(pts)
        assert abs(np.dot(out.axes[0], out.axes[1])) < 1e-8
        assert np.linalg.norm(out.axes[0]) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.norm(out.axes[1]) == pytest.approx(1.0, abs=1e-8)

    def test_matches_brute_force_eigendecomposition(self):
        rng = np.random.RandomState(3)
        base = rng.standard_normal((400, 12))
        stretch = np.diag(np.linspace(3.0, 0.5, 12))
        pts = base @ stretch
        out = pca2(pts)
        cov = np.cov(pts.T, bias=True)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert out.explained_variance[0] == pytest.approx(eigvals[0], rel=1e-6)
        assert out.explained_variance[1] == pytest.approx(eigvals[1], rel=1e-6)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            pca2(np.ones((10, 3)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pca2(np.zeros((2, 3)))

    def test_sign_convention(self):
        rng = np.random.RandomState(4)
        pts = rng.standard_normal((100, 5)) * np.array([5, 1, 1, 1, 1])
        out = pca2(pts)
        for axis in out.axes:
            peak = np.argmax(np.abs(axis))
            assert axis[peak] > 0


class TestDiversity:
    def test_identical_population(self):
        fp = fingerprint(decode(random_genotype(random.Random(0), 20)))
        assert mean_pairwise_tanimoto([fp] * 10) == pytest.approx(1.0)

    def test_two_families(self):
        a = (1 << 40) - 1  # bits 0-39
        b = ((1 << 40) - 1) << 500  # bits 500-539
        # 20 pairs within a family at 1, 25 across at 0
        assert mean_pairwise_tanimoto([a] * 5 + [b] * 5) == pytest.approx(20 / 45)

    def test_diversity_one_iff_identical(self):
        rng = random.Random(1)
        fps = [fingerprint(decode(random_genotype(rng, 25))) for _ in range(12)]
        if len(set(fps)) > 1:
            assert mean_pairwise_tanimoto(fps) < 1.0

    def test_mean_of_pairwise_tanimoto(self):
        rng = random.Random(1)
        fps = [fingerprint(decode(random_genotype(rng, 25))) for _ in range(12)]
        pairs = list(itertools.combinations(fps, 2))
        expected = sum(tanimoto(a, b) for a, b in pairs) / len(pairs)
        assert mean_pairwise_tanimoto(fps) == pytest.approx(expected, rel=1e-12)

    def test_exact_for_many_fingerprints(self):
        rng = random.Random(2)
        base = [fingerprint(decode(random_genotype(rng, 30))) for _ in range(40)]
        fps = [base[rng.randrange(len(base))] for _ in range(1500)]
        assert mean_pairwise_tanimoto(fps) == pytest.approx(_exact_mean(fps), rel=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            mean_pairwise_tanimoto([0])


def _exact_mean(fps):
    # unpacked here, not by analysis.bit_matrix: a reference is not the code under test
    mat = np.array([[fp >> k & 1 for k in range(1024)] for fp in fps], dtype=np.float64)
    inter = mat @ mat.T
    ones = mat.sum(axis=1)
    union = ones[:, None] + ones[None, :] - inter
    iu = np.triu_indices(len(fps), k=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(union[iu] > 0, inter[iu] / union[iu], 1.0)
    return float(sims.mean())


class TestSnapshotReport:
    def _fake_snapshots(self, seed=0):
        rng = random.Random(seed)
        snaps = {}
        for gen in (0, 5, 10):
            rows = []
            for k in range(30):
                g = decode(random_genotype(rng, 25))
                rows.append((g.canonical(), float(k), fingerprint(g)))
            snaps[gen] = rows
        return snaps

    def test_rows_structure(self):
        rows = snapshot_report(self._fake_snapshots(), top_k=10, n_clusters=3, seed=1)
        assert len(rows) == 30  # 10 per snapshot
        gens = {r.generation for r in rows}
        assert gens == {0, 5, 10}
        for r in rows:
            assert 0 <= r.cluster < 3

    def test_top_k_selection(self):
        rows = snapshot_report(self._fake_snapshots(), top_k=5, n_clusters=2, seed=1)
        by_gen = {}
        for r in rows:
            by_gen.setdefault(r.generation, []).append(r.score)
        for scores in by_gen.values():
            assert sorted(scores) == [25.0, 26.0, 27.0, 28.0, 29.0]

    def test_deterministic_csv(self):
        a = snapshot_rows_csv(snapshot_report(self._fake_snapshots(), top_k=8, seed=2))
        b = snapshot_rows_csv(snapshot_report(self._fake_snapshots(), top_k=8, seed=2))
        assert a == b
        assert a.startswith("generation,canonical,score,cluster,pca_x,pca_y")

    def test_single_homogeneous_snapshot(self):
        g = decode(random_genotype(random.Random(3), 20))
        snaps = {0: [(g.canonical(), 1.0, fingerprint(g))] * 12}
        rows = snapshot_report(snaps, top_k=12, n_clusters=4, seed=0)
        assert len({r.cluster for r in rows}) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            snapshot_report({})
