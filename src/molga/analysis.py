"""Post-hoc population analysis.

K-means over fingerprint bit-vectors (treated as 0/1 reals), 2-component
PCA via power iteration, pairwise-Tanimoto diversity, and the per-snapshot
cluster/projection report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import MolgaError
from .graph import Fingerprint, tanimoto

KMEANS_MAX_ITER = 100
POWER_TOL = 1e-9
POWER_MAX_ITER = 1000


class TooFewPoints(MolgaError):
    """Fewer points than clusters requested."""


class DegenerateData(MolgaError):
    """PCA requested on data with zero total variance."""


@dataclass
class ClusterAssignment:
    centroids: np.ndarray  # (k, dim)
    labels: np.ndarray  # (n,)
    inertia: float
    inertia_trace: list[float]

    @property
    def k(self) -> int:
        return len(self.centroids)

    def n_nonempty(self) -> int:
        return len(set(self.labels.tolist()))


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # squared distances via expansion; ties go to the lowest cluster index
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    labels = np.argmin(d2, axis=1)
    return labels, np.maximum(d2[np.arange(len(points)), labels], 0.0)


def kmeans(points: np.ndarray, k: int = 20, seed: int = 0) -> ClusterAssignment:
    """Lloyd iterations from a k-means++ seeding.

    Runs to an assignment fixed point or KMEANS_MAX_ITER; empty clusters are
    re-seeded with the point farthest from its assigned centroid. The
    inertia trace is recorded per iteration and is non-increasing.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < k:
        raise TooFewPoints(f"{n} points for k={k}")
    rng = random.Random(seed)

    # k-means++ seeding
    centroids = [points[rng.randrange(n)]]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = float(d2.sum())
        if total <= 0.0:
            idx = rng.randrange(n)
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centroids.append(points[idx])
        d2 = np.minimum(d2, ((points - centroids[-1]) ** 2).sum(axis=1))
    centroids = np.array(centroids)

    labels, dist2 = _assign(points, centroids)
    trace: list[float] = [float(dist2.sum())]
    for _ in range(KMEANS_MAX_ITER):
        new_centroids = centroids.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                new_centroids[c] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(dist2))
                new_centroids[c] = points[far]
        new_labels, dist2 = _assign(points, new_centroids)
        trace.append(float(dist2.sum()))
        centroids = new_centroids
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return ClusterAssignment(centroids, labels, trace[-1], trace)


@dataclass
class Pca2:
    axes: np.ndarray  # (2, dim), orthonormal
    mean: np.ndarray
    coords: np.ndarray  # (n, 2)
    explained_variance: np.ndarray  # (2,) eigenvalues, decreasing
    explained_ratio: np.ndarray  # fractions of total variance

    def project(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.mean) @ self.axes.T


def _power_iteration(matvec, dim: int, seed: int = 0) -> tuple[np.ndarray, float]:
    rng = np.random.RandomState(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            # operator is (numerically) zero in this subspace
            return v, 0.0
        w /= norm
        if np.dot(w, v) < 0:
            w = -w
        done = np.linalg.norm(w - v) < POWER_TOL
        v = w
        lam = float(np.dot(v, matvec(v)))
        if done:
            break
    return v, lam


def pca2(points: np.ndarray, seed: int = 0) -> Pca2:
    """Top-2 principal axes by power iteration with deflation.

    Axes are sign-fixed so each one's largest-magnitude coordinate is
    positive; explained variance ratios come in decreasing order.
    """
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    if n < 3:
        raise ValueError("need at least 3 points")
    mean = points.mean(axis=0)
    x = points - mean
    total_var = float((x * x).sum() / n)
    if total_var <= 0.0:
        raise DegenerateData("total variance is zero")

    def cov_mv(v: np.ndarray) -> np.ndarray:
        return x.T @ (x @ v) / n

    a1, lam1 = _power_iteration(cov_mv, dim, seed=seed)

    def cov_mv_deflated(v: np.ndarray) -> np.ndarray:
        return cov_mv(v) - lam1 * a1 * np.dot(a1, v)

    a2, lam2 = _power_iteration(cov_mv_deflated, dim, seed=seed + 1)
    a2 = a2 - a1 * np.dot(a1, a2)
    norm2 = np.linalg.norm(a2)
    if norm2 > 1e-12:
        a2 /= norm2
    else:
        # degenerate second direction: any unit vector orthogonal to a1
        basis = np.eye(dim)
        idx = int(np.argmin(np.abs(a1)))
        a2 = basis[idx] - a1 * a1[idx]
        a2 /= np.linalg.norm(a2)
        lam2 = 0.0
    lam2 = max(lam2, 0.0)

    axes = []
    for a in (a1, a2):
        peak = int(np.argmax(np.abs(a)))
        axes.append(-a if a[peak] < 0 else a)
    axes = np.array(axes)
    ev = np.array([max(lam1, 0.0), lam2])
    return Pca2(
        axes=axes,
        mean=mean,
        coords=x @ axes.T,
        explained_variance=ev,
        explained_ratio=ev / total_var,
    )


EXACT_PAIR_LIMIT = 1000
SAMPLED_PAIRS = 100_000


@dataclass
class DiversityReport:
    mean_pairwise_tanimoto: float
    n_clusters: int
    exact: bool


def mean_pairwise_tanimoto(fps: list[Fingerprint], seed: int = 0) -> tuple[float, bool]:
    """Exact mean over all pairs up to EXACT_PAIR_LIMIT molecules, otherwise
    a seeded sample of SAMPLED_PAIRS distinct index pairs."""
    n = len(fps)
    if n < 2:
        raise ValueError("need at least 2 fingerprints")
    if n <= EXACT_PAIR_LIMIT:
        mat = np.stack([fp.to_array() for fp in fps])
        inter = mat @ mat.T
        ones = mat.sum(axis=1)
        union = ones[:, None] + ones[None, :] - inter
        iu = np.triu_indices(n, k=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(union[iu] > 0, inter[iu] / union[iu], 1.0)
        return float(sims.mean()), True
    rng = random.Random(seed)
    total = 0.0
    for _ in range(SAMPLED_PAIRS):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        total += tanimoto(fps[i], fps[j])
    return total / SAMPLED_PAIRS, False


def diversity(fps: list[Fingerprint], k: int = 20, seed: int = 0) -> DiversityReport:
    """Population diversity: mean pairwise Tanimoto plus the number of
    non-empty clusters at k (capped at the population size)."""
    mean_sim, exact = mean_pairwise_tanimoto(fps, seed)
    k_eff = min(k, len(fps))
    assign = kmeans(np.stack([fp.to_array() for fp in fps]), k=k_eff, seed=seed)
    return DiversityReport(mean_sim, assign.n_nonempty(), exact)


@dataclass
class SnapshotRow:
    generation: int
    canonical: str
    score: float
    cluster: int
    x: float
    y: float


def snapshot_report(snapshots: dict[int, list[tuple[str, float, Fingerprint]]],
                    top_k: int = 50, n_clusters: int = 20,
                    seed: int = 0) -> list[SnapshotRow]:
    """Cluster the top molecules of each snapshot generation and project
    them onto PCA axes fitted on the union of all snapshots.

    `snapshots` maps generation -> (canonical, score, fingerprint) tuples.
    """
    if not snapshots:
        raise ValueError("no snapshots given")
    selected: dict[int, list[tuple[str, float, Fingerprint]]] = {}
    for gen, rows in sorted(snapshots.items()):
        ranked = sorted(rows, key=lambda r: (-r[1], r[0]))
        selected[gen] = ranked[:top_k]
    all_fps = [fp for rows in selected.values() for (_, _, fp) in rows]
    mat = np.stack([fp.to_array() for fp in all_fps])
    try:
        proj = pca2(mat, seed=seed)
        coords = proj.coords
    except DegenerateData:
        coords = np.zeros((len(all_fps), 2))
    out: list[SnapshotRow] = []
    base = 0
    for gen, rows in sorted(selected.items()):
        fps = [fp for (_, _, fp) in rows]
        k_eff = min(n_clusters, len(fps))
        assign = kmeans(np.stack([fp.to_array() for fp in fps]), k=k_eff, seed=seed)
        for i, (canon, score, _) in enumerate(rows):
            out.append(SnapshotRow(
                generation=gen, canonical=canon, score=score,
                cluster=int(assign.labels[i]),
                x=float(coords[base + i, 0]), y=float(coords[base + i, 1]),
            ))
        base += len(rows)
    return out


SNAPSHOT_CSV_HEADER = "generation,canonical,score,cluster,pca_x,pca_y"


def snapshot_rows_csv(rows: list[SnapshotRow]) -> str:
    lines = [SNAPSHOT_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.generation},{r.canonical},{r.score:.6f},{r.cluster},"
                     f"{r.x:.6f},{r.y:.6f}")
    return "\n".join(lines) + "\n"
