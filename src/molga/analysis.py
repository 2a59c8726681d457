"""Post-hoc population analysis.

K-means over fingerprint bit-vectors (treated as 0/1 reals), 2-component
PCA by eigendecomposition of the covariance, pairwise-Tanimoto diversity,
and the per-snapshot cluster/projection report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import MolgaError
from .graph import FP_BITS

KMEANS_MAX_ITER = 100


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
    coords: np.ndarray  # (n, 2)
    explained_variance: np.ndarray  # (2,) eigenvalues, decreasing
    explained_ratio: np.ndarray  # fractions of total variance


def pca2(points: np.ndarray) -> Pca2:
    """Top-2 principal axes from one eigendecomposition of the covariance.

    Axes are sign-fixed so each one's largest-magnitude coordinate is
    positive; explained variance ratios come in decreasing order.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 3:
        raise ValueError("need at least 3 points")
    x = points - points.mean(axis=0)
    total_var = float((x * x).sum() / n)
    if total_var <= 0.0:
        raise DegenerateData("total variance is zero")
    # eigh returns eigenvalues in increasing order
    eigvals, eigvecs = np.linalg.eigh(x.T @ x / n)
    ev = np.maximum(eigvals[:-3:-1], 0.0)
    axes = eigvecs[:, :-3:-1].T
    for a in axes:
        if a[np.argmax(np.abs(a))] < 0:
            a *= -1.0
    return Pca2(
        axes=axes,
        coords=x @ axes.T,
        explained_variance=ev,
        explained_ratio=ev / total_var,
    )


def bit_matrix(fps: list[int]) -> np.ndarray:
    """One 0/1 float64 row of FP_BITS columns per fingerprint; bit k is column k."""
    raw = np.frombuffer(b"".join(fp.to_bytes(FP_BITS // 8, "little") for fp in fps), np.uint8)
    return np.unpackbits(raw.reshape(len(fps), FP_BITS // 8), axis=1,
                         bitorder="little").astype(np.float64)


def mean_pairwise_tanimoto(fps: list[int]) -> float:
    """Exact mean Tanimoto similarity over all pairs of fingerprints."""
    n = len(fps)
    if n < 2:
        raise ValueError("need at least 2 fingerprints")
    mat = bit_matrix(fps)
    inter = mat @ mat.T
    ones = mat.sum(axis=1)
    union = ones[:, None] + ones[None, :] - inter
    iu = np.triu_indices(n, k=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(union[iu] > 0, inter[iu] / union[iu], 1.0)
    return float(sims.mean())


@dataclass
class SnapshotRow:
    generation: int
    canonical: str
    score: float
    cluster: int
    x: float
    y: float


def snapshot_report(snapshots: dict[int, list[tuple[str, float, int]]],
                    top_k: int = 50, n_clusters: int = 20,
                    seed: int = 0) -> list[SnapshotRow]:
    """Cluster the top molecules of each snapshot generation and project
    them onto PCA axes fitted on the union of all snapshots.

    `snapshots` maps generation -> (canonical, score, fingerprint) tuples.
    """
    if not snapshots:
        raise ValueError("no snapshots given")
    selected: dict[int, list[tuple[str, float, int]]] = {}
    for gen, rows in sorted(snapshots.items()):
        ranked = sorted(rows, key=lambda r: (-r[1], r[0]))
        selected[gen] = ranked[:top_k]
    all_fps = [fp for rows in selected.values() for (_, _, fp) in rows]
    mat = bit_matrix(all_fps)
    try:
        proj = pca2(mat)
        coords = proj.coords
    except DegenerateData:
        coords = np.zeros((len(all_fps), 2))
    out: list[SnapshotRow] = []
    base = 0
    for gen, rows in sorted(selected.items()):
        k_eff = min(n_clusters, len(rows))
        assign = kmeans(mat[base:base + len(rows)], k=k_eff, seed=seed)
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
