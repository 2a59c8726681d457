"""Feature extraction and the online-trained discriminator network.

A small fully connected net (16 -> 32 -> 16 -> 1, ReLU hidden, sigmoid out)
is retrained every generation to separate GA-proposed molecules (label 0)
from reference molecules (label 1); its score enters the fitness with
weight beta. It is never reinitialized, so families that survive many
generations accumulate training signal against them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MolgaError
from .graph import MolecularGraph
from .props import logp_raw, qed, sa_raw

N_FEATURES = 16
LAYER_SIZES = (16, 32, 16, 1)

ADAM_STEP = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BATCH_SIZE = 32
EPOCHS = 10


class NonFiniteLoss(MolgaError):
    """Training produced a non-finite loss; parameters were restored."""


def _bfs_levels(adj: list[list[int]], src: int) -> list[int]:
    levels = [-1] * len(adj)
    levels[src] = 0
    queue = [src]
    depth = 0
    while queue:
        nxt = []
        depth += 1
        for u in queue:
            for v in adj[u]:
                if levels[v] < 0:
                    levels[v] = depth
                    nxt.append(v)
        queue = nxt
    return levels


def _max_chain_length(g: MolecularGraph) -> int:
    """Longest shortest path, counted in atoms (graph diameter + 1).

    Trees use the exact double-BFS shortcut. Cyclic graphs use iFUB
    (Crescenzi et al. 2013): BFS from the midpoint of the double-sweep
    path, then take eccentricities of its fringe by decreasing level. Two
    nodes at most k levels from the midpoint are at most 2k apart, so the
    sweep stops once 2k cannot beat the largest eccentricity found. Exact
    either way.
    """
    n = g.n_atoms
    adj = g.int_adjacency()
    lev0 = _bfs_levels(adj, 0)
    a = lev0.index(max(lev0))
    lev_a = _bfs_levels(adj, a)
    lb = max(lev_a)
    if len(g.bonds) == n - 1:  # tree: double BFS is exact
        return lb + 1
    # walk back from the far end b towards a to the path's midpoint
    mid = lev_a.index(lb)
    for depth in range(lb - 1, lb // 2 - 1, -1):
        mid = next(v for v in adj[mid] if lev_a[v] == depth)
    levels = _bfs_levels(adj, mid)
    for v in sorted(range(n), key=lambda i: -levels[i]):
        if 2 * levels[v] <= lb:
            break
        ecc = max(_bfs_levels(adj, v))
        if ecc > lb:
            lb = ecc
    return lb + 1


def featurize(g: MolecularGraph) -> np.ndarray:
    """16-dimensional topological/property descriptor vector, computed once
    per graph. Read-only: every individual holding the graph shares it."""
    return g.memo("features", _featurize)


def _featurize(g: MolecularGraph) -> np.ndarray:
    n = g.n_atoms
    counts = {el: 0 for el in ("C", "N", "O", "S", "P", "F")}
    for el in g.elements:
        counts[el] += 1
    basis = g.ring_basis()
    n_rings = len(basis)
    n_large = sum(1 for cyc in basis if len(cyc) > 6)
    n_branch = sum(1 for i in range(n) if g.degree(i) >= 3)
    n_bonds = len(g.bonds)
    n_multi = sum(1 for o in g.bonds.values() if o >= 2)
    het = (n - counts["C"]) / n
    features = np.array([
        counts["C"] / n,
        counts["N"] / n,
        counts["O"] / n,
        counts["S"] / n,
        counts["P"] / n,
        counts["F"] / n,
        n / 50.0,
        n_rings / 10.0,
        n_large / 5.0,
        n_branch / 10.0,
        _max_chain_length(g) / 50.0,
        het,
        logp_raw(g) / 10.0,
        sa_raw(g) / 10.0,
        qed(g),
        (n_multi / n_bonds) if n_bonds else 0.0,
    ], dtype=np.float64)
    features.flags.writeable = False
    return features


@dataclass
class FeatureStats:
    """Per-feature mean/std fit on the reference set, frozen at startup."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(features: np.ndarray) -> "FeatureStats":
        mean = features.mean(axis=0)
        std = np.maximum(features.std(axis=0), 1e-6)
        return FeatureStats(mean, std)

    @staticmethod
    def identity(dim: int = N_FEATURES) -> "FeatureStats":
        return FeatureStats(np.zeros(dim), np.ones(dim))


_WEIGHT_SHAPES = list(zip(LAYER_SIZES, LAYER_SIZES[1:]))
_BIAS_SHAPES = [(n,) for n in LAYER_SIZES[1:]]
N_PARAMS = sum(a * b for a, b in _WEIGHT_SHAPES) + sum(LAYER_SIZES[1:])


def _layer_views(flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a flat N_PARAMS vector."""
    views, lo = [], 0
    for shape in _WEIGHT_SHAPES + _BIAS_SHAPES:
        size = math.prod(shape)
        views.append(flat[lo : lo + size].reshape(shape))
        lo += size
    return views[: len(_WEIGHT_SHAPES)], views[len(_WEIGHT_SHAPES) :]


@dataclass
class DiscriminatorModel:
    """Network parameters plus Adam state. `params`, `m` and `v` are flat
    N_PARAMS vectors (every weight matrix, then every bias vector);
    `weights` and `biases` are per-layer views of `params`."""

    params: np.ndarray
    m: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS))
    v: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS))
    step_count: int = 0
    feature_stats: FeatureStats = field(default_factory=FeatureStats.identity)

    def __post_init__(self) -> None:
        self.weights, self.biases = _layer_views(self.params)


def init_model(rng, feature_stats: FeatureStats | None = None) -> DiscriminatorModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases; draws come
    from the caller's RNG stream so runs stay reproducible."""
    model = DiscriminatorModel(np.zeros(N_PARAMS))
    for w in model.weights:
        fan_in, fan_out = w.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w[:] = [[rng.uniform(-bound, bound) for _ in range(fan_out)] for _ in range(fan_in)]
    if feature_stats is not None:
        model.feature_stats = feature_stats
    return model


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(model: DiscriminatorModel, x: np.ndarray):
    """Returns (probabilities, per-layer activations for backprop)."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = _sigmoid(z) if k == last else np.maximum(z, 0.0)
        acts.append(h)
    return h[:, 0], acts


def predict(model: DiscriminatorModel, features: np.ndarray) -> float | np.ndarray:
    """Sigmoid output in (0, 1); accepts one vector or a batch."""
    f = np.asarray(features, dtype=np.float64)
    single = f.ndim == 1
    if single:
        f = f[None, :]
    if f.shape[1] != N_FEATURES:
        raise ValueError(
            f"feature dimension {f.shape[1]} does not match model input {N_FEATURES}")
    z = (f - model.feature_stats.mean) / model.feature_stats.std
    p, _ = _forward(model, z)
    return float(p[0]) if single else p


def loss_and_gradients(model: DiscriminatorModel, x: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and its gradients w.r.t. every parameter.

    `x` must already be feature-normalized.
    """
    p, acts = _forward(model, x)
    n = len(y)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    grad_w, grad_b = [], []  # filled from the last layer back
    delta = ((p - y) / n)[:, None]  # sigmoid + BCE composite gradient
    for k in range(len(model.weights) - 1, -1, -1):
        grad_w.append(acts[k].T @ delta)
        grad_b.append(delta.sum(axis=0))
        if k > 0:
            delta = (delta @ model.weights[k].T) * (acts[k] > 0)
    return loss, grad_w[::-1], grad_b[::-1]


def _adam_update(model: DiscriminatorModel, grad: np.ndarray) -> None:
    """One Adam step on the flat parameter vector and its moments."""
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


def train(model: DiscriminatorModel, ga_samples: np.ndarray, ref_samples: np.ndarray,
          epochs: int = EPOCHS, rng=None) -> list[float]:
    """Train on GA molecules (label 0) vs reference molecules (label 1).

    Mini-batches of 32, shuffled per epoch with the supplied RNG; returns
    the per-epoch mean loss. A non-finite loss aborts the whole call and
    restores the entry parameters.
    """
    if len(ga_samples) == 0 or len(ref_samples) == 0:
        raise ValueError("both sample collections must be non-empty")
    x = np.concatenate([np.asarray(ga_samples, dtype=np.float64),
                        np.asarray(ref_samples, dtype=np.float64)])
    if x.shape[1] != N_FEATURES:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match model input {N_FEATURES}")
    y = np.concatenate([np.zeros(len(ga_samples)), np.ones(len(ref_samples))])
    x = (x - model.feature_stats.mean) / model.feature_stats.std

    saved = (model.params.copy(), model.m.copy(), model.v.copy(), model.step_count)
    indices = list(range(len(y)))
    losses: list[float] = []
    for _ in range(epochs):
        if rng is not None:
            rng.shuffle(indices)
        total = 0.0
        for lo in range(0, len(indices), BATCH_SIZE):
            batch = indices[lo : lo + BATCH_SIZE]
            loss, gw, gb = loss_and_gradients(model, x[batch], y[batch])
            if not math.isfinite(loss):
                # in place, so the layer views keep reading the model
                model.params[:], model.m[:], model.v[:], model.step_count = saved
                raise NonFiniteLoss(f"loss became {loss}")
            _adam_update(model, np.concatenate([g.ravel() for g in gw + gb]))
            total += loss * len(batch)
        losses.append(total / len(indices))
    return losses


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "molga-discriminator-1"


def save_checkpoint(model: DiscriminatorModel, path: str) -> None:
    """Write the model as JSON, every vector as per-layer lists."""
    m_w, m_b = _layer_views(model.m)
    v_w, v_b = _layer_views(model.v)
    doc = {
        "format": _CKPT_FORMAT,
        "layer_sizes": list(LAYER_SIZES),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "m_w": [m.tolist() for m in m_w],
        "v_w": [v.tolist() for v in v_w],
        "m_b": [m.tolist() for m in m_b],
        "v_b": [v.tolist() for v in v_b],
        "step_count": model.step_count,
        "feature_mean": model.feature_stats.mean.tolist(),
        "feature_std": model.feature_stats.std.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _checked_array(value, name: str, shape: tuple[int, ...]) -> np.ndarray:
    a = np.array(value, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"checkpoint {name} has shape {a.shape}, expected {shape}")
    return a


def _flat_from_layers(doc: dict, w_key: str, b_key: str) -> np.ndarray:
    """One N_PARAMS vector from the per-layer lists under two keys,
    checked against LAYER_SIZES."""
    return np.concatenate([
        _checked_array(a, f"{key}[{k}]", shape).ravel()
        for key, shapes in ((w_key, _WEIGHT_SHAPES), (b_key, _BIAS_SHAPES))
        # strict: a missing or extra layer is a ValueError too
        for k, (a, shape) in enumerate(zip(doc[key], shapes, strict=True))
    ])


def load_checkpoint(path: str) -> DiscriminatorModel:
    """Read a model written by save_checkpoint; a shape that does not
    match LAYER_SIZES is a ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != _CKPT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {doc.get('format')!r}")
    if doc["layer_sizes"] != list(LAYER_SIZES):
        raise ValueError(f"layer sizes {doc['layer_sizes']} are not {list(LAYER_SIZES)}")
    return DiscriminatorModel(
        params=_flat_from_layers(doc, "weights", "biases"),
        m=_flat_from_layers(doc, "m_w", "m_b"),
        v=_flat_from_layers(doc, "v_w", "v_b"),
        step_count=doc["step_count"],
        feature_stats=FeatureStats(
            *(_checked_array(doc[k], k, (N_FEATURES,)) for k in ("feature_mean", "feature_std"))),
    )
