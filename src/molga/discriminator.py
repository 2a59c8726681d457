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
from typing import Iterable

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


class _Numpy:
    """Stands in for numpy until its first attribute read, which imports
    numpy and rebinds this module's `np` to it: later reads cost nothing,
    and a run that never featurizes, trains or scores never loads numpy."""

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _Numpy()


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
    # built here, not kept: features are memoized, so this runs once per graph
    adj = [[v for v, _ in g.neighbors(i)] for i in range(n)]
    lev0 = _bfs_levels(adj, 0)
    a = lev0.index(max(lev0))
    lev_a = _bfs_levels(adj, a)
    lb = max(lev_a)
    if len(g.bond_list) == n - 1:  # tree: double BFS is exact
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


def stack_features(graphs: Iterable[MolecularGraph]) -> np.ndarray:
    """One featurize(g) row per graph, in order."""
    return np.stack([featurize(g) for g in graphs])


def _featurize(g: MolecularGraph) -> np.ndarray:
    n = g.n_atoms
    counts = {el: 0 for el in ("C", "N", "O", "S", "P", "F")}
    for el in g.elements:
        counts[el] += 1
    basis = g.ring_basis()
    n_rings = len(basis)
    n_large = sum(1 for cyc in basis if len(cyc) > 6)
    n_branch = sum(1 for i in range(n) if g.degree(i) >= 3)
    n_bonds = len(g.bond_list)
    n_multi = sum(1 for _, _, o in g.bond_list if o >= 2)
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


@dataclass(eq=False)
class DiscriminatorModel:
    """Network parameters plus Adam state. `params`, `m` and `v` are flat
    N_PARAMS vectors (every weight matrix, then every bias vector);
    `weights` and `biases` are per-layer views of `params`. Models compare
    by identity (a field-wise == would compare arrays and raise)."""

    params: np.ndarray
    feature_stats: FeatureStats
    m: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS))
    v: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS))
    step_count: int = 0

    def __post_init__(self) -> None:
        self.weights, self.biases = _layer_views(self.params)


def init_model(rng, feature_stats: FeatureStats) -> DiscriminatorModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases; draws come
    from the caller's RNG stream so runs stay reproducible."""
    model = DiscriminatorModel(np.zeros(N_PARAMS), feature_stats)
    for w in model.weights:
        fan_in, fan_out = w.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w[:] = [[rng.uniform(-bound, bound) for _ in range(fan_out)] for _ in range(fan_in)]
    return model


def _buffers(rows: int) -> list[np.ndarray]:
    """One (rows, width) buffer per layer output."""
    return [np.empty((rows, k)) for k in LAYER_SIZES[1:]]


def _forward(model: DiscriminatorModel, x: np.ndarray, acts: list[np.ndarray]) -> np.ndarray:
    """Probabilities for the rows of `x`, which must already be
    feature-normalized. Each layer's output is written into the first
    len(x) rows of its buffer in `acts` (see _buffers)."""
    n = len(x)
    h = x
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(h, w, out=acts[k][:n])
        z += b
        if k == last:
            # stable sigmoid: 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below
            e = np.exp(-np.abs(z))
            np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=z)
        else:
            np.maximum(z, 0.0, out=z)
        h = z
    return h[:, 0]


def _backward(model: DiscriminatorModel, x: np.ndarray, acts: list[np.ndarray],
              p: np.ndarray, y: np.ndarray, deltas: list[np.ndarray],
              grad_w: list[np.ndarray], grad_b: list[np.ndarray]) -> None:
    """Gradients of the mean binary cross-entropy after _forward(model, x,
    acts) returned `p`, written into grad_w and grad_b. `deltas` are
    scratch buffers shaped like `acts`."""
    n = len(y)
    last = len(model.weights) - 1
    delta = deltas[last][:n]
    np.subtract(p, y, out=delta[:, 0])  # sigmoid + BCE composite gradient
    delta /= n
    for k in range(last, -1, -1):
        a = x if k == 0 else acts[k - 1][:n]
        np.matmul(a.T, delta, out=grad_w[k])
        np.add.reduce(delta, axis=0, out=grad_b[k])
        if k > 0:
            prev = np.matmul(delta, model.weights[k].T, out=deltas[k - 1][:n])
            prev *= a > 0
            delta = prev


def _bce_terms(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample log-likelihoods; the loss is minus their mean."""
    eps = 1e-12
    return y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)


def _mean_loss(terms: np.ndarray) -> float:
    # np.add.reduce / n gives np.mean's bits without its overhead
    return float(-(np.add.reduce(terms) / len(terms)))


def predict(model: DiscriminatorModel, features: np.ndarray) -> np.ndarray:
    """Sigmoid outputs in (0, 1), one per row of the (n, N_FEATURES) batch."""
    f = np.asarray(features, dtype=np.float64)
    if f.shape[1] != N_FEATURES:
        raise ValueError(
            f"feature dimension {f.shape[1]} does not match model input {N_FEATURES}")
    z = (f - model.feature_stats.mean) / model.feature_stats.std
    return _forward(model, z, _buffers(len(z)))


def loss_and_gradients(model: DiscriminatorModel, x: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and its gradients w.r.t. every parameter.

    `x` must already be feature-normalized.
    """
    acts = _buffers(len(x))
    p = _forward(model, x, acts)
    grad_w, grad_b = _layer_views(np.empty(N_PARAMS))
    _backward(model, x, acts, p, y, _buffers(len(x)), grad_w, grad_b)
    return _mean_loss(_bce_terms(p, y)), grad_w, grad_b


def _adam_update(model: DiscriminatorModel, grad: np.ndarray, tmp: np.ndarray,
                 tmp2: np.ndarray) -> None:
    """One Adam step on the flat parameter vector and its moments, in place;
    `tmp` and `tmp2` are N_PARAMS scratch vectors."""
    model.step_count += 1
    t = model.step_count
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    m, v = model.m, model.v
    m *= ADAM_BETA1
    m += np.multiply(grad, 1 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    np.multiply(grad, 1 - ADAM_BETA2, out=tmp)
    v += np.multiply(tmp, grad, out=tmp)
    # params -= ADAM_STEP * (m / corr1) / (sqrt(v / corr2) + ADAM_EPS)
    np.divide(m, corr1, out=tmp)
    tmp *= ADAM_STEP
    np.divide(v, corr2, out=tmp2)
    np.sqrt(tmp2, out=tmp2)
    tmp2 += ADAM_EPS
    tmp /= tmp2
    model.params -= tmp


def train(model: DiscriminatorModel, ga_samples: np.ndarray, ref_samples: np.ndarray,
          rng) -> list[float]:
    """Train on GA molecules (label 0) vs reference molecules (label 1).

    EPOCHS epochs of mini-batches of 32, shuffled per epoch with the
    supplied RNG; returns the per-epoch mean loss. A non-finite loss aborts
    the whole call and restores the entry parameters.
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
    n = len(y)
    indices = list(range(n))
    batches = [slice(lo, min(lo + BATCH_SIZE, n)) for lo in range(0, n, BATCH_SIZE)]
    xs, ys, ps = np.empty_like(x), np.empty(n), np.empty(n)
    acts, deltas = _buffers(BATCH_SIZE), _buffers(BATCH_SIZE)
    grad = np.empty(N_PARAMS)
    grad_w, grad_b = _layer_views(grad)
    tmp, tmp2 = np.empty(N_PARAMS), np.empty(N_PARAMS)
    losses: list[float] = []
    for _ in range(EPOCHS):
        rng.shuffle(indices)
        np.take(x, indices, axis=0, out=xs)
        np.take(y, indices, out=ys)
        for batch in batches:
            xb, yb = xs[batch], ys[batch]
            p = _forward(model, xb, acts)
            ps[batch] = p
            _backward(model, xb, acts, p, yb, deltas, grad_w, grad_b)
            _adam_update(model, grad, tmp, tmp2)
        # The losses are read once per epoch. A NaN probability (the only
        # way to a non-finite loss) leaves every later step NaN too, and
        # the check below undoes the whole call.
        terms = _bce_terms(ps, ys)
        total = 0.0
        for batch in batches:
            loss = _mean_loss(terms[batch])
            if not math.isfinite(loss):
                # in place, so the layer views keep reading the model
                model.params[:], model.m[:], model.v[:], model.step_count = saved
                raise NonFiniteLoss(f"loss became {loss}")
            total += loss * (batch.stop - batch.start)
        losses.append(total / n)
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
