"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Span names are `<module>.<function>`. Methods are wrapped on their class
(MolecularGraph.canonical, ring_basis and fingerprint are counted there,
not through the free-function wrappers that call them), free functions at
every `molga.*` module binding.
"""

from __future__ import annotations

import sys
from typing import Callable

from tracer import Stat, Tracer

# (module, attribute); a dotted attribute is a method on a class
TARGETS = [
    ("molga.graph", "MolecularGraph.canonical"),
    ("molga.graph", "MolecularGraph.ring_basis"),
    ("molga.graph", "MolecularGraph.fingerprint"),
    ("molga.graph", "tanimoto"),
    ("molga.graph", "parse_smiles"),
    ("molga.codec", "decode"),
    ("molga.codec", "encode"),
    ("molga.codec", "random_genotype"),
    ("molga.props", "penalized_logp"),
    ("molga.props", "logp_raw"),
    ("molga.props", "qed"),
    ("molga.discriminator", "featurize"),
    ("molga.discriminator", "train"),
    ("molga.discriminator", "loss_and_gradients"),
    ("molga.discriminator", "predict"),
    ("molga.evolver", "Evolver.step"),
    ("molga.evolver", "kill_probabilities"),
    ("molga.evolver", "mutate"),
    ("molga.tasks", "run_constrained"),
    ("molga.reference", "load_reference"),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _decode_probe():
    """Counts decodes of a genotype already decoded in this process."""
    seen: set = set()

    def probe(counters: dict, args: tuple):
        key = args[0].symbols
        if key in seen:
            counters["repeats"] = counters.get("repeats", 0) + 1
        else:
            seen.add(key)

    return probe


def _mutate_probe():
    """A mutation is accepted when it returns a child, not the parent."""

    def probe(counters: dict, args: tuple):
        parent = args[0]

        def after(child) -> None:
            counters["accepted"] = counters.get("accepted", 0) + (child is not parent)

        return after

    return probe


def _train_probe():
    """Optimizer steps taken inside the call, from the model's own counter."""

    def probe(counters: dict, args: tuple):
        model = args[0]
        before = model.step_count

        def after(_) -> None:
            counters["steps"] = counters.get("steps", 0) + model.step_count - before

        return after

    return probe


# span name -> factory of a fresh probe per tracer
PROBES = {"codec.decode": _decode_probe, "evolver.mutate": _mutate_probe,
          "discriminator.train": _train_probe}


def install() -> Tracer:
    """Wrap every target; a target the program no longer has is reported on
    stderr and reads as zero calls."""
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "molga" or name.startswith("molga."))]
    for module_name, attr in TARGETS:
        name = span_name(module_name, attr)
        tracer.stats[name] = Stat()
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        target = getattr(owner, method, None) if owner is not None else None
        probe = PROBES[name]() if name in PROBES else None
        if target is None:
            print(f"bench: {module_name}.{attr} not found; not traced", file=sys.stderr)
        elif owner_name:
            tracer.patch_method(name, owner, method, probe)
        else:
            tracer.patch_function(name, target, modules, probe)
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, unit, better, value from the span stats and the rep's extras)
Metric = tuple[str, str, str, Callable[[dict, dict], float]]


def _stat(field: str, span: str) -> Callable[[dict, dict], float]:
    return lambda s, x: s[span][field]


def _count(span: str, counter: str) -> Callable[[dict, dict], float]:
    return lambda s, x: s[span]["counters"].get(counter, 0)


METRICS: list[Metric] = [
    ("graph.canonical.calls", "count", "lower", _stat("calls", "graph.canonical")),
    ("graph.canonical.self_s", "s", "lower", _stat("self_s", "graph.canonical")),
    ("graph.ring_basis.calls", "count", "lower", _stat("calls", "graph.ring_basis")),
    ("graph.ring_basis.self_s", "s", "lower", _stat("self_s", "graph.ring_basis")),
    ("codec.decode.calls", "count", "lower", _stat("calls", "codec.decode")),
    ("codec.decode.busy_s", "s", "lower", _stat("busy_s", "codec.decode")),
    ("codec.decode.repeat_share", "ratio", "higher",
     lambda s, x: _ratio(s["codec.decode"]["counters"].get("repeats", 0),
                         s["codec.decode"]["calls"])),
    ("codec.random_genotype.busy_s", "s", "lower", _stat("busy_s", "codec.random_genotype")),
    ("codec.encode.calls", "count", "lower", _stat("calls", "codec.encode")),
    ("codec.encode.busy_s", "s", "lower", _stat("busy_s", "codec.encode")),
    ("props.penalized_logp.calls", "count", "lower", _stat("calls", "props.penalized_logp")),
    ("props.penalized_logp.busy_s", "s", "lower", _stat("busy_s", "props.penalized_logp")),
    ("props.logp_raw.per_mol", "calls/mol", "lower",
     lambda s, x: _ratio(s["props.logp_raw"]["calls"], s["props.penalized_logp"]["calls"])),
    ("props.qed.calls", "count", "lower", _stat("calls", "props.qed")),
    ("discriminator.train.calls", "count", "lower", _stat("calls", "discriminator.train")),
    ("discriminator.train.busy_s", "s", "lower", _stat("busy_s", "discriminator.train")),
    ("discriminator.train.self_s", "s", "lower", _stat("self_s", "discriminator.train")),
    ("discriminator.train.steps", "count", "lower", _count("discriminator.train", "steps")),
    ("discriminator.loss_and_gradients.self_s", "s", "lower",
     _stat("self_s", "discriminator.loss_and_gradients")),
    ("discriminator.predict.busy_s", "s", "lower", _stat("busy_s", "discriminator.predict")),
    ("discriminator.featurize.calls", "count", "lower", _stat("calls", "discriminator.featurize")),
    ("discriminator.featurize.self_s", "s", "lower", _stat("self_s", "discriminator.featurize")),
    ("graph.fingerprint.calls", "count", "lower", _stat("calls", "graph.fingerprint")),
    ("graph.fingerprint.self_s", "s", "lower", _stat("self_s", "graph.fingerprint")),
    ("graph.tanimoto.calls", "count", "lower", _stat("calls", "graph.tanimoto")),
    ("graph.tanimoto.self_s", "s", "lower", _stat("self_s", "graph.tanimoto")),
    ("evolver.step.calls", "count", "lower", _stat("calls", "evolver.step")),
    ("evolver.step.self_s", "s", "lower", _stat("self_s", "evolver.step")),
    ("evolver.kill_probabilities.busy_s", "s", "lower",
     _stat("busy_s", "evolver.kill_probabilities")),
    ("evolver.mutate.calls", "count", "lower", _stat("calls", "evolver.mutate")),
    ("evolver.mutate.busy_s", "s", "lower", _stat("busy_s", "evolver.mutate")),
    ("evolver.mutate.accept_ratio", "ratio", "higher",
     lambda s, x: _ratio(s["evolver.mutate"]["counters"].get("accepted", 0),
                         s["evolver.mutate"]["calls"])),
    ("tasks.run_constrained.calls", "count", "lower", _stat("calls", "tasks.run_constrained")),
    ("tasks.run_constrained.max_s", "s", "lower", _stat("max_s", "tasks.run_constrained")),
    ("reference.load_reference.busy_s", "s", "lower", _stat("busy_s", "reference.load_reference")),
    ("graph.parse_smiles.busy_s", "s", "lower", _stat("busy_s", "graph.parse_smiles")),
    ("cli.out_bytes", "bytes", "lower", lambda s, x: x["out_bytes"]),
]

# computed by run.py from the traced and untraced repetitions of one run
OVERHEAD_METRIC = ("trace.overhead", "ratio", "lower")


def layer_metrics(stats: dict, extras: dict) -> dict[str, float]:
    return {name: fn(stats, extras) for name, _, _, fn in METRICS}
