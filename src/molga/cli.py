"""Command-line surface: configuration, reference management, run
orchestration, and post-hoc analysis.

Run configs are single JSON documents; unknown keys, and keys the chosen
task does not read, are rejected, and every default is echoed into
run_report.json. A determinism hash (SHA-256 over
the timing-stripped report) makes reproducibility checkable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from copy import copy
from dataclasses import asdict
from typing import Any

from . import tasks
from .codec import decode, encode, parse_genotype
from .discriminator import save_checkpoint
from .errors import MolgaError
from .evolver import Evolver, EvolverConfig, GenerationLog, run
from .graph import parse_smiles
from .props import penalized_logp
from .reference import ReferenceSet, load_reference, synthetic_reference
from .schedules import BetaSchedule

try:  # hashlib loads OpenSSL, about 3.5 MB resident; the builtin module does not
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(MolgaError):
    """Invalid run configuration."""


def bundled_reference_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "reference_1k.smi")


def load_config_reference(config: dict) -> tuple[ReferenceSet, dict]:
    """The reference of a parsed config: the bundle, a file or synthetic."""
    source = config["reference"]
    if isinstance(source, dict):
        n = source["synthetic"]
        return synthetic_reference(n, seed=config["seed"]), {"synthetic": n}
    path = bundled_reference_path() if source is None else source
    if not os.path.exists(path):
        raise ConfigError(f"reference file not found: {path}")
    ref, report = load_reference(path)
    return ref, {"path": path, "usable": report.n_usable, "failed": report.n_failed}


def determinism_hash(report: dict) -> str:
    """SHA-256 over the report minus timing and execution-infrastructure
    fields (thread count, output and reference file paths) that cannot
    affect results, so the same run hashes the same in any checkout."""
    stripped = {k: v for k, v in report.items() if k not in ("timing", "determinism_hash")}
    if isinstance(stripped.get("config"), dict):
        cfg = {k: v for k, v in stripped["config"].items()
               if k not in ("threads", "output_dir")
               and not (k == "reference" and isinstance(v, str))}
        stripped["config"] = cfg
    if isinstance(stripped.get("reference"), dict):
        stripped["reference"] = {k: v for k, v in stripped["reference"].items()
                                 if k != "path"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def _load_initial_population(path: str, population_size: int):
    genotypes = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                genotypes.append(parse_genotype(line))
    if not genotypes:
        raise ConfigError(f"no genotypes in {path}")
    return [genotypes[i % len(genotypes)] for i in range(population_size)]


def _evolver_config(config: dict) -> EvolverConfig:
    """The one EvolverConfig of a run config. Tasks that fix beta, the
    discriminator or the population override those fields themselves."""
    if config["task"] == "adaptive_dt":
        schedule = BetaSchedule(mode="adaptive", **config["adaptive"])
        use_discriminator = True
    else:
        schedule = BetaSchedule.const(float(config["beta"]))
        use_discriminator = config["use_discriminator"]
        if use_discriminator is None:
            use_discriminator = config["beta"] != 0.0
    initial = None
    if config["initial_population"]:
        if not os.path.exists(config["initial_population"]):
            raise ConfigError(
                f"initial population file not found: {config['initial_population']}")
        initial = _load_initial_population(config["initial_population"],
                                           config["population_size"])
    return EvolverConfig(
        **{key: config[key] for key in _GA_KEYS - {"initial_population"}},
        seed=config["seed"],
        schedule=schedule,
        use_discriminator=use_discriminator,
        initial_genotypes=initial,
    )


def _archive_json(result: Evolver) -> list[dict]:
    """The report's five best archive entries."""
    return [
        {"canonical": e.canonical, "genotype": e.genotype_text,
         "score": e.score, "record": asdict(e.record)}
        for e in result.archive_sorted()[:5]
    ]


def _write_outputs(out_dir: str, report: dict, result: Evolver | None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if result is not None:
        with open(os.path.join(out_dir, "generations.csv"), "w") as fh:
            fh.write(GenerationLog.CSV_HEADER + "\n")
            for log in result.logs:
                fh.write(log.csv_row() + "\n")
        if result.model is not None:
            save_checkpoint(result.model, os.path.join(out_dir, "discriminator.json"))
        if result.snapshots:
            snap_dir = os.path.join(out_dir, "snapshots")
            os.makedirs(snap_dir, exist_ok=True)
            for gen, rows in sorted(result.snapshots.items()):
                with open(os.path.join(snap_dir, f"gen_{gen:05d}.txt"), "w") as fh:
                    for genotype_text, _ in rows:
                        fh.write(genotype_text + "\n")
    report["determinism_hash"] = determinism_hash(report)
    with open(os.path.join(out_dir, "run_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


# Each runner takes (config, reference, out_dir) and returns the report's
# "result" and the Evolver whose trace is written, if the task has one.


def _run_ga(config: dict, ref: ReferenceSet, out_dir: str | None):
    cfg = _evolver_config(config)
    result = run(cfg, ref)
    summary = {
        "best_j": result.best_trace[-1],
        "best": _archive_json(result),
        "best_trace": result.best_trace,
        "beta_trace": result.beta_trace,
    }
    if cfg.schedule.mode == "adaptive":
        summary["first_trigger"] = tasks.first_trigger_generation(result, cfg.schedule.high)
    return summary, result


def _run_constrained(config: dict, ref: ReferenceSet, out_dir: str | None):
    c = config["constrained"]
    cfg = _evolver_config(config)
    if c["reference_smiles"]:
        res = tasks.run_constrained(parse_smiles(c["reference_smiles"]), ref, cfg,
                                    delta=c["delta"])
    else:
        res = tasks.run_constrained_batch(ref, cfg, n_molecules=c["n_molecules"],
                                          delta=c["delta"])
    return asdict(res), None


def _run_property_target(config: dict, ref: ReferenceSet, out_dir: str | None):
    p = config["property_target"]
    cfg = _evolver_config(config)
    if p["targets"] is not None:
        targets = tasks.PropertyTargets(*[float(x) for x in p["targets"]])
        res = tasks.run_property_target(targets, ref, cfg)
    else:
        res = tasks.run_property_target_batch(ref, cfg, n_targets=p["n_targets"])
    return asdict(res), None


def _run_logp_qed(config: dict, ref: ReferenceSet, out_dir: str | None):
    w = config["logp_qed"]
    res = tasks.run_logp_qed(ref, _evolver_config(config), w_j=w["w_j"], w_qed=w["w_qed"])
    return {"best": _archive_json(res.run), "archive_scatter": res.archive_scatter}, res.run


def _run_random_baseline(config: dict, ref: ReferenceSet, out_dir: str | None):
    res = tasks.run_random_baseline(
        ref, config["random_baseline"]["n_samples"], seed=config["seed"],
        max_canonical_len=config["max_canonical_len"],
        max_genotype_len=config["max_genotype_len"])
    return asdict(res), None


def _run_beta_sweep(config: dict, ref: ReferenceSet, out_dir: str | None):
    bs = config["beta_sweep"]
    res = tasks.run_beta_sweep(ref, _evolver_config(config),
                               [float(b) for b in bs["betas"]],
                               seeds_per_beta=bs["seeds_per_beta"])
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "beta_sweep.csv"), "w") as fh:
            fh.write("beta,generation,mean_j,mean_d\n")
            for row in res.rows:
                for gen, (mj, md) in enumerate(zip(row.mean_j_trace, row.mean_d_trace)):
                    fh.write(f"{row.beta:g},{gen},{mj:.6f},{md:.6f}\n")
    return asdict(res), None


# Keys every task accepts; the rest of a task's keys sit next to its runner.
# The GA keys are EvolverConfig fields of the same name and default, apart
# from initial_population, the genotype file that becomes initial_genotypes.
_ALWAYS_READ = {"task", "seed", "reference", "threads", "output_dir"}
_GA_KEYS = {"population_size", "generations", "elite_count", "parent_selection",
            "top_fraction", "max_canonical_len", "max_genotype_len", "archive_k",
            "snapshot_every", "initial_population"}
# snapshot_every is read only where a per-run trace is written; archive_k
# only where the archive beyond its best entry reaches the result
_RUNNERS = {
    "unconstrained": (_run_ga, _GA_KEYS | {"beta", "use_discriminator"}),
    "adaptive_dt": (_run_ga, _GA_KEYS | {"adaptive"}),
    "constrained_similarity": (
        _run_constrained, _GA_KEYS - {"snapshot_every", "initial_population"} | {"constrained"}),
    "property_target": (
        _run_property_target, _GA_KEYS - {"snapshot_every", "archive_k"} | {"property_target"}),
    "logp_qed": (_run_logp_qed, _GA_KEYS | {"logp_qed"}),
    "random_baseline": (
        _run_random_baseline, {"max_canonical_len", "max_genotype_len", "random_baseline"}),
    "beta_sweep": (
        _run_beta_sweep, _GA_KEYS - {"snapshot_every", "archive_k"} | {"beta_sweep"}),
}

# In single-run mode (its first key set) a section reads no batch count.
_BATCH_COUNTS = {"constrained": ("reference_smiles", "n_molecules"),
                 "property_target": ("targets", "n_targets")}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    # json.load reads NaN and Infinity literals as floats, and an integer
    # literal of any size as an int; either must fit in a finite float
    return (_is_int(value) and abs(value) <= sys.float_info.max
            or isinstance(value, float) and math.isfinite(value))


def _is_number_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and bool(value) and all(map(_is_number, value))


# A rule is a test and the words that finish "<key> must be ...".
def _integer(low: int) -> tuple:
    return (lambda value: _is_int(value) and value >= low), f"an integer >= {low}"


def _one_of(*choices: str) -> tuple:
    return (lambda value: isinstance(value, str) and value in choices), f"one of {choices}"


_NUMBER = _is_number, "a finite number"
_WEIGHT = (lambda value: _is_number(value) and value >= 0), "a finite number >= 0"
_NULL_OR_STRING = (lambda value: value is None or isinstance(value, str)), "null or a string"

_GA, _BETA = EvolverConfig(), BetaSchedule()
# Every config key with its default and its rule; a nested table is a
# section, an object in the document.
_KEYS: dict[str, Any] = {
    "task": ("unconstrained", _one_of(*_RUNNERS)),
    "seed": (_GA.seed, (_is_int, "an integer")),
    # a path, {"synthetic": N}, or None for the bundle
    "reference": (None, (lambda value: value is None or isinstance(value, str)
                         or isinstance(value, dict) and set(value) == {"synthetic"}
                         and _is_int(value["synthetic"]) and value["synthetic"] >= 1,
                         'null, a path, or {"synthetic": N} with N >= 1')),
    "population_size": (_GA.population_size, _integer(1)),
    "generations": (_GA.generations, _integer(0)),
    "beta": (_BETA.constant, _NUMBER),
    # None: implied by beta and the task
    "use_discriminator": (None, (lambda value: value is None or isinstance(value, bool),
                                 "true, false or null")),
    "adaptive": {"low": (_BETA.low, _NUMBER), "high": (_BETA.high, _NUMBER),
                 "window": (_BETA.window, _integer(1)), "epsilon": (_BETA.epsilon, _NUMBER)},
    "elite_count": (_GA.elite_count, _integer(0)),
    "parent_selection": (_GA.parent_selection, _one_of("uniform-survivors", "top-fraction")),
    "top_fraction": (_GA.top_fraction, (lambda value: _is_number(value) and 0 < value <= 1,
                                        "a number in (0, 1]")),
    # at 0 no genotype or molecule fits: a GA never accepts a child and the
    # random baseline cannot draw a genotype
    "max_canonical_len": (_GA.max_canonical_len, _integer(1)),
    "max_genotype_len": (_GA.max_genotype_len, _integer(1)),
    "archive_k": (_GA.archive_k, _integer(1)),
    "snapshot_every": (_GA.snapshot_every, _integer(0)),
    "threads": (1, _integer(1)),
    "output_dir": (None, _NULL_OR_STRING),
    "initial_population": (None, _NULL_OR_STRING),  # genotype text file; cycled up to size
    "constrained": {
        "delta": (0.4, (lambda value: _is_number(value) and 0 <= value <= 1,
                        "a number in [0, 1]")),
        "n_molecules": (50, _integer(1)),
        "reference_smiles": (None, _NULL_OR_STRING)},
    "property_target": {
        "targets": (None, (lambda value: value is None or _is_number_list(value)
                           and len(value) == 3, "null or a list of 3 numbers")),
        "n_targets": (100, _integer(1))},
    "logp_qed": {"w_j": (1.0, _WEIGHT), "w_qed": (10.0, _WEIGHT)},
    "random_baseline": {"n_samples": (10000, _integer(1))},
    "beta_sweep": {
        "betas": ([0.0, 10.0, 50.0], (_is_number_list, "a non-empty list of numbers")),
        "seeds_per_beta": (3, _integer(1))},
}


def _parse(doc: dict, keys: dict, section: str | None = None) -> dict:
    """One level of a config document checked against its table, with every
    default filled in; nothing in the result is shared with the table."""
    unknown = set(doc) - set(keys)
    if unknown:
        where = "config keys" if section is None else f"keys in {section!r}"
        raise ConfigError(f"unknown {where}: {sorted(unknown)}")
    out = {}
    for key, entry in keys.items():
        if isinstance(entry, dict):
            sub = doc.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{key!r} must be an object")
            out[key] = _parse(sub, entry, key)
            continue
        default, (valid, words) = entry
        value = doc[key] if key in doc else copy(default)
        if not valid(value):
            name = key if section is None else f"{section}.{key}"
            raise ConfigError(f"{name} must be {words}")
        out[key] = value
    return out


def parse_config(doc: dict) -> dict:
    """Validate a config document and materialize every default."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    out = _parse(doc, _KEYS)
    if out["elite_count"] > out["population_size"]:
        raise ConfigError("elite_count must be <= population_size")
    if out["adaptive"]["low"] > out["adaptive"]["high"]:
        raise ConfigError("adaptive.low must be <= adaptive.high")
    # a key left at its default changes nothing, so a materialized config
    # (the echo in run_report.json) parses again
    defaults = _parse({}, _KEYS)
    ignored = {key for key in set(doc) - _ALWAYS_READ - _RUNNERS[out["task"]][1]
               if out[key] != defaults[key]}
    for section, (single, count) in _BATCH_COUNTS.items():
        if out[section][single] and out[section][count] != defaults[section][count]:
            ignored.add(f"{section}.{count}")
    if ignored:
        raise ConfigError(f"task {out['task']!r} does not read {sorted(ignored)}")
    return out


def run_task(config: dict, out_dir: str | None) -> dict:
    """Execute the configured task; returns the run report."""
    t_start = time.time()
    ref, ref_info = load_config_reference(config)
    task = config["task"]
    report: dict[str, Any] = {"config": config, "reference": ref_info, "task": task}
    report["result"], result = _RUNNERS[task][0](config, ref, out_dir)
    report["timing"] = {"wall_seconds": time.time() - t_start}
    if out_dir:
        _write_outputs(out_dir, report, result)
    else:
        report["determinism_hash"] = determinism_hash(report)
    return report


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _with_flags(doc: Any, synthetic_reference: int | None = None, **flags: Any) -> dict:
    """The config document with each command-line flag that was given
    written over its key, so a flag is checked as the same key in the file
    would be; --synthetic-reference N is the reference {"synthetic": N}."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if synthetic_reference is not None:
        flags["reference"] = {"synthetic": synthetic_reference}
    return {**doc, **{key: value for key, value in flags.items() if value is not None}}


def _load_run_config(args, task: str | None = None) -> tuple[dict, str | None]:
    """The config file with the command-line flags written in, parsed, and
    the output directory."""
    with open(args.config) as fh:
        doc = json.load(fh)
    config = parse_config(_with_flags(doc, task=task, seed=args.seed, threads=args.threads,
                                      synthetic_reference=args.synthetic_reference))
    return config, args.out or config["output_dir"]


def _cmd_run(args) -> int:
    config, out_dir = _load_run_config(args)
    report = run_task(config, out_dir)
    print(json.dumps({k: report[k] for k in ("task", "determinism_hash")}, indent=2))
    if out_dir:
        print(f"outputs written to {out_dir}", file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    g = parse_genotype(args.genotype)
    print(decode(g).canonical())
    return 0


def _cmd_encode(args) -> int:
    graph = parse_smiles(args.smiles)
    print(encode(graph).text())
    return 0


def _cmd_props(args) -> int:
    ref, _ = load_reference(args.reference or bundled_reference_path())
    print("input,logp_raw,sa_raw,ring_raw,qed,j")
    for line in sys.stdin:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            if text.startswith("["):
                graph = decode(parse_genotype(text))
            else:
                graph = parse_smiles(text)
            rec = penalized_logp(graph, ref.prop_stats)
            print(f"{text},{rec.logp_raw:.4f},{rec.sa_raw:.4f},{rec.ring_raw:.4f},"
                  f"{rec.qed:.4f},{rec.j:.4f}")
        except MolgaError as exc:
            print(f"{text},error:{exc},,,,", file=sys.stderr)
    return 0


def _cmd_baseline(args) -> int:
    doc = _with_flags({"task": "random_baseline", "random_baseline": {"n_samples": args.n}},
                      seed=args.seed, reference=args.reference,
                      synthetic_reference=args.synthetic_reference)
    print(json.dumps(run_task(parse_config(doc), None)["result"], indent=2))
    return 0


def _cmd_analyze(args) -> int:
    from . import analysis  # numpy; only this command loads it

    report_path = os.path.join(args.run_dir, "run_report.json")
    if not os.path.exists(report_path):
        print(f"error: no run_report.json in {args.run_dir}", file=sys.stderr)
        return 1
    with open(report_path) as fh:
        report = json.load(fh)
    snap_dir = os.path.join(args.run_dir, "snapshots")
    if not os.path.isdir(snap_dir):
        task = report["task"]
        advice = ("set snapshot_every" if "snapshot_every" in _RUNNERS[task][1]
                  else f"task {task!r} writes no population snapshots")
        print(f"error: run has no population snapshots ({advice})", file=sys.stderr)
        return 1
    config = report["config"]
    ref, _ = load_config_reference(config)
    snapshots: dict[int, list] = {}
    for name in sorted(os.listdir(snap_dir)):
        if not name.startswith("gen_"):
            continue
        gen = int(name[4:9])
        rows = []
        with open(os.path.join(snap_dir, name)) as fh:
            for line in fh:
                genotype = parse_genotype(line.strip())
                graph = decode(genotype)
                rec = penalized_logp(graph, ref.prop_stats)
                rows.append((graph.canonical(), rec.j, graph.fingerprint()))
        snapshots[gen] = rows
    rows = analysis.snapshot_report(snapshots, seed=config["seed"])
    out_dir = os.path.join(args.run_dir, "analysis")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "snapshot_clusters.csv")
    with open(path, "w") as fh:
        fh.write(analysis.snapshot_rows_csv(rows))
    print(f"wrote {path}")
    if args.plot_data:
        long_path = os.path.join(out_dir, "snapshot_clusters_long.csv")
        with open(long_path, "w") as fh:
            fh.write("generation,canonical,series,value\n")
            for r in rows:
                fh.write(f"{r.generation},{r.canonical},score,{r.score:.6f}\n")
                fh.write(f"{r.generation},{r.canonical},cluster,{r.cluster}\n")
                fh.write(f"{r.generation},{r.canonical},pca_x,{r.x:.6f}\n")
                fh.write(f"{r.generation},{r.canonical},pca_y,{r.y:.6f}\n")
        print(f"wrote {long_path}")
    return 0


def _cmd_sweep(args) -> int:
    config, out_dir = _load_run_config(args, task="beta_sweep")
    report = run_task(config, out_dir)
    print(json.dumps(report["result"], indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="molga",
                                description="genetic molecular design engine")
    sub = p.add_subparsers(dest="command", required=True)

    run_args = argparse.ArgumentParser(add_help=False)  # run's and sweep's
    run_args.add_argument("config")
    run_args.add_argument("--seed", type=int)
    run_args.add_argument("--threads", type=int)
    run_args.add_argument("--out")
    run_args.add_argument("--synthetic-reference", type=int,
                          help="replace the reference with N synthetic molecules")
    sub.add_parser("run", parents=[run_args],
                   help="execute a run config (JSON)").set_defaults(func=_cmd_run)

    dec_p = sub.add_parser("decode", help="decode a genotype to canonical text")
    dec_p.add_argument("genotype")
    dec_p.set_defaults(func=_cmd_decode)

    enc_p = sub.add_parser("encode", help="encode a SMILES string as a genotype")
    enc_p.add_argument("smiles")
    enc_p.set_defaults(func=_cmd_encode)

    props_p = sub.add_parser("props", help="score genotypes or SMILES from stdin as CSV")
    props_p.add_argument("--reference", default=None)
    props_p.set_defaults(func=_cmd_props)

    base_p = sub.add_parser("baseline", help="random-genotype baseline")
    base_p.add_argument("-n", type=int, required=True)
    base_p.add_argument("--seed", type=int, default=None)
    base_p.add_argument("--reference", default=None)
    base_p.add_argument("--synthetic-reference", type=int, default=None)
    base_p.set_defaults(func=_cmd_baseline)

    an_p = sub.add_parser("analyze", help="cluster/PCA report for a finished run")
    an_p.add_argument("run_dir")
    an_p.add_argument("--plot-data", action="store_true")
    an_p.set_defaults(func=_cmd_analyze)

    sub.add_parser("sweep", parents=[run_args],
                   help="beta sweep from a config (JSON)").set_defaults(func=_cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (MolgaError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
