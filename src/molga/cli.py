"""Command-line surface: configuration, reference management, run
orchestration, and post-hoc analysis.

Run configs are single JSON documents; unknown keys, and keys the chosen
task does not read, are rejected, and every default is echoed into
run_report.json. A determinism hash (SHA-256 over
the timing-stripped report) makes reproducibility checkable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Any

from . import analysis, tasks
from .codec import decode, encode, parse_genotype
from .discriminator import save_checkpoint
from .errors import MolgaError
from .evolver import EvolverConfig, GenerationLog, RunResult, run
from .graph import fingerprint, parse_smiles
from .props import penalized_logp
from .reference import ReferenceSet, load_reference, synthetic_reference
from .schedules import BetaSchedule


class ConfigError(MolgaError):
    """Invalid run configuration."""


_DEFAULTS: dict[str, Any] = {
    "task": "unconstrained",
    "seed": 0,
    "reference": None,  # path string, {"synthetic": N}, or None for the bundle
    "population_size": 500,
    "generations": 100,
    "beta": 0.0,
    "use_discriminator": None,  # None: implied by beta/task
    "adaptive": {"low": 0.0, "high": 1000.0, "window": 20, "epsilon": 1e-3},
    "elite_count": 1,
    "parent_selection": "uniform-survivors",
    "top_fraction": 0.2,
    "max_canonical_len": 81,
    "max_genotype_len": 100,
    "archive_k": 50,
    "snapshot_every": 0,
    "threads": 1,
    "output_dir": None,
    "initial_population": None,  # genotype text file; cycled up to size
    "constrained": {"delta": 0.4, "n_molecules": 50, "reference_smiles": None},
    "property_target": {"targets": None, "n_targets": 100},
    "logp_qed": {"w_j": 1.0, "w_qed": 10.0},
    "random_baseline": {"n_samples": 10000},
    "beta_sweep": {"betas": [0.0, 10.0, 50.0], "seeds_per_beta": 3},
}


def bundled_reference_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "reference_1k.smi")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number_list(value: Any) -> bool:
    """A non-empty list of numbers."""
    return isinstance(value, (list, tuple)) and bool(value) and all(map(_is_number, value))


def parse_config(doc: dict) -> dict:
    """Validate a config document and materialize every default."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    out: dict[str, Any] = {}
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict) and key in doc:
            sub = doc[key]
            if not isinstance(sub, dict):
                raise ConfigError(f"{key!r} must be an object")
            unknown = set(sub) - set(default)
            if unknown:
                raise ConfigError(f"unknown keys in {key!r}: {sorted(unknown)}")
            out[key] = {**default, **sub}
        else:
            out[key] = doc.get(key, default)
    unknown = set(doc) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if out["task"] not in _RUNNERS:
        raise ConfigError(f"unknown task {out['task']!r}; expected one of {tuple(_RUNNERS)}")
    if not _is_int(out["seed"]):
        raise ConfigError("seed must be an integer")
    for key in ("population_size", "generations", "max_canonical_len",
                "max_genotype_len", "archive_k", "snapshot_every", "threads",
                "elite_count"):
        if not _is_int(out[key]) or out[key] < 0:
            raise ConfigError(f"{key} must be a non-negative integer")
    if out["population_size"] < 1:
        raise ConfigError("population_size must be >= 1")
    if out["archive_k"] < 1:
        raise ConfigError("archive_k must be >= 1")
    if out["threads"] < 1:
        raise ConfigError("threads must be >= 1")
    # at 0 no genotype or molecule fits: a GA never accepts a child and the
    # random baseline cannot draw a genotype
    for key in ("max_canonical_len", "max_genotype_len"):
        if out[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    if out["parent_selection"] not in ("uniform-survivors", "top-fraction"):
        raise ConfigError(f"unknown parent_selection {out['parent_selection']!r}")
    if not (out["use_discriminator"] is None or isinstance(out["use_discriminator"], bool)):
        raise ConfigError("use_discriminator must be true, false or null")
    for name, value in (("beta", out["beta"]), ("logp_qed.w_j", out["logp_qed"]["w_j"]),
                        ("logp_qed.w_qed", out["logp_qed"]["w_qed"]),
                        *((f"adaptive.{k}", out["adaptive"][k])
                          for k in ("low", "high", "epsilon"))):
        if not _is_number(value):
            raise ConfigError(f"{name} must be a number")
    if out["adaptive"]["low"] > out["adaptive"]["high"]:
        raise ConfigError("adaptive.low must be <= adaptive.high")
    if not (_is_number(out["top_fraction"]) and 0 < out["top_fraction"] <= 1):
        raise ConfigError("top_fraction must be a number in (0, 1]")
    delta = out["constrained"]["delta"]
    if not (_is_number(delta) and 0 <= delta <= 1):
        raise ConfigError("constrained.delta must be a number in [0, 1]")
    if not _is_number_list(out["beta_sweep"]["betas"]):
        raise ConfigError("beta_sweep.betas must be a non-empty list of numbers")
    targets = out["property_target"]["targets"]
    if not (targets is None or _is_number_list(targets) and len(targets) == 3):
        raise ConfigError("property_target.targets must be null or a list of 3 numbers")
    for section, key in (("constrained", "n_molecules"), ("property_target", "n_targets"),
                         ("random_baseline", "n_samples"), ("beta_sweep", "seeds_per_beta"),
                         ("adaptive", "window")):
        value = out[section][key]
        if not _is_int(value) or value < 1:
            raise ConfigError(f"{section}.{key} must be an integer >= 1")
    # a key left at its default changes nothing, so a materialized config
    # (the echo in run_report.json) parses again
    ignored = {key for key in set(doc) - _ALWAYS_READ - _RUNNERS[out["task"]][1]
               if out[key] != _DEFAULTS[key]}
    if ignored:
        raise ConfigError(f"task {out['task']!r} does not read {sorted(ignored)}")
    return out


def load_config_reference(config: dict) -> tuple[ReferenceSet, dict]:
    source = config["reference"]
    if source is None:
        path = bundled_reference_path()
        ref, report = load_reference(path)
        info = {"path": path, "usable": report.n_usable, "failed": report.n_failed}
    elif isinstance(source, dict) and "synthetic" in source:
        n = int(source["synthetic"])
        ref = synthetic_reference(n, seed=config["seed"])
        info = {"synthetic": n}
    elif isinstance(source, str):
        if not os.path.exists(source):
            raise ConfigError(f"reference file not found: {source}")
        ref, report = load_reference(source)
        info = {"path": source, "usable": report.n_usable, "failed": report.n_failed}
    else:
        raise ConfigError("reference must be a path, {\"synthetic\": N}, or null")
    return ref, info


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
    return hashlib.sha256(blob.encode()).hexdigest()


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
        ad = config["adaptive"]
        schedule = BetaSchedule.adaptive(ad["low"], ad["high"], ad["window"], ad["epsilon"])
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
        population_size=config["population_size"],
        generations=config["generations"],
        schedule=schedule,
        use_discriminator=use_discriminator,
        elite_count=config["elite_count"],
        parent_selection=config["parent_selection"],
        top_fraction=config["top_fraction"],
        max_canonical_len=config["max_canonical_len"],
        max_genotype_len=config["max_genotype_len"],
        archive_k=config["archive_k"],
        seed=config["seed"],
        snapshot_every=config["snapshot_every"],
        initial_genotypes=initial,
    )


def _archive_json(result: RunResult) -> list[dict]:
    return [
        {"canonical": e.canonical, "genotype": e.genotype_text,
         "score": e.score, "record": e.record.to_dict()}
        for e in result.archive
    ]


def _write_outputs(out_dir: str, report: dict, result: RunResult | None) -> None:
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
                    for genotype_text, _, _ in rows:
                        fh.write(genotype_text + "\n")
    report["determinism_hash"] = determinism_hash(report)
    with open(os.path.join(out_dir, "run_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


# Each runner takes (config, reference, out_dir) and returns the report's
# "result" and the RunResult whose trace is written, if the task has one.


def _run_ga(config: dict, ref: ReferenceSet, out_dir: str | None):
    cfg = _evolver_config(config)
    result = run(cfg, ref)
    summary = {
        "best_j": result.best_trace[-1],
        "best": _archive_json(result)[:5],
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
    return res.to_dict(), None


def _run_property_target(config: dict, ref: ReferenceSet, out_dir: str | None):
    p = config["property_target"]
    cfg = _evolver_config(config)
    if p["targets"] is not None:
        targets = tasks.PropertyTargets(*[float(x) for x in p["targets"]])
        res = tasks.run_property_target(targets, ref, cfg)
    else:
        res = tasks.run_property_target_batch(ref, cfg, n_targets=p["n_targets"])
    return res.to_dict(), None


def _run_logp_qed(config: dict, ref: ReferenceSet, out_dir: str | None):
    w = config["logp_qed"]
    res = tasks.run_logp_qed(ref, _evolver_config(config), w_j=w["w_j"], w_qed=w["w_qed"])
    return {"best": _archive_json(res.run)[:5], "archive_scatter": res.archive_scatter}, res.run


def _run_random_baseline(config: dict, ref: ReferenceSet, out_dir: str | None):
    res = tasks.run_random_baseline(
        ref, config["random_baseline"]["n_samples"], seed=config["seed"],
        max_canonical_len=config["max_canonical_len"],
        max_genotype_len=config["max_genotype_len"])
    return res.to_dict(), None


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
    return res.to_dict(), None


# Keys every task accepts; the rest of a task's keys sit next to its runner.
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


def _load_run_config(args, task: str | None = None) -> tuple[dict, str | None]:
    """The parsed config file with the --seed/--threads overrides applied,
    and the output directory."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if task is not None:
        doc["task"] = task
    config = parse_config(doc)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.threads is not None:
        config["threads"] = args.threads
    return config, args.out or config["output_dir"] or os.environ.get("MOLGA_OUT")


def _cmd_run(args) -> int:
    config, out_dir = _load_run_config(args)
    if args.synthetic_reference is not None:
        config["reference"] = {"synthetic": args.synthetic_reference}
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
    doc: dict[str, Any] = {"task": "random_baseline", "random_baseline": {"n_samples": args.n}}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.synthetic_reference is not None:
        doc["reference"] = {"synthetic": args.synthetic_reference}
    elif args.reference is not None:
        doc["reference"] = args.reference
    print(json.dumps(run_task(parse_config(doc), None)["result"], indent=2))
    return 0


def _cmd_analyze(args) -> int:
    report_path = os.path.join(args.run_dir, "run_report.json")
    if not os.path.exists(report_path):
        print(f"error: no run_report.json in {args.run_dir}", file=sys.stderr)
        return 1
    with open(report_path) as fh:
        report = json.load(fh)
    snap_dir = os.path.join(args.run_dir, "snapshots")
    if not os.path.isdir(snap_dir):
        print("error: run has no population snapshots (set snapshot_every)", file=sys.stderr)
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
                rows.append((graph.canonical(), rec.j, fingerprint(graph)))
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

    run_p = sub.add_parser("run", help="execute a run config (JSON)")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--threads", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--synthetic-reference", type=int, default=None,
                       help="replace the reference with N synthetic molecules")
    run_p.set_defaults(func=_cmd_run)

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

    sw_p = sub.add_parser("sweep", help="beta sweep from a config (JSON)")
    sw_p.add_argument("config")
    sw_p.add_argument("--seed", type=int, default=None)
    sw_p.add_argument("--threads", type=int, default=None)
    sw_p.add_argument("--out", default=None)
    sw_p.set_defaults(func=_cmd_sweep)
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


if __name__ == "__main__":
    entrypoint()
