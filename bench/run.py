"""molga benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/molga`. Repeats the workload,
each repetition in a fresh worker process, until about S seconds have
passed (never fewer than MIN_REPS repetitions), checks every repetition's
outputs and that all repetitions report one determinism hash, and prints
one JSON result as the last stdout line. With `--trace 0` it holds the
end-to-end metrics (medians over repetitions); with `--trace 1` traced and
untraced repetitions alternate and it holds the per-layer metrics (medians
over the traced ones) plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from statistics import median
import subprocess
import sys
import time

import layers
from workloads import WHY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
REP_TIMEOUT_S = 120.0
TOTAL_LIMIT_S = 170.0  # a run must end well inside 180 s
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]


def run_rep(workload: str, seed: int, traced: bool, out_dir: str,
            timeout: float) -> dict:
    """One worker process; returns its result, or {"error": ...}."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), "--out", out_dir]
    if traced:
        cmd.append("--trace")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["traced"] = traced
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "molga", "cli.py")):
        print(f"bench: no src/molga under {ROOT}; run from a molga checkout",
              file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    began = time.perf_counter()
    reps: list[dict] = []
    errors: list[str] = []
    while True:
        elapsed = time.perf_counter() - began
        if len(reps) >= MIN_REPS:
            typical = median([r["wall_s"] for r in reps])
            if elapsed + typical > args.seconds:
                break
        remaining = TOTAL_LIMIT_S - elapsed
        if remaining < 5:
            break
        # traced first, so a run of MIN_REPS has two traced repetitions
        traced = bool(args.trace) and len(reps) % 2 == 0
        out_dir = os.path.join(out_root, f"{os.getpid()}-{len(reps)}")
        rep = run_rep(args.workload, args.seed, traced, out_dir,
                      min(REP_TIMEOUT_S, remaining))
        if "error" in rep:
            errors.append(rep["error"])
            break
        reps.append(rep)
    try:
        os.rmdir(out_root)
    except OSError:
        pass  # another run is using it
    for err in errors:
        print(f"bench: repetition failed: {err}", file=sys.stderr)
    if not reps:
        return 1

    checks = [(name, ok) for r in reps for name, ok in r["checks"]]
    hashes = [r["determinism_hash"] for r in reps]
    checks += [("determinism_hash matches first repetition", h == hashes[0])
               for h in hashes[1:]]
    checks += [("repetition completed", False) for _ in errors]
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"bench: check failed: {name}", file=sys.stderr)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if args.trace:
        per_rep = [layers.layer_metrics(r["trace"], r) for r in traced]
        metrics = {name: {"value": median([m[name] for m in per_rep]), "unit": unit}
                   for name, unit, _, _ in layers.METRICS}
        name, unit, _ = layers.OVERHEAD_METRIC
        overhead = (median([r["run_s"] for r in traced])
                    / median([r["run_s"] for r in plain]) - 1.0) if plain else 0.0
        metrics[name] = {"value": overhead, "unit": unit}
    else:
        metrics = {name: {"value": median([r[name] for r in plain]), "unit": unit}
                   for name, unit in END_TO_END}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_frac": len(failed) / len(checks), "failed_checks": failed,
        "determinism_hashes": hashes,
        "reps": [{k: r[k] for k in ("traced", "setup_s", "run_s", "peak_rss_mb", "wall_s")}
                 for r in reps],
    }))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
