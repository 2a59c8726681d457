"""One repetition of a workload, in a fresh process so that the decode memo
and the graph caches start empty, as they do for a user.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace]

Drives `cli.run_task(cli.parse_config(doc), DIR)`, then checks the written
outputs, and prints one JSON object as its last stdout line.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def out_bytes(out_dir: str) -> int:
    """Bytes of the run's output files, less run_report.json, whose timing
    field changes length from run to run."""
    total = 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            if not (dirpath == out_dir and name == "run_report.json"):
                total += os.path.getsize(os.path.join(dirpath, name))
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from molga import cli

    import_s = time.perf_counter() - _START
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"bench: molga imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import layers
    import workloads

    loaded = {}
    load_config_reference = cli.load_config_reference

    def timed_load(config):
        start = time.perf_counter()
        loaded["value"] = load_config_reference(config)
        loaded["s"] = time.perf_counter() - start
        return loaded["value"]

    cli.load_config_reference = timed_load
    tracer = layers.install() if args.trace else None
    start = time.perf_counter()
    cli.run_task(cli.parse_config(workloads.config(args.workload, args.seed)), args.out)
    task_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    cli.load_config_reference = load_config_reference

    import verify

    with open(os.path.join(args.out, "run_report.json")) as fh:
        report = json.load(fh)
    checks = verify.VERIFIERS[args.workload](report, args.out, loaded["value"][0])
    print(json.dumps({
        "setup_s": import_s + loaded["s"],
        "run_s": task_s - loaded["s"],
        "peak_rss_mb": peak_rss_mb,
        "determinism_hash": report["determinism_hash"],
        "checks": checks,
        "out_bytes": out_bytes(args.out),
        "trace": tracer.snapshot() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
