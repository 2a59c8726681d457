"""Each verifier passes a real report and flags a deliberately corrupted
one; BENCHMARK.json agrees with the tables the benchmark code uses."""

import copy
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from molga import cli  # noqa: E402

# the workloads' tasks at toy sizes
TINY = {
    "ga_b10": {"population_size": 20, "generations": 4, "snapshot_every": 2},
    "constrained_batch": {"population_size": 10, "generations": 2,
                          "constrained": {"n_molecules": 2, "delta": 0.4}},
    "random_scan": {"random_baseline": {"n_samples": 200}},
}

# runs use the leading molecules of the bundled reference: loading all 1k
# takes about a second per run; the loader needs at least 100
REFERENCE_MOLECULES = 120


@pytest.fixture(scope="module")
def reference_path(tmp_path_factory) -> str:
    with open(cli.bundled_reference_path()) as fh:
        smiles = [line for line in fh if line.strip() and not line.startswith("#")]
    path = tmp_path_factory.mktemp("reference") / "reference.smi"
    path.write_text("".join(smiles[:REFERENCE_MOLECULES]))
    return str(path)


@pytest.fixture(scope="module")
def reference(reference_path):
    return cli.load_config_reference(cli.parse_config({"reference": reference_path}))[0]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory, reference_path) -> dict[str, tuple[dict, str]]:
    """One run per workload: (report, output dir). Tests corrupt copies only."""
    runs = {}
    for workload in TINY:
        out_dir = str(tmp_path_factory.mktemp(workload))
        doc = {**workloads.config(workload, seed=3), **TINY[workload],
               "reference": reference_path}
        cli.run_task(cli.parse_config(doc), out_dir)
        with open(os.path.join(out_dir, "run_report.json")) as fh:
            runs[workload] = (json.load(fh), out_dir)
    return runs


def failed(workload, report, out_dir, ref) -> set[str]:
    return {name for name, ok in verify.VERIFIERS[workload](report, out_dir, ref) if not ok}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_real_report_passes(workload, tiny_runs, reference):
    report, out = tiny_runs[workload]
    results = verify.VERIFIERS[workload](report, out, reference)
    assert len(results) >= 4
    assert failed(workload, report, out, reference) == set()


def test_ga_corruptions(tmp_path, tiny_runs, reference):
    report, shared = tiny_runs["ga_b10"]
    out = shutil.copytree(shared, str(tmp_path / "out"))  # a snapshot is removed below

    bad = copy.deepcopy(report)
    bad["result"]["best"][0]["canonical"] += "C"
    assert "best[0] canonical" in failed("ga_b10", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["best"][1]["record"]["j"] += 1e-9
    assert "best[1] j" in failed("ga_b10", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["best"][0]["genotype"] = "[C]"
    assert {"best[0] canonical", "best[0] j"} <= failed("ga_b10", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["best_trace"][-1] += 1.0
    assert failed("ga_b10", bad, out, reference) == {"determinism_hash recomputes"}

    os.remove(os.path.join(out, "snapshots", "gen_00002.txt"))
    assert "snapshot count" in failed("ga_b10", report, out, reference)


def test_constrained_corruptions(tiny_runs, reference):
    report, out = tiny_runs["constrained_batch"]

    bad = copy.deepcopy(report)
    bad["result"]["results"][0]["best_j"] += 0.5
    assert "result[0] best_j" in failed("constrained_batch", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["results"][0]["improvement"] += 0.5
    assert "result[0] improvement" in failed("constrained_batch", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["results"][1]["best_similarity"] = 0.99
    assert "result[1] similarity" in failed("constrained_batch", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["results"][1]["best_canonical"] = "CC"
    assert "result[1] canonical" in failed("constrained_batch", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["results"].pop()
    assert "results reported" in failed("constrained_batch", bad, out, reference)


def test_random_corruptions(tiny_runs, reference):
    report, out = tiny_runs["random_scan"]

    bad = copy.deepcopy(report)
    bad["result"]["n"] -= 1
    assert "n" in failed("random_scan", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["max_j"] += 1e-9
    assert "max_j" in failed("random_scan", bad, out, reference)

    bad = copy.deepcopy(report)
    bad["result"]["best_canonical"] = "C"
    assert "best canonical" in failed("random_scan", bad, out, reference)


def test_benchmark_json_matches_code():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert set(verify.VERIFIERS) == set(workloads.WHY)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    per_layer = [(n, u, b) for n, u, b, _ in layers.METRICS] + [layers.OVERHEAD_METRIC]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == per_layer
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
