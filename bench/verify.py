"""Correctness checks on one repetition's written outputs.

Every molecule a report names is re-derived from its genotype text on a
fresh MolecularGraph built from the decoded atoms and bonds, so neither
the decode memo nor a graph's cached canonical form can vouch for itself.
Each verifier returns a list of (check name, passed) pairs; the share that
failed is the benchmark's fail_frac.
"""

from __future__ import annotations

import os

from molga import cli, codec, graph, props


def fresh_graph(genotype_text: str) -> graph.MolecularGraph:
    g = codec.decode(codec.parse_genotype(genotype_text))
    return graph.MolecularGraph(g.elements, g.bond_list)


def _report_hash(report: dict) -> tuple[str, bool]:
    return ("determinism_hash recomputes",
            cli.determinism_hash(report) == report.get("determinism_hash"))


def verify_ga(report: dict, out_dir: str, ref) -> list[tuple[str, bool]]:
    """Unconstrained run: the reported archive entries and the trace files."""
    checks = [_report_hash(report)]

    def expect(name: str, ok) -> None:
        checks.append((name, bool(ok)))

    config, result = report["config"], report["result"]
    best = result["best"]
    expect("archive reported", len(best) > 0)
    for k, entry in enumerate(best):
        g = fresh_graph(entry["genotype"])
        j = props.penalized_logp(g, ref.prop_stats).j
        expect(f"best[{k}] canonical", g.canonical() == entry["canonical"])
        expect(f"best[{k}] j", j == entry["record"]["j"] == entry["score"])
    expect("best_j is the top archive score",
           bool(best) and result["best_j"] == best[0]["score"])
    with open(os.path.join(out_dir, "generations.csv")) as fh:
        rows = fh.read().splitlines()
    expect("generations.csv rows", len(rows) == config["generations"] + 2)
    every = config["snapshot_every"]
    snap_dir = os.path.join(out_dir, "snapshots")
    snaps = sorted(os.listdir(snap_dir)) if every and os.path.isdir(snap_dir) else []
    expect("snapshot count", len(snaps) == (config["generations"] // every + 1
                                            if every else 0))
    for name in snaps:
        with open(os.path.join(snap_dir, name)) as fh:
            n = sum(1 for line in fh if line.strip())
        expect(f"{name} population", n == config["population_size"])
    return checks


def verify_constrained(report: dict, out_dir: str, ref) -> list[tuple[str, bool]]:
    """Constrained batch: every non-error result's best molecule."""
    checks = [_report_hash(report)]

    def expect(name: str, ok) -> None:
        checks.append((name, bool(ok)))

    result = report["result"]
    usable = [r for r in result["results"] if r["error"] is None]
    expect("results reported",
           len(result["results"]) == report["config"]["constrained"]["n_molecules"])
    for k, r in enumerate(result["results"]):
        if r["error"] is not None:
            continue  # an unencodable reference molecule is reported, not run
        # the reference molecule itself always qualifies, so a best exists
        expect(f"result[{k}] has a best", r["best_genotype"] is not None)
        if r["best_genotype"] is None:
            continue
        g = fresh_graph(r["best_genotype"])
        j = props.penalized_logp(g, ref.prop_stats).j
        base = ref.graphs[ref.canonicals.index(r["reference_canonical"])]
        base = graph.MolecularGraph(base.elements, base.bond_list)
        sim = graph.tanimoto(g.fingerprint(), base.fingerprint())
        expect(f"result[{k}] canonical", g.canonical() == r["best_canonical"])
        expect(f"result[{k}] best_j", j == r["best_j"])
        expect(f"result[{k}] similarity", sim == r["best_similarity"] and sim > r["delta"])
        expect(f"result[{k}] improvement", r["improvement"] == j - r["reference_j"]
           and r["success"] == (r["improvement"] > 0))
    if usable:
        rate = sum(r["success"] for r in usable) / len(usable)
        expect("success_rate", result["success_rate"] == rate)
    return checks


def verify_random(report: dict, out_dir: str, ref) -> list[tuple[str, bool]]:
    """Random baseline: the sample count and the best sample."""
    checks = [_report_hash(report)]

    def expect(name: str, ok) -> None:
        checks.append((name, bool(ok)))

    result = report["result"]
    n = report["config"]["random_baseline"]["n_samples"]
    expect("n", result["n"] == n)
    expect("histogram total", sum(result["histogram_counts"]) == n)
    g = fresh_graph(result["best_genotype"])
    expect("best canonical", g.canonical() == result["best_canonical"])
    expect("max_j", props.penalized_logp(g, ref.prop_stats).j == result["max_j"])
    expect("max_j bounds mean_j", result["max_j"] >= result["mean_j"])
    return checks


VERIFIERS = {"ga_b10": verify_ga, "constrained_batch": verify_constrained,
             "random_scan": verify_random}
