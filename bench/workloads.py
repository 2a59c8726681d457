"""The benchmark's workloads: one run config per workload, built from the
benchmark seed. All are single-process (`threads: 1`) and use the bundled
1k reference, so every repetition pays the same set-up.

Why each one exists is in WHY (also copied into BENCHMARK.json) and in
README.md next to this file.
"""

from __future__ import annotations

WHY = {
    "ga_b10": "paper config: pop 500, beta 10, discriminator trained; "
              "growing chains; about 60% of decodes repeat a genotype",
    "constrained_batch": "constrained batch from ring-rich reference molecules: "
                         "encode, fingerprint and Tanimoto; no discriminator",
    "random_scan": "random baseline: distinct genotypes, so decodes miss the memo; "
                   "no discriminator, no fingerprints",
}


def config(workload: str, seed: int) -> dict:
    """The run config document handed to cli.parse_config."""
    if workload == "ga_b10":
        return {"task": "unconstrained", "population_size": 500, "generations": 20,
                "beta": 10.0, "snapshot_every": 10, "seed": seed, "threads": 1}
    if workload == "constrained_batch":
        return {"task": "constrained_similarity", "population_size": 100,
                "generations": 20, "seed": seed, "threads": 1,
                "constrained": {"n_molecules": 5, "delta": 0.4}}
    if workload == "random_scan":
        return {"task": "random_baseline", "seed": seed, "threads": 1,
                "random_baseline": {"n_samples": 15000}}
    raise ValueError(f"unknown workload {workload!r}")
