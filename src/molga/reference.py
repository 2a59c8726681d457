"""Reference-set ingestion and normalization fitting.

Reads newline-delimited SMILES (with `#` comments), skipping unsupported
lines with a per-line report, and fits the property z-score statistics; the
discriminator feature statistics are fit when a discriminator first reads
them. A synthetic mode generates the reference from random genotypes when
no file is available.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codec import decode, random_genotype
from .discriminator import FeatureStats, featurize
from .errors import MolgaError
from .graph import MolecularGraph, canonical_length_bounds, parse_smiles
from .props import EmptyReference, NormStats, PropertyRecord, fit_norm, penalized_logp

MIN_USABLE = 100


@dataclass
class LoadReport:
    n_lines: int = 0
    n_usable: int = 0
    n_failed: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)


class ReferenceSet:
    """The reference molecules and what is fit on them.

    Construction fits only the property z-score statistics, which every task
    reads. The discriminator's features and their statistics, the property
    records and the canonical strings are derived on first read and kept.
    """

    def __init__(self, graphs: list[MolecularGraph]):
        if not graphs:
            raise EmptyReference("reference set is empty")
        self.graphs = graphs
        self.prop_stats: NormStats = fit_norm(graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    @cached_property
    def features(self) -> np.ndarray:
        return np.stack([featurize(g) for g in self.graphs])

    @cached_property
    def feature_stats(self) -> FeatureStats:
        return FeatureStats.fit(self.features)

    @cached_property
    def records(self) -> list[PropertyRecord]:
        return [penalized_logp(g, self.prop_stats) for g in self.graphs]

    @cached_property
    def canonicals(self) -> list[str]:
        return [g.canonical() for g in self.graphs]


def load_reference(path: str) -> tuple[ReferenceSet, LoadReport]:
    """Load a SMILES file, skipping bad lines; needs >= MIN_USABLE molecules."""
    report = LoadReport()
    graphs: list[MolecularGraph] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            report.n_lines += 1
            smiles = line.split()[0]
            try:
                graphs.append(parse_smiles(smiles))
                report.n_usable += 1
            except MolgaError as exc:
                report.n_failed += 1
                report.failures.append((lineno, str(exc)))
    if report.n_usable < MIN_USABLE:
        raise EmptyReference(
            f"only {report.n_usable} usable molecules in {path} (need >= {MIN_USABLE})")
    return ReferenceSet(graphs), report


def synthetic_reference(n: int, seed: int, min_canonical: int = 10,
                        max_canonical: int = 81,
                        max_genotype_len: int = 60) -> ReferenceSet:
    """Random-genotype stand-in for a real reference file.

    A sample is kept when its canonical string's length is in
    [min_canonical, max_canonical]; it is rendered only when the length
    bounds straddle that range."""
    rng = random.Random(seed)
    graphs: list[MolecularGraph] = []
    while len(graphs) < n:
        g = decode(random_genotype(rng, max_genotype_len))
        lo, hi = canonical_length_bounds(g)
        if hi < min_canonical or lo > max_canonical:
            continue  # no length the bounds allow is in range
        if (min_canonical <= lo and hi <= max_canonical
                or min_canonical <= len(g.canonical()) <= max_canonical):
            graphs.append(g)
    return ReferenceSet(graphs)
