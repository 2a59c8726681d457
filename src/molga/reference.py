"""Reference-set ingestion and normalization fitting.

Reads newline-delimited SMILES (with `#` comments), skipping and counting
unsupported lines, and fits the property z-score statistics; the
discriminator feature statistics are fit when a discriminator first reads
them. A synthetic mode generates the reference from random genotypes when
no file is available.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .codec import decode, random_genotype
from .discriminator import FeatureStats, stack_features
from .errors import MolgaError
from .graph import MolecularGraph, canonical_length_in, parse_smiles
from .props import EmptyReference, NormStats, PropertyRecord, fit_norm, penalized_logp

MIN_USABLE = 100
# a synthetic reference molecule's canonical length lies in this range; its
# genotype has at most SYNTHETIC_GENOTYPE_LEN symbols
SYNTHETIC_MIN_CANONICAL = 10
SYNTHETIC_MAX_CANONICAL = 81
SYNTHETIC_GENOTYPE_LEN = 60


@dataclass
class LoadReport:
    n_usable: int = 0
    n_failed: int = 0


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
    def features(self):
        """A (len, N_FEATURES) numpy array, one row per reference graph."""
        return stack_features(self.graphs)

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
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            smiles = line.split()[0]
            try:
                graphs.append(parse_smiles(smiles))
                report.n_usable += 1
            except MolgaError:
                report.n_failed += 1
    if report.n_usable < MIN_USABLE:
        raise EmptyReference(
            f"only {report.n_usable} usable molecules in {path} (need >= {MIN_USABLE})")
    return ReferenceSet(graphs), report


def synthetic_reference(n: int, seed: int) -> ReferenceSet:
    """Random-genotype stand-in for a real reference file.

    A sample is kept when its canonical string's length is in
    [SYNTHETIC_MIN_CANONICAL, SYNTHETIC_MAX_CANONICAL]; it is rendered only
    when the length bounds straddle that range."""
    rng = random.Random(seed)
    graphs: list[MolecularGraph] = []
    while len(graphs) < n:
        g = decode(random_genotype(rng, SYNTHETIC_GENOTYPE_LEN))
        if canonical_length_in(g, SYNTHETIC_MIN_CANONICAL, SYNTHETIC_MAX_CANONICAL):
            graphs.append(g)
    return ReferenceSet(graphs)
