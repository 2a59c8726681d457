"""The generation loop.

Fitness is objective plus beta times the discriminator score. Each
generation ranks the population, kills members with a rank-logistic
probability (the elite always survives), refills killed slots with mutants
of surviving parents, then retrains the discriminator on the new population
against a fresh reference sample.

RNG discipline: one logical stream per run, consumed in a fixed order each
generation - kill draws (one per slot, in index order), then per killed
slot in index order a parent draw followed by that slot's mutation draws,
then the reference-sample draws, then the training shuffles. Evaluation of
individuals never touches the stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .codec import N_SYMBOLS, PHENYL_SYMBOLS, Genotype, Symbol, decode
from .discriminator import DiscriminatorModel, init_model, predict, stack_features, train
from .graph import MolecularGraph, canonical_length_in
from .props import PropertyRecord, penalized_logp
from .reference import ReferenceSet
from .schedules import BetaSchedule, next_beta

Objective = Callable[[MolecularGraph, PropertyRecord], float]

KILL_SLOPE = 10.0
KILL_CENTER = 0.5
MUTATION_RETRIES = 10


def fitness(j: float, d: float, beta: float) -> float:
    """Selection score: objective plus weighted discriminator score."""
    return j + beta * d


def _ranked(indices: Sequence[int], fitnesses: Sequence[float],
            ages: Sequence[int]) -> list[int]:
    """The indices best first: fitness descending, then lower age, then
    lower index."""
    return sorted(indices, key=lambda i: (-fitnesses[i], ages[i], i))


def kill_probabilities(fitnesses: Sequence[float], ages: Sequence[int],
                       elite_count: int) -> list[float]:
    """Replacement probability from the rank-logistic rule,
    1 / (1 + exp(-KILL_SLOPE * (r - KILL_CENTER))) at normalized rank r.

    Normalized rank 0 is the best (see `_ranked`). The `elite_count` best
    ranks get probability 0, and a single-member population is never killed.
    """
    n = len(fitnesses)
    if n == 1:
        return [0.0]
    probs = [0.0] * n
    for rank, i in enumerate(_ranked(range(n), fitnesses, ages)):
        if rank >= elite_count:
            r = rank / (n - 1)
            probs[i] = 1.0 / (1.0 + math.exp(-KILL_SLOPE * (r - KILL_CENTER)))
    return probs


def draw_mutation_kind(rng: random.Random) -> str:
    """'phenyl' with p=0.04, otherwise 'insert'/'replace' 0.48 each."""
    r = rng.random()
    if r < 0.04:
        return "phenyl"
    if r < 0.52:
        return "insert"
    return "replace"


def mutate(g: Genotype, rng: random.Random, max_canonical_len: int,
           max_genotype_len: int) -> Genotype:
    """Single-symbol insertion/replacement or phenyl-block splice.

    The result must decode to a molecule whose canonical form fits
    max_canonical_len (and the genotype itself must fit max_genotype_len);
    up to MUTATION_RETRIES fresh draws, after which the parent is returned
    unchanged. The canonical string is rendered only when its length
    bounds straddle the cap (see `graph.canonical_length_in`).
    """
    symbols = g.symbols
    for _ in range(MUTATION_RETRIES):
        kind = draw_mutation_kind(rng)
        if kind == "phenyl":
            pos = rng.randint(0, len(symbols))
            cand = symbols[:pos] + PHENYL_SYMBOLS + symbols[pos:]
        elif kind == "insert":
            pos = rng.randint(0, len(symbols))
            sym = bytes((rng.randrange(N_SYMBOLS),))
            cand = symbols[:pos] + sym + symbols[pos:]
        else:
            pos = rng.randrange(len(symbols))
            sym = bytes((rng.randrange(N_SYMBOLS),))
            cand = symbols[:pos] + sym + symbols[pos + 1:]
        if len(cand) > max_genotype_len:
            continue
        child = Genotype(cand)
        if canonical_length_in(decode(child), 1, max_canonical_len):
            return child
    return g


@dataclass
class Individual:
    genotype: Genotype
    graph: MolecularGraph
    record: PropertyRecord
    score: float  # objective value (the J slot of the fitness)
    d: float = 0.0
    age: int = 0

    @property
    def canonical(self) -> str:
        # rendered on first read: most children never reach the archive
        return self.graph.canonical()


@dataclass(frozen=True)
class ArchiveEntry:
    canonical: str
    genotype_text: str
    score: float
    record: PropertyRecord


def _archive_order(entry: ArchiveEntry) -> tuple[float, str]:
    """The archive's ranking: score descending, then canonical string."""
    return -entry.score, entry.canonical


@dataclass
class GenerationLog:
    generation: int
    max_j: float
    mean_j: float
    max_f: float
    mean_d: float
    beta: float
    n_replaced: int
    best_canonical: str

    CSV_HEADER = "generation,max_j,mean_j,max_f,mean_d,beta,n_replaced,best_canonical"

    def csv_row(self) -> str:
        return (f"{self.generation},{self.max_j:.6f},{self.mean_j:.6f},"
                f"{self.max_f:.6f},{self.mean_d:.6f},{self.beta:g},"
                f"{self.n_replaced},{self.best_canonical}")


@dataclass
class EvolverConfig:
    population_size: int = 500
    generations: int = 100
    schedule: BetaSchedule = BetaSchedule(low=0.0, high=0.0)
    use_discriminator: bool = False
    elite_count: int = 1
    parent_selection: str = "uniform-survivors"  # or "top-fraction"
    top_fraction: float = 0.2
    max_canonical_len: int = 81
    max_genotype_len: int = 100
    archive_k: int = 50
    seed: int = 0
    snapshot_every: int = 0  # 0 disables population snapshots
    initial_genotypes: list[Genotype] | None = None  # population_size of them


class Evolver:
    """The run's state: its inputs, the RNG stream, the discriminator, the
    population, the archive and the per-generation traces. `initialize()`
    starts generation 0 and `step()` advances one generation."""

    def __init__(self, config: EvolverConfig, reference: ReferenceSet,
                 objective: Objective | None):
        self.config = config
        self.reference = reference
        self.objective = objective
        self.rng = random.Random(config.seed)
        self.model: DiscriminatorModel | None = (
            init_model(self.rng, reference.feature_stats) if config.use_discriminator else None)
        self.population: list[Individual] = []
        self.archive: dict[str, ArchiveEntry] = {}
        self.best_trace: list[float] = []  # best-ever objective after each generation
        self.logs: list[GenerationLog] = []
        self.snapshots: dict[int, list[tuple[str, float]]] = {}  # gen -> (genotype, score)

    @property
    def generation(self) -> int:
        return len(self.logs) - 1

    @property
    def beta_trace(self) -> list[float]:
        return [log.beta for log in self.logs]

    # -- evaluation ---------------------------------------------------------

    def _evaluate(self, genotype: Genotype) -> Individual:
        graph = decode(genotype)
        record = penalized_logp(graph, self.reference.prop_stats)
        score = record.j if self.objective is None else self.objective(graph, record)
        return Individual(genotype=genotype, graph=graph, record=record, score=score)

    def _update_archive(self, individuals: list[Individual]) -> None:
        # A full archive keeps its archive_k canonicals, each at its score
        # or better, so an individual scoring strictly below all of them is
        # trimmed again (or replaces nothing) and its string is never read.
        floor = (min(e.score for e in self.archive.values())
                 if len(self.archive) >= self.config.archive_k else -math.inf)
        for ind in individuals:
            if ind.score < floor:
                continue
            cur = self.archive.get(ind.canonical)
            if cur is None or ind.score > cur.score:
                self.archive[ind.canonical] = ArchiveEntry(
                    ind.canonical, ind.genotype.text(), ind.score, ind.record)
        if len(self.archive) > self.config.archive_k:
            keep = sorted(self.archive.values(), key=_archive_order)
            self.archive = {e.canonical: e for e in keep[: self.config.archive_k]}

    def archive_sorted(self) -> list[ArchiveEntry]:
        return sorted(self.archive.values(), key=_archive_order)

    def best_ever(self) -> float:
        return max(e.score for e in self.archive.values())

    # -- lifecycle ----------------------------------------------------------

    def initialize(self) -> GenerationLog:
        cfg = self.config
        if cfg.initial_genotypes is not None:
            genotypes = list(cfg.initial_genotypes)
        else:
            genotypes = [Genotype(bytes((Symbol.C,)))] * cfg.population_size
        self.population = [self._evaluate(g) for g in genotypes]
        return self._end_generation(next_beta(cfg.schedule, []), self.population, 0)

    def step(self, beta: float) -> GenerationLog:
        """One generation: select, refill, evaluate, train, archive."""
        cfg = self.config
        pop = self.population
        n = len(pop)
        fits = [fitness(ind.score, ind.d, beta) for ind in pop]
        ages = [ind.age for ind in pop]
        probs = kill_probabilities(fits, ages, cfg.elite_count)
        kill = [self.rng.random() < p for p in probs]  # an elite draws too, against 0

        survivors = [i for i in range(n) if not kill[i]]
        killed = [i for i in range(n) if kill[i]]
        if cfg.parent_selection == "top-fraction":
            ranked = _ranked(survivors, fits, ages)
            pool = ranked[: max(1, int(len(ranked) * cfg.top_fraction))]
        else:
            pool = survivors

        child_genotypes: list[Genotype] = []
        for _ in killed:
            parent = pop[pool[self.rng.randrange(len(pool))]]
            child_genotypes.append(
                mutate(parent.genotype, self.rng, cfg.max_canonical_len,
                       cfg.max_genotype_len))
        children = [self._evaluate(g) for g in child_genotypes]
        for slot, child in zip(killed, children):
            pop[slot] = child
        for i in survivors:
            pop[i].age += 1
        return self._end_generation(beta, children, len(killed))

    def _end_generation(self, beta: float, new: list[Individual],
                        n_replaced: int) -> GenerationLog:
        """Train D (after generation 0) and score with it, archive the new
        members, and record the generation's trace, log and snapshot; max_f
        is the best fitness at `beta`."""
        pop = self.population
        if self.model is not None:
            feats = stack_features(ind.graph for ind in pop)
            if self.logs:  # generation 0 is scored by the untrained model
                ref_idx = [self.rng.randrange(len(self.reference)) for _ in pop]
                train(self.model, feats, self.reference.features[ref_idx], rng=self.rng)
            d = predict(self.model, feats)
            for ind, val in zip(pop, d):
                ind.d = float(val)
        self._update_archive(new)
        self.best_trace.append(self.best_ever())
        gen = len(self.logs)
        best = max(pop, key=lambda i: i.score)
        log = GenerationLog(
            generation=gen,
            max_j=best.score,
            mean_j=sum(i.score for i in pop) / len(pop),
            max_f=max(fitness(i.score, i.d, beta) for i in pop),
            mean_d=sum(i.d for i in pop) / len(pop),
            beta=beta,
            n_replaced=n_replaced,
            best_canonical=best.canonical,
        )
        self.logs.append(log)
        every = self.config.snapshot_every
        if every and gen % every == 0:
            self.snapshots[gen] = [(i.genotype.text(), i.score) for i in pop]
        return log


def run(config: EvolverConfig, reference: ReferenceSet,
        objective: Objective | None = None,
        stop_condition: Callable[[Evolver], bool] | None = None) -> Evolver:
    """Run an Evolver for the configured number of generations and return it.

    `stop_condition` is checked after every generation and ends the run
    early when it returns True (used by target-seeking tasks).
    """
    ev = Evolver(config, reference, objective)
    ev.initialize()
    while ev.generation < config.generations and not (
            stop_condition is not None and stop_condition(ev)):
        ev.step(next_beta(config.schedule, ev.best_trace))
    return ev
