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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .codec import N_SYMBOLS, PHENYL_SYMBOLS, Genotype, Symbol, decode
from .discriminator import DiscriminatorModel, featurize, init_model, predict, train
from .graph import MolecularGraph
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


def kill_probabilities(fitnesses: Sequence[float],
                       ages: Sequence[int] | None = None) -> list[float]:
    """Replacement probability from the rank-logistic rule,
    1 / (1 + exp(-KILL_SLOPE * (r - KILL_CENTER))) at normalized rank r.

    Individuals are ranked by fitness descending (ties: lower age first,
    then insertion order); normalized rank 0 is the best. A single-member
    population is never killed.
    """
    n = len(fitnesses)
    if n == 0:
        raise ValueError("empty fitness list")
    if n == 1:
        return [0.0]
    if ages is None:
        ages = [0] * n
    order = sorted(range(n), key=lambda i: (-fitnesses[i], ages[i], i))
    probs = [0.0] * n
    for rank, i in enumerate(order):
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


def mutate(g: Genotype, rng: random.Random, max_canonical_len: int = 81,
           max_genotype_len: int = 100) -> Genotype:
    """Single-symbol insertion/replacement or phenyl-block splice.

    The result must decode to a molecule whose canonical form fits
    max_canonical_len (and the genotype itself must fit max_genotype_len);
    up to MUTATION_RETRIES fresh draws, after which the parent is returned
    unchanged.
    """
    symbols = list(g.symbols)
    for _ in range(MUTATION_RETRIES):
        kind = draw_mutation_kind(rng)
        if kind == "phenyl":
            pos = rng.randint(0, len(symbols))
            cand = symbols[:pos] + list(PHENYL_SYMBOLS) + symbols[pos:]
        elif kind == "insert":
            pos = rng.randint(0, len(symbols))
            sym = Symbol(rng.randrange(N_SYMBOLS))
            cand = symbols[:pos] + [sym] + symbols[pos:]
        else:
            pos = rng.randrange(len(symbols))
            sym = Symbol(rng.randrange(N_SYMBOLS))
            cand = list(symbols)
            cand[pos] = sym
        if len(cand) > max_genotype_len:
            continue
        child = Genotype(tuple(cand))
        if len(decode(child).canonical()) <= max_canonical_len:
            return child
    return g


@dataclass
class Individual:
    genotype: Genotype
    graph: MolecularGraph
    canonical: str
    record: PropertyRecord
    score: float  # objective value (the J slot of the fitness)
    d: float = 0.0
    fitness: float = 0.0
    age: int = 0

    @cached_property
    def features(self) -> np.ndarray:
        # computed on first use: runs without a discriminator never read it
        return featurize(self.graph)


@dataclass(frozen=True)
class ArchiveEntry:
    canonical: str
    genotype_text: str
    score: float
    record: PropertyRecord


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
    schedule: BetaSchedule = field(default_factory=lambda: BetaSchedule.const(0.0))
    use_discriminator: bool = False
    elite_count: int = 1
    parent_selection: str = "uniform-survivors"  # or "top-fraction"
    top_fraction: float = 0.2
    max_canonical_len: int = 81
    max_genotype_len: int = 100
    archive_k: int = 50
    seed: int = 0
    snapshot_every: int = 0  # 0 disables population snapshots
    initial_genotypes: list[Genotype] | None = None

    def validate(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not (0 <= self.elite_count <= self.population_size):
            raise ValueError("elite_count out of range")
        if self.archive_k < 1:
            raise ValueError("archive_k must be >= 1")
        if self.parent_selection not in ("uniform-survivors", "top-fraction"):
            raise ValueError(f"unknown parent_selection {self.parent_selection!r}")


@dataclass
class RunResult:
    logs: list[GenerationLog]
    archive: list[ArchiveEntry]
    best_trace: list[float]  # best-ever objective after each generation
    beta_trace: list[float]
    population: list[Individual]
    snapshots: dict[int, list[tuple[str, str, float]]]  # gen -> (genotype, canonical, score)
    model: DiscriminatorModel | None = None

    @property
    def best(self) -> ArchiveEntry:
        return self.archive[0]


class Evolver:
    """Mutable run state; step() advances one generation."""

    def __init__(self, config: EvolverConfig, reference: ReferenceSet,
                 objective: Objective | None = None):
        config.validate()
        self.config = config
        self.reference = reference
        self.objective = objective
        self.rng = random.Random(config.seed)
        self.model: DiscriminatorModel | None = (
            init_model(self.rng, reference.feature_stats) if config.use_discriminator else None)
        self.population: list[Individual] = []
        self.archive: dict[str, ArchiveEntry] = {}
        self.generation = 0
        self.best_trace: list[float] = []
        self.beta_trace: list[float] = []
        self.n_ref_samples_last = 0

    # -- evaluation ---------------------------------------------------------

    def _evaluate(self, genotype: Genotype) -> Individual:
        graph = decode(genotype)
        record = penalized_logp(graph, self.reference.prop_stats)
        score = record.j if self.objective is None else self.objective(graph, record)
        return Individual(genotype=genotype, graph=graph, canonical=graph.canonical(),
                          record=record, score=score)

    def _update_archive(self, individuals: list[Individual]) -> None:
        for ind in individuals:
            cur = self.archive.get(ind.canonical)
            if cur is None or ind.score > cur.score:
                self.archive[ind.canonical] = ArchiveEntry(
                    ind.canonical, ind.genotype.text(), ind.score, ind.record)
        if len(self.archive) > self.config.archive_k:
            keep = sorted(self.archive.values(), key=lambda e: (-e.score, e.canonical))
            self.archive = {e.canonical: e for e in keep[: self.config.archive_k]}

    def archive_sorted(self) -> list[ArchiveEntry]:
        return sorted(self.archive.values(), key=lambda e: (-e.score, e.canonical))

    def best_ever(self) -> float:
        return max(e.score for e in self.archive.values())

    # -- lifecycle ----------------------------------------------------------

    def initialize(self) -> GenerationLog:
        cfg = self.config
        if cfg.initial_genotypes is not None:
            if len(cfg.initial_genotypes) != cfg.population_size:
                raise ValueError("initial_genotypes length must equal population_size")
            genotypes = list(cfg.initial_genotypes)
        else:
            genotypes = [Genotype((Symbol.C,))] * cfg.population_size
        self.population = [self._evaluate(g) for g in genotypes]
        self._refresh_d_scores()
        self._update_archive(self.population)
        self.best_trace = [self.best_ever()]
        beta = next_beta(cfg.schedule, 0, [])
        self.beta_trace = [beta]
        for ind in self.population:
            ind.fitness = fitness(ind.score, ind.d, beta)
        return self._log(beta, n_replaced=0)

    def _refresh_d_scores(self) -> None:
        if self.model is not None:
            feats = np.stack([ind.features for ind in self.population])
            d = predict(self.model, feats)
            for ind, val in zip(self.population, d):
                ind.d = float(val)
        else:
            for ind in self.population:
                ind.d = 0.0

    def step(self, beta: float) -> GenerationLog:
        """One generation: select, refill, evaluate, train, archive."""
        cfg = self.config
        pop = self.population
        n = len(pop)
        for ind in pop:
            ind.fitness = fitness(ind.score, ind.d, beta)

        probs = kill_probabilities([i.fitness for i in pop], [i.age for i in pop])
        kill = [self.rng.random() < probs[i] for i in range(n)]
        elite_order = sorted(range(n), key=lambda i: (-pop[i].fitness, pop[i].age, i))
        for e in elite_order[: cfg.elite_count]:
            kill[e] = False

        survivors = [i for i in range(n) if not kill[i]]
        killed = [i for i in range(n) if kill[i]]
        if cfg.parent_selection == "top-fraction":
            ranked = sorted(survivors, key=lambda i: (-pop[i].fitness, pop[i].age, i))
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

        if self.model is not None:
            ga_feats = np.stack([ind.features for ind in pop])
            ref_idx = [self.rng.randrange(len(self.reference)) for _ in range(n)]
            self.n_ref_samples_last = len(ref_idx)
            ref_feats = self.reference.features[ref_idx]
            train(self.model, ga_feats, ref_feats, rng=self.rng)
        self._refresh_d_scores()

        self._update_archive(children)
        self.generation += 1
        self.best_trace.append(self.best_ever())
        self.beta_trace.append(beta)
        return self._log(beta, n_replaced=len(killed))

    def _log(self, beta: float, n_replaced: int) -> GenerationLog:
        pop = self.population
        best = max(pop, key=lambda i: i.score)
        return GenerationLog(
            generation=self.generation,
            max_j=best.score,
            mean_j=sum(i.score for i in pop) / len(pop),
            max_f=max(i.fitness for i in pop),
            mean_d=sum(i.d for i in pop) / len(pop),
            beta=beta,
            n_replaced=n_replaced,
            best_canonical=best.canonical,
        )


def run(config: EvolverConfig, reference: ReferenceSet,
        objective: Objective | None = None,
        log_callback: Callable[[GenerationLog], None] | None = None,
        stop_condition: Callable[[Evolver], bool] | None = None) -> RunResult:
    """Drive an Evolver for the configured number of generations.

    `stop_condition` is checked after every generation and ends the run
    early when it returns True (used by target-seeking tasks).
    """
    ev = Evolver(config, reference, objective)
    logs = [ev.initialize()]
    snapshots: dict[int, list[tuple[str, str, float]]] = {}

    def snap() -> None:
        if config.snapshot_every and ev.generation % config.snapshot_every == 0:
            snapshots[ev.generation] = [
                (i.genotype.text(), i.canonical, i.score) for i in ev.population
            ]

    snap()
    if log_callback:
        log_callback(logs[0])
    if not (stop_condition is not None and stop_condition(ev)):
        for t in range(1, config.generations + 1):
            beta = next_beta(config.schedule, t, ev.best_trace)
            entry = ev.step(beta)
            logs.append(entry)
            snap()
            if log_callback:
                log_callback(entry)
            if stop_condition is not None and stop_condition(ev):
                break
    return RunResult(
        logs=logs,
        archive=ev.archive_sorted(),
        best_trace=list(ev.best_trace),
        beta_trace=list(ev.beta_trace),
        population=ev.population,
        snapshots=snapshots,
        model=ev.model,
    )
