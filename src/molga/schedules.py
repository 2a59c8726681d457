"""Discriminator-weight control: constant beta or the stagnation-triggered
adaptive schedule that toggles between a low and a high weight."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class BetaSchedule:
    """Step schedule for the discriminator weight.

    Constant mode always returns `constant`. Adaptive mode starts at `low`;
    after `window` consecutive generations in which the best-ever objective
    improved by no more than `epsilon`, it switches to `high`, and drops
    back to `low` on the first strict improvement after that.
    """

    mode: str = "constant"  # "constant" | "adaptive"
    constant: float = 0.0
    low: float = 0.0
    high: float = 1000.0
    window: int = 20
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("constant", "adaptive"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @staticmethod
    def const(beta: float) -> "BetaSchedule":
        return BetaSchedule(mode="constant", constant=beta)


def next_beta(schedule: BetaSchedule, gen: int, best_j_history: Sequence[float]) -> float:
    """Beta for the upcoming generation.

    `best_j_history[i]` is the best-ever objective after generation i; its
    length must equal `gen`. The schedule holds no state: the adaptive
    weight is found by replaying the whole history, so one schedule can
    serve any number of runs.
    """
    if len(best_j_history) != gen:
        raise ValueError(f"history length {len(best_j_history)} != generation index {gen}")
    if schedule.mode == "constant":
        return schedule.constant
    beta = schedule.low
    best_at_improvement: float | None = None
    since_improvement = 0
    for latest in best_j_history:
        if best_at_improvement is None:
            best_at_improvement = latest
        elif latest > best_at_improvement + schedule.epsilon:
            best_at_improvement = latest
            since_improvement = 0
            beta = schedule.low
        else:
            since_improvement += 1
            if since_improvement >= schedule.window:
                beta = schedule.high
    return beta
