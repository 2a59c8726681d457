"""Discriminator-weight control: the stagnation-triggered schedule that
toggles between a low and a high weight; equal levels give a constant one."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class BetaSchedule:
    """Step schedule for the discriminator weight.

    It starts at `low`; after `window` consecutive generations in which the
    best-ever objective improved by no more than `epsilon`, it switches to
    `high`, and drops back to `low` on the first strict improvement after
    that. With `low == high` the weight is constant.
    """

    low: float = 0.0
    high: float = 1000.0
    window: int = 20
    epsilon: float = 1e-3


def next_beta(schedule: BetaSchedule, best_j_history: Sequence[float]) -> float:
    """Beta for the upcoming generation.

    `best_j_history[i]` is the best-ever objective after generation i, so
    the upcoming generation is generation `len(best_j_history)`. The
    schedule holds no state: the weight is found by replaying the whole
    history, so one schedule can serve any number of runs. A constant
    schedule replays nothing.
    """
    if schedule.low == schedule.high:
        return schedule.low
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
