"""Outside-in call tracer.

A traced function is replaced, at every module binding it is looked up
through, by one wrapper that opens a span per call; a traced method is
replaced on its class. Spans nest on a single stack (the traced workloads
are single-threaded), so a span's self time is its duration minus the
durations of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

# probe(counters, args) runs before the call and may return after(result)
Probe = Callable[[dict, tuple], "Callable[[object], None] | None"]


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0  # wall time with at least one call of this name open
    self_s: float = 0.0  # call durations minus directly nested spans
    max_s: float = 0.0  # longest single call
    counters: dict = field(default_factory=dict)
    open: int = 0  # calls of this name currently on the stack

    def to_dict(self) -> dict:
        return {"calls": self.calls, "busy_s": self.busy_s, "self_s": self.self_s,
                "max_s": self.max_s, "counters": dict(self.counters)}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._nested: list[list[float]] = []  # per open span: nested duration
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        """Return `fn` wrapped in a span named `name`."""
        stat = self.stats.setdefault(name, Stat())
        clock, nested = self.clock, self._nested

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = probe(stat.counters, args) if probe is not None else None
            inner = [0.0]
            nested.append(inner)
            stat.open += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                nested.pop()
                stat.open -= 1
                stat.calls += 1
                stat.self_s += duration - inner[0]
                if duration > stat.max_s:
                    stat.max_s = duration
                if stat.open == 0:
                    stat.busy_s += duration
                if nested:
                    nested[-1][0] += duration
            if after is not None:
                after(result)
            return result

        return traced

    def patch_function(self, name: str, fn: Callable, modules: Iterable[object],
                       probe: Probe | None = None) -> int:
        """Wrap `fn` under every name that binds it in `modules`; returns the
        number of bindings replaced."""
        wrapper = self.wrap(name, fn, probe)
        n = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    n += 1
        return n

    def patch_method(self, name: str, cls: type, attr: str,
                     probe: Probe | None = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, probe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, dict]:
        return {name: stat.to_dict() for name, stat in self.stats.items()}
