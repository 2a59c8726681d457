"""Tracer arithmetic on synthetic calls, and its installation on molga."""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)
        inner()

    tracer.wrap("outer", outer)()
    s = tracer.snapshot()
    assert s["outer"] == {"calls": 1, "busy_s": 8.0, "self_s": 4.0, "max_s": 8.0,
                          "counters": {}}
    assert s["inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0, "max_s": 2.0,
                          "counters": {}}


def test_recursion_counts_busy_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    holder = {}

    def countdown(n):
        clock.advance(1.0)
        if n:
            holder["f"](n - 1)

    holder["f"] = tracer.wrap("countdown", countdown)
    holder["f"](2)  # three nested calls of 3, 2 and 1 s
    s = tracer.snapshot()["countdown"]
    assert s["calls"] == 3
    assert s["busy_s"] == 3.0
    assert s["self_s"] == 3.0
    assert s["max_s"] == 3.0


def test_exception_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    boom = tracer.wrap("boom", boom)

    def outer():
        with pytest.raises(KeyError):
            boom()
        clock.advance(1.0)

    tracer.wrap("outer", outer)()
    s = tracer.snapshot()
    assert s["boom"]["calls"] == 1
    assert s["outer"]["self_s"] == 1.0


def test_probe_sees_arguments_and_result():
    tracer = Tracer(FakeClock())

    def probe(counters, args):
        counters["args"] = counters.get("args", 0) + args[0]

        def after(result):
            counters["results"] = counters.get("results", 0) + result

        return after

    double = tracer.wrap("double", lambda x: 2 * x, probe)
    double(1)
    double(5)
    assert tracer.snapshot()["double"]["counters"] == {"args": 6, "results": 12}


def test_patch_every_binding_then_restore():
    def fn():
        return 1

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    other = types.ModuleType("other")
    home.fn, user.fn, user.alias, other.fn = fn, fn, fn, (lambda: 2)
    tracer = Tracer(FakeClock())
    assert tracer.patch_function("home.fn", fn, [home, user, other]) == 3
    assert home.fn is user.fn is user.alias
    assert home.fn is not fn
    assert other.fn() == 2
    home.fn()
    user.alias()
    assert tracer.snapshot()["home.fn"]["calls"] == 2
    tracer.uninstall()
    assert home.fn is fn and user.fn is fn and user.alias is fn


def test_patch_method_then_restore():
    class Box:
        def value(self):
            return 7

    original = Box.__dict__["value"]
    tracer = Tracer(FakeClock())
    tracer.patch_method("box.value", Box, "value")
    assert Box().value() == 7
    assert tracer.snapshot()["box.value"]["calls"] == 1
    tracer.uninstall()
    assert Box.__dict__["value"] is original


def test_install_on_molga_counts_methods_once():
    import layers
    from molga import codec, evolver, graph, tasks

    original_decode = codec.decode
    tracer = layers.install()
    try:
        assert evolver.decode is codec.decode is tasks.decode
        assert codec.decode is not original_decode
        g = codec.decode(codec.parse_genotype("[C][C][O]"))
        fresh = graph.MolecularGraph(g.elements, g.bond_list)
        graph.canonical(fresh)  # free wrapper around the method
        tasks.fingerprint(fresh)
        stats = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert codec.decode is original_decode and evolver.decode is original_decode
    assert stats["codec.decode"]["calls"] == 1
    assert stats["graph.fingerprint"]["calls"] == 1
    # canonical once for the call above, none hidden inside fingerprint
    assert stats["graph.canonical"]["calls"] == 1
