"""Two censuses of src/molga.

The call census: every function and method in src/molga is entered by a
command, or it is on ALLOWED with the reason it stays.

One fresh interpreter sets `sys.setprofile` before it imports molga, then
runs every command in-process through `cli.main`: `run` for each of the
seven tasks (both modes of the two batch tasks), `sweep`, `baseline`,
`decode`, `encode`, `props` and `analyze`, on good input and on bad. A fresh
interpreter counts what the package calls while it imports, and no memo
filled by another test can hide a call. Functions are the `def`s at module
level and in class bodies, listed with `ast` and keyed by (file, first
line); for a decorated function the first line is that of its first
decorator, as in `co_firstlineno`.

The census of defaults: a parameter default stays only when the calls in
src/molga give the parameter two values, that is when at least one call
passes it and at least one does not. Calls are found by name with `ast`
(a class's `__init__` by the class name), and a call passes a parameter by
keyword, by position, or through `*args` or `**kwargs`. Calls from tests
do not count. A default that no call passes should be a constant, and one
that every call passes should not be a default. Exceptions go on
DEFAULTS_ALLOWED with their reason.

Run both alone with `PYTHONPATH=src python -m pytest -q tests/test_census.py`,
or the census of defaults alone with `-k defaults`.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "molga")

# "<module>.<qualified name>": why it stays although no command enters it
ALLOWED = {
    "graph.canonical": "free wrapper of the method; bench/tests/test_bench_tracer.py "
                       "calls it to check the method is counted once",
    "graph.fingerprint": "free wrapper of the method; bench/tests/test_bench_tracer.py "
                         "calls it through tasks.fingerprint",
    "discriminator.loss_and_gradients": "bench/layers.py traces it; the gradient checks "
                                        "read it",
    "reference.ReferenceSet.canonicals": "bench/verify.py finds a constrained result's "
                                         "reference molecule by it",
    "discriminator.load_checkpoint": "reads the discriminator.json a run writes; resuming "
                                     "a run will call it",
    "discriminator._checked_array": "load_checkpoint's shape check",
    "discriminator._flat_from_layers": "load_checkpoint's parameter unpacking",
    "graph.MolecularGraph.__repr__": "what a graph shows in a traceback or a debugger",
    "analysis.mean_pairwise_tanimoto": "acceptance criterion 7's diversity statistic",
}

BASE = {"reference": {"synthetic": 120}, "seed": 3}
GA = {**BASE, "population_size": 10, "generations": 2}

# (argv, stdin, expected exit code); {d} is the census's scratch directory
COMMANDS = [
    (["run", "{d}/unconstrained.json", "--out", "{d}/unconstrained"], None, 0),
    (["analyze", "{d}/unconstrained", "--plot-data"], None, 0),
    (["run", "{d}/adaptive_dt.json", "--out", "{d}/adaptive_dt"], None, 0),
    (["analyze", "{d}/adaptive_dt"], None, 1),  # no snapshots: set snapshot_every
    (["run", "{d}/constrained_single.json", "--out", "{d}/constrained"], None, 0),
    (["analyze", "{d}/constrained"], None, 1),  # the task writes no snapshots
    (["analyze", "{d}"], None, 1),  # no run_report.json
    (["run", "{d}/constrained_batch.json"], None, 0),
    (["run", "{d}/property_target_single.json"], None, 0),
    (["run", "{d}/property_target_batch.json"], None, 0),
    (["run", "{d}/logp_qed.json"], None, 0),
    (["run", "{d}/random_baseline.json"], None, 0),
    (["sweep", "{d}/beta_sweep.json", "--out", "{d}/beta_sweep"], None, 0),
    (["baseline", "-n", "30", "--seed", "2", "--synthetic-reference", "120"], None, 0),
    (["decode", "[C][Branch1][C][F][C]"], None, 0),
    (["decode", "[C][Nope]"], None, 1),
    (["encode", "c1ccccc1CC"], None, 0),
    (["encode", "C(C"], None, 1),
    (["props"], "# comment\nCCO\n[C][S][S][S]\n[C][Nope]\nC(C\nC.C\n", 0),
]

CONFIGS = {
    "unconstrained": {**GA, "beta": 10.0, "snapshot_every": 1,
                      "initial_population": "{d}/initial.txt"},
    "adaptive_dt": {**GA, "task": "adaptive_dt", "adaptive": {"window": 1}},
    "constrained_single": {**GA, "task": "constrained_similarity",
                           "constrained": {"reference_smiles": "CCOc1ccccc1"}},
    "constrained_batch": {**GA, "task": "constrained_similarity",
                          "constrained": {"n_molecules": 2}},
    "property_target_single": {**GA, "task": "property_target",
                               "property_target": {"targets": [2.0, 3.0, 0.0]}},
    "property_target_batch": {**GA, "task": "property_target",
                              "property_target": {"n_targets": 2}},
    "logp_qed": {**GA, "task": "logp_qed"},
    "random_baseline": {**BASE, "task": "random_baseline",
                        "random_baseline": {"n_samples": 30}},
    "beta_sweep": {**GA, "beta_sweep": {"betas": [0.0, 10.0], "seeds_per_beta": 1}},
}


def _run_commands(d: str) -> list[str]:
    """Every command of the census in this process; the failures, if any."""
    from molga import cli

    with open(os.path.join(d, "initial.txt"), "w") as fh:
        fh.write("# a comment line\n[C][C][O]\n[C][=C][C]\n")
    for name, doc in CONFIGS.items():
        with open(os.path.join(d, f"{name}.json"), "w") as fh:
            fh.write(json.dumps(doc).replace("{d}", d))
    failures = []
    for argv, stdin, expected in COMMANDS:
        argv = [arg.replace("{d}", d) for arg in argv]
        out = io.StringIO()
        sys.stdin = io.StringIO(stdin or "")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        if code != expected:
            failures.append(f"{argv}: exit {code}, expected {expected}\n{out.getvalue()}")
    sys.argv = ["molga", "decode", "[C]"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.entrypoint()
    except SystemExit as exc:
        if exc.code != 0:
            failures.append(f"entrypoint: exit {exc.code}, expected 0")
    return failures


def _census_main(d: str) -> None:
    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    failures = _run_commands(d)
    sys.setprofile(None)
    import molga

    assert os.path.dirname(os.path.realpath(molga.__file__)) == os.path.realpath(PACKAGE)
    keys = sorted({(os.path.realpath(f), line) for f, line in entered})
    json.dump({"failures": failures, "entered": keys}, sys.__stdout__)


def _defined() -> dict[tuple[str, int], str]:
    """(file, first line) -> "<module>.<qualified name>" of every def at
    module level or in a class body."""
    out: dict[tuple[str, int], str] = {}

    def visit(body: list, path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(path, first)] = prefix + node.name
            elif isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(PACKAGE, name))
            with open(path) as fh:
                visit(ast.parse(fh.read()).body, path, name[:-3] + ".")
    return out


def _census(tmp_path) -> dict:
    # the child warns and checks as this interpreter does (CI runs -X dev -W error)
    flags = [f"-W{w}" for w in sys.warnoptions] + ["-X", "dev"] * sys.flags.dev_mode
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, *flags, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_function_is_entered_or_allowed(tmp_path):
    census = _census(tmp_path)
    assert census["failures"] == []
    defined = _defined()
    entered = {defined[(f, line)] for f, line in census["entered"] if (f, line) in defined}
    missing = sorted(set(ALLOWED) - set(defined.values()))
    assert missing == [], f"allow-listed but not defined in src/molga: {missing}"
    stale = sorted(set(ALLOWED) & entered)
    assert stale == [], f"allow-listed but entered by a command: {stale}"
    unreached = sorted(set(defined.values()) - entered - set(ALLOWED))
    assert unreached == [], (
        f"no command enters {unreached}: delete them, reach them from a command, "
        "or allow-list them with a reason")


def test_allow_list_entries_give_a_reason():
    assert len(ALLOWED) <= 11
    assert all(reason.strip() for reason in ALLOWED.values())


# "<module>.<function>(<parameter>)": why the default stays with one value in use
DEFAULTS_ALLOWED: dict[str, str] = {}


def _modules() -> list[tuple[str, ast.Module]]:
    """(module name, syntax tree) of every module of src/molga."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                out.append((name[:-3], ast.parse(fh.read())))
    return out


def _defaults() -> list[tuple[str, str, int, str, int | None]]:
    """(qualified name, name a call uses, leading parameters a call binds
    itself, parameter, position or None if keyword-only) of every parameter
    default of every def in src/molga."""
    out = []

    def visit(node: ast.AST, path: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = int(cls is not None and not static)  # self or cls
                callee = cls if child.name == "__init__" else child.name
                qualified = f"{path}.{'' if cls is None else cls + '.'}{child.name}"
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    out.append((qualified, callee, bound, positional[i].arg, i))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((qualified, callee, bound, arg.arg, None))
                visit(child, path, None)
            else:
                visit(child, path, cls)

    for module, tree in _modules():
        visit(tree, module, None)
    return out


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/molga, by the name it calls: `f(...)` and `x.f(...)`
    are both calls to f."""
    out: dict[str, list[ast.Call]] = {}
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                if callee is not None:
                    out.setdefault(callee, []).append(node)
    return out


def _passes(call: ast.Call, param: str, bound: int, position: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or position - bound < len(call.args))


def test_defaults_have_two_values_in_use():
    calls = _calls()
    faults = []
    for qualified, callee, bound, param, position in _defaults():
        key = f"{qualified}({param})"
        if key in DEFAULTS_ALLOWED:
            continue
        passed = [_passes(c, param, bound, position) for c in calls.get(callee, [])]
        if not any(passed):
            faults.append(f"{key}: never passed: make it a constant")
        elif all(passed):
            faults.append(f"{key}: passed by every caller: drop the default")
    assert faults == [], "\n".join(faults)


def test_defaults_allow_list_is_current():
    defined = {f"{qualified}({param})" for qualified, _, _, param, _ in _defaults()}
    assert sorted(set(DEFAULTS_ALLOWED) - defined) == []
    assert all(reason.strip() for reason in DEFAULTS_ALLOWED.values())


if __name__ == "__main__":
    _census_main(sys.argv[1])
