import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from molga import cli
from molga.cli import (
    ConfigError,
    bundled_reference_path,
    determinism_hash,
    main,
    parse_config,
    run_task,
)
from molga.props import EmptyReference
from molga.reference import load_reference, synthetic_reference


class TestConfig:
    def test_defaults_materialized(self):
        cfg = parse_config({})
        assert cfg["task"] == "unconstrained"
        assert cfg["population_size"] == 500
        assert cfg["adaptive"]["window"] == 20
        assert cfg["constrained"]["delta"] == 0.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"populaton_size": 10})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"adaptive": {"widnow": 5}})

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"task": "nope"})

    @pytest.mark.parametrize("task", [["unconstrained"], {"a": 1}])
    def test_task_of_wrong_type_rejected(self, task):
        with pytest.raises(ConfigError, match="^task must be one of"):
            parse_config({"task": task})

    def test_round_trip_idempotent(self):
        cfg = parse_config({"population_size": 64, "beta": 5.0})
        again = parse_config(json.loads(json.dumps(cfg)))
        assert again == cfg

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            parse_config({"population_size": 0})
        with pytest.raises(ConfigError):
            parse_config({"threads": 0})
        with pytest.raises(ConfigError):
            parse_config({"constrained": {"delta": 1.5}})
        with pytest.raises(ConfigError):
            parse_config({"beta_sweep": {"betas": []}})
        with pytest.raises(ConfigError):
            parse_config({"seed": "abc"})

    @pytest.mark.parametrize("doc,key", [
        ({"top_fraction": -3}, "top_fraction"),
        ({"top_fraction": "x"}, "top_fraction"),
        ({"top_fraction": 0}, "top_fraction"),
        ({"beta": "abc"}, "beta"),
        ({"beta": True}, "beta"),
        ({"use_discriminator": "x"}, "use_discriminator"),
        ({"task": "beta_sweep", "beta_sweep": {"betas": "ab"}}, "beta_sweep.betas"),
        ({"task": "beta_sweep", "beta_sweep": {"betas": [0.0, "x"]}}, "beta_sweep.betas"),
        ({"task": "logp_qed", "logp_qed": {"w_j": "x"}}, "logp_qed.w_j"),
        ({"task": "logp_qed", "logp_qed": {"w_qed": None}}, "logp_qed.w_qed"),
        ({"task": "adaptive_dt", "adaptive": {"window": -1}}, "adaptive.window"),
        ({"task": "adaptive_dt", "adaptive": {"window": 2.5}}, "adaptive.window"),
        ({"task": "adaptive_dt", "adaptive": {"low": "x"}}, "adaptive.low"),
        ({"task": "adaptive_dt", "adaptive": {"high": [1]}}, "adaptive.high"),
        ({"task": "adaptive_dt", "adaptive": {"epsilon": "x"}}, "adaptive.epsilon"),
        ({"population_size": True}, "population_size"),
        ({"generations": False}, "generations"),
        ({"seed": True}, "seed"),
        ({"task": "constrained_similarity", "constrained": {"delta": "x"}}, "constrained.delta"),
        ({"task": "property_target", "property_target": {"targets": [3.0, 1.0]}},
         "property_target.targets"),
        ({"max_canonical_len": 0}, "max_canonical_len"),
        ({"max_genotype_len": 0}, "max_genotype_len"),
        ({"task": "random_baseline", "max_canonical_len": 0}, "max_canonical_len"),
        ({"task": "random_baseline", "max_genotype_len": 0}, "max_genotype_len"),
        ({"task": "adaptive_dt", "adaptive": {"low": 5.0, "high": 1.0}}, "adaptive.low"),
        ({"population_size": 5, "elite_count": 9}, "elite_count"),
        ({"reference": {"synthetic": "abc"}}, "reference"),
        ({"reference": {"synthetic": True}}, "reference"),
        ({"reference": {"synthetic": 120.0}}, "reference"),
        ({"reference": {"synthetic": 0}}, "reference"),
        ({"reference": {"synthetic": 120, "colour": "blue"}}, "reference"),
        ({"reference": {}}, "reference"),
        ({"reference": 120}, "reference"),
        ({"reference": ["ref.smi"]}, "reference"),
        ({"output_dir": 5}, "output_dir"),
        ({"initial_population": ["x"]}, "initial_population"),
        ({"initial_population": True}, "initial_population"),
        ({"task": "constrained_similarity", "constrained": {"reference_smiles": 5}},
         "constrained.reference_smiles"),
        ({"task": "logp_qed", "logp_qed": {"w_j": -1}}, "logp_qed.w_j"),
        ({"task": "logp_qed", "logp_qed": {"w_qed": -0.5}}, "logp_qed.w_qed"),
        ({"beta": float("nan")}, "beta"),
        ({"task": "logp_qed", "logp_qed": {"w_j": float("nan")}}, "logp_qed.w_j"),
        ({"task": "beta_sweep", "beta_sweep": {"betas": [float("nan")]}}, "beta_sweep.betas"),
        ({"task": "property_target", "property_target": {"targets": [float("nan"), 1, 2]}},
         "property_target.targets"),
        ({"task": "adaptive_dt", "adaptive": {"epsilon": float("nan")}}, "adaptive.epsilon"),
        ({"task": "adaptive_dt", "adaptive": {"high": float("inf")}}, "adaptive.high"),
        # an int too large for a float
        ({"beta": 10 ** 400}, "beta"),
        ({"task": "adaptive_dt", "adaptive": {"high": 10 ** 400}}, "adaptive.high"),
    ])
    def test_nonsense_value_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=f"^{key} must"):
            parse_config(doc)

    @pytest.mark.parametrize("section,key,task", [
        ("constrained", "n_molecules", "constrained_similarity"),
        ("property_target", "n_targets", "property_target"),
        ("random_baseline", "n_samples", "random_baseline"),
        ("beta_sweep", "seeds_per_beta", "beta_sweep"),
    ])
    @pytest.mark.parametrize("value", [-1, 0, "3", 2.0, True, None])
    def test_count_must_be_positive_integer(self, section, key, task, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config({"task": task, section: {key: value}})
        assert parse_config({"task": task, section: {key: 1}})[section][key] == 1

    def test_empty_archive_rejected(self):
        # an empty archive has no best entry, so every GA task would crash
        doc = {"reference": {"synthetic": 150}, "population_size": 10,
               "generations": 1, "archive_k": 0}
        with pytest.raises(ConfigError, match="archive_k"):
            run_task(parse_config(doc), None)

    @pytest.mark.parametrize("doc", [
        {"task": "adaptive_dt", "beta": 5.0},
        {"task": "logp_qed", "use_discriminator": True},
        {"task": "unconstrained", "adaptive": {"window": 3}},
        {"task": "constrained_similarity", "initial_population": "seed.txt"},
        {"task": "constrained_similarity", "snapshot_every": 5},
        {"task": "property_target", "snapshot_every": 5},
        {"task": "beta_sweep", "snapshot_every": 5},
        {"task": "random_baseline", "snapshot_every": 5},
        {"task": "random_baseline", "population_size": 20},
        {"task": "random_baseline", "generations": 4},
        {"task": "random_baseline", "elite_count": 3},
        {"task": "logp_qed", "constrained": {"delta": 0.6}},
        {"task": "unconstrained", "beta_sweep": {"seeds_per_beta": 1}},
        # single-run mode reads no batch count
        {"task": "property_target",
         "property_target": {"targets": [1.0, 2.0, 3.0], "n_targets": 5}},
        {"task": "constrained_similarity",
         "constrained": {"reference_smiles": "CCO", "n_molecules": 5}},
    ])
    def test_key_the_task_does_not_read_rejected(self, doc):
        with pytest.raises(ConfigError, match="does not read"):
            parse_config(doc)

    @pytest.mark.parametrize("doc", [
        *(pytest.param({"task": task}, id=task)
          for task in ("unconstrained", "adaptive_dt", "constrained_similarity",
                       "property_target", "logp_qed", "random_baseline", "beta_sweep")),
        pytest.param({"task": "property_target",
                      "property_target": {"targets": [1.0, 2.0, 3.0]}}, id="single_target"),
        pytest.param({"task": "constrained_similarity",
                      "constrained": {"reference_smiles": "CCO"}}, id="single_molecule"),
    ])
    def test_key_at_its_default_accepted(self, doc):
        # a materialized config (run_report.json's echo) parses again
        echo = json.loads(json.dumps(parse_config(doc)))
        assert parse_config(echo) == echo
        assert parse_config({"task": "adaptive_dt", "beta": 0.0})["task"] == "adaptive_dt"

    def test_parsed_config_shares_nothing_with_the_defaults(self):
        first = parse_config({})
        first["adaptive"]["window"] = 3
        first["beta_sweep"]["betas"].append(99.0)
        again = parse_config({})
        assert again["adaptive"]["window"] == 20
        assert again["beta_sweep"]["betas"] == [0.0, 10.0, 50.0]


class TestReferenceLoading:
    def test_bundled_reference(self):
        ref, report = load_reference(bundled_reference_path())
        assert report.n_usable >= 0.95 * report.n_lines
        assert report.n_usable == 1000
        assert len(report.failures) == report.n_failed

    def test_unusable_file_raises(self, tmp_path):
        path = tmp_path / "bad.smi"
        path.write_text("\n".join(["C[N+](C)(C)C"] * 200))
        with pytest.raises(EmptyReference):
            load_reference(str(path))

    def test_small_file_raises(self, tmp_path):
        path = tmp_path / "small.smi"
        path.write_text("CCC\nCCO\n")
        with pytest.raises(EmptyReference):
            load_reference(str(path))

    def test_synthetic_mode_statistics(self):
        ref = synthetic_reference(120, seed=0)
        assert len(ref) == 120
        assert ref.prop_stats.logp_std > 0
        assert ref.prop_stats.sa_std > 0
        for g in ref.graphs:
            assert 10 <= len(g.canonical()) <= 81

    def test_missing_reference_file(self):
        with pytest.raises(ConfigError):
            run_task(parse_config({"reference": "/does/not/exist.smi"}), None)


class TestDeterminismHash:
    def test_timing_excluded(self):
        a = {"config": {"x": 1}, "result": [1, 2], "timing": {"wall_seconds": 1.0}}
        b = {"config": {"x": 1}, "result": [1, 2], "timing": {"wall_seconds": 9.9}}
        assert determinism_hash(a) == determinism_hash(b)

    def test_result_included(self):
        a = {"result": [1, 2]}
        b = {"result": [1, 3]}
        assert determinism_hash(a) != determinism_hash(b)

    def test_reference_location_excluded(self, tmp_path):
        with open(bundled_reference_path()) as fh:
            lines = fh.readlines()[:150]
        reports = []
        for name in ("a", "b"):
            path = tmp_path / name / "ref.smi"
            path.parent.mkdir()
            path.write_text("".join(lines))
            reports.append(run_task(parse_config({
                "task": "random_baseline", "reference": str(path), "seed": 4,
                "random_baseline": {"n_samples": 50}}), None))
        a, b = reports
        assert a["reference"]["path"] != b["reference"]["path"]  # still recorded
        assert a["determinism_hash"] == b["determinism_hash"]


def _python(script_args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's src on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *script_args], env=env, check=True,
                          capture_output=True, text=True)


class TestSha256:
    def test_digest_matches_hashlib(self):
        rng = random.Random(5)
        blobs = [b"", b"abc", b"\x00" * 64, json.dumps({"result": [1, 2]}).encode(),
                 bytes(rng.getrandbits(8) for _ in range(100_003))]
        for blob in blobs:
            assert cli.sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()

    def test_a_run_does_not_load_openssl(self):
        script = (
            "import sys\n"
            "from molga.cli import parse_config, run_task\n"
            "report = run_task(parse_config({'task': 'constrained_similarity', "
            "'reference': {'synthetic': 150}, 'population_size': 10, 'generations': 2, "
            "'seed': 3, 'constrained': {'reference_smiles': 'CCOc1ccccc1'}}), None)\n"
            "assert len(report['determinism_hash']) == 64\n"
            "print('_hashlib' in sys.modules)\n"
        )
        assert _python(["-c", script]).stdout.strip() == "False"


class TestNumpyLoading:
    """Only runs that featurize, train or score load numpy."""

    SCRIPT = (
        "import sys, json\n"
        "from molga.cli import parse_config, run_task\n"
        "print('molga.discriminator' in sys.modules, 'numpy' in sys.modules)\n"
        "report = run_task(parse_config(json.loads(sys.argv[1])), None)\n"
        "assert len(report['determinism_hash']) == 64\n"
        "print('numpy' in sys.modules)\n"
    )

    @pytest.mark.parametrize("doc,loads", [
        ({"task": "constrained_similarity", "population_size": 10, "generations": 2,
          "constrained": {"reference_smiles": "CCOc1ccccc1"}}, False),
        ({"task": "random_baseline", "random_baseline": {"n_samples": 200}}, False),
        ({"task": "unconstrained", "population_size": 10, "generations": 2,
          "beta": 10.0}, True),
    ])
    def test_numpy_loaded_only_with_discriminator(self, doc, loads):
        doc = {**doc, "reference": {"synthetic": 150}, "seed": 3}
        out = _python(["-c", self.SCRIPT, json.dumps(doc)]).stdout.split()
        # the tracer finds molga.discriminator in sys.modules after import
        assert out == ["True", "False", str(loads)]


def _run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_decode(self, capsys):
        code, out, _ = _run_cli(["decode", "[C][C][C]"], capsys)
        assert code == 0
        assert out.strip() == "CCC"

    def test_decode_bad_genotype(self, capsys):
        code, _, err = _run_cli(["decode", "[C][Nope]"], capsys)
        assert code == 1
        assert "unknown symbol" in err

    def test_encode_roundtrip(self, capsys):
        code, out, _ = _run_cli(["encode", "CCO"], capsys)
        assert code == 0
        code2, out2, _ = _run_cli(["decode", out.strip()], capsys)
        assert code2 == 0
        assert out2.strip() == "CCO"

    def test_encode_rejects_unsupported(self, capsys):
        code, _, err = _run_cli(["encode", "C[NH3+]"], capsys)
        assert code == 1

    def test_props_stdin(self, capsys, monkeypatch, tmp_path):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("[C][C][C]\nCCO\n"))
        code, out, _ = _run_cli(["props"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "input,logp_raw,sa_raw,ring_raw,qed,j"
        assert len(lines) == 3
        assert lines[1].startswith("[C][C][C],0.6000,0.1500,0.0000,")

    def test_baseline(self, capsys):
        code, out, _ = _run_cli(["baseline", "-n", "20", "--seed", "5",
                                 "--synthetic-reference", "120"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 20

    def test_baseline_rejects_zero_samples(self, capsys):
        code, _, err = _run_cli(["baseline", "-n", "0", "--synthetic-reference", "120"],
                                capsys)
        assert code == 1
        assert "random_baseline.n_samples" in err

    def test_run_missing_config(self, capsys):
        code, _, err = _run_cli(["run", "/no/such/config.json"], capsys)
        assert code == 1

    @pytest.mark.parametrize("doc,key", [
        ({"population_size": 5, "elite_count": 9}, "elite_count"),
        ({"reference": {"synthetic": "abc"}}, "reference"),
        ({"reference": {"synthetic": True}}, "reference"),
        ({"reference": {"synthetic": 120, "colour": "blue"}}, "reference"),
        # json.dumps writes a NaN literal, which json.load reads back
        ({"reference": {"synthetic": 120}, "population_size": 5, "beta": float("nan")},
         "beta"),
    ])
    def test_run_rejects_config_before_running(self, capsys, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generations": 1, **doc}))
        code, _, err = _run_cli(["run", str(cfg)], capsys)
        assert code == 1
        assert err.startswith(f"error: {key} must")

    @pytest.mark.parametrize("argv,key", [
        (["run", "--threads", "0"], "threads"),
        (["run", "--threads", "-3"], "threads"),
        (["run", "--synthetic-reference", "0"], "reference"),
        (["sweep", "--threads", "0"], "threads"),
    ])
    def test_override_checked_like_the_file(self, capsys, tmp_path, argv, key):
        # a command-line override passes the checks the same key gets in the file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reference": {"synthetic": 120}, "population_size": 5,
                                   "generations": 1}))
        code, _, err = _run_cli([argv[0], str(cfg), *argv[1:]], capsys)
        assert code == 1
        assert err.startswith(f"error: {key} must")

    def test_synthetic_reference_override_reaches_the_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population_size": 5, "generations": 1}))
        out = tmp_path / "o"
        code, _, _ = _run_cli(["run", str(cfg), "--out", str(out),
                               "--synthetic-reference", "130"], capsys)
        assert code == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["reference"] == report["reference"] == {"synthetic": 130}

    @pytest.mark.parametrize("argv", [
        [], ["--seed", "3"], ["--threads", "2"], ["--synthetic-reference", "120"],
    ])
    def test_run_config_not_an_object(self, capsys, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        code, _, err = _run_cli(["run", str(cfg), *argv], capsys)
        assert code == 1
        assert err.strip() == "error: config must be a JSON object"

    def test_sweep_config_not_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        code, _, err = _run_cli(["sweep", str(cfg)], capsys)
        assert code == 1
        assert err.strip() == "error: config must be a JSON object"

    def test_python_dash_m(self):
        out = _python(["-m", "molga", "--help"]).stdout
        assert out.startswith("usage: molga")
        assert "analyze" in out

    def test_run_missing_reference(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reference": "/absent/file.smi"}))
        code, _, err = _run_cli(["run", str(cfg)], capsys)
        assert code == 1
        assert "/absent/file.smi" in err


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps({
        "task": "unconstrained",
        "reference": {"synthetic": 120},
        "population_size": 25,
        "generations": 5,
        "seed": 3,
        "snapshot_every": 5,
    }))
    return str(path)


class TestRunDeterminism:
    def test_same_seed_same_hash(self, tiny_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", tiny_config, "--out", str(out1)]) == 0
        assert main(["run", tiny_config, "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "run_report.json").read_text())
        r2 = json.loads((out2 / "run_report.json").read_text())
        assert r1["determinism_hash"] == r2["determinism_hash"]
        assert r1["timing"] != {} and "wall_seconds" in r1["timing"]

    def test_threads_do_not_change_hash(self, tiny_config, tmp_path):
        out1 = tmp_path / "t1"
        out8 = tmp_path / "t8"
        assert main(["run", tiny_config, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", tiny_config, "--out", str(out8), "--threads", "8"]) == 0
        r1 = json.loads((out1 / "run_report.json").read_text())
        r8 = json.loads((out8 / "run_report.json").read_text())
        assert r1["result"] == r8["result"]
        # thread count is execution infrastructure: the hash must not move
        assert r1["determinism_hash"] == r8["determinism_hash"]

    def test_seed_override_changes_hash(self, tiny_config, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(["run", tiny_config, "--out", str(out1)]) == 0
        assert main(["run", tiny_config, "--out", str(out2), "--seed", "99"]) == 0
        r1 = json.loads((out1 / "run_report.json").read_text())
        r2 = json.loads((out2 / "run_report.json").read_text())
        assert r1["determinism_hash"] != r2["determinism_hash"]

    def test_outputs_written(self, tiny_config, tmp_path):
        out = tmp_path / "o"
        assert main(["run", tiny_config, "--out", str(out)]) == 0
        assert (out / "generations.csv").exists()
        assert (out / "run_report.json").exists()
        snaps = os.listdir(out / "snapshots")
        assert "gen_00000.txt" in snaps and "gen_00005.txt" in snaps

    def test_analyze_runs_on_output(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "an"
        assert main(["run", tiny_config, "--out", str(out)]) == 0
        code, _, err = _run_cli(["analyze", str(out), "--plot-data"], capsys)
        assert code == 0, err
        rows = (out / "analysis" / "snapshot_clusters.csv").read_text().splitlines()[1:]
        long_rows = (out / "analysis" / "snapshot_clusters_long.csv").read_text().splitlines()[1:]
        assert rows and len(long_rows) == 4 * len(rows)
        canonicals = [r.split(",")[1] for r in rows]
        assert [r.split(",")[1] for r in long_rows] == [c for c in canonicals for _ in range(4)]

    def test_analyze_without_snapshots(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "reference": {"synthetic": 120}, "population_size": 10,
            "generations": 1, "seed": 0,
        }))
        out = tmp_path / "nosnap"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        code, _, err = _run_cli(["analyze", str(out)], capsys)
        assert code == 1
        assert "snapshot" in err

    @pytest.mark.parametrize("task", ["unconstrained", "adaptive_dt", "logp_qed",
                                      "constrained_similarity", "property_target",
                                      "random_baseline", "beta_sweep"])
    def test_analyze_advice_fits_the_task(self, tmp_path, capsys, task):
        # snapshot_every is advised only to a task whose config accepts it
        (tmp_path / "run_report.json").write_text(json.dumps({"task": task, "config": {}}))
        code, _, err = _run_cli(["analyze", str(tmp_path)], capsys)
        assert code == 1
        if task in ("unconstrained", "adaptive_dt", "logp_qed"):
            assert "(set snapshot_every)" in err
            parse_config({"task": task, "snapshot_every": 1})
        else:
            assert f"(task {task!r} writes no population snapshots)" in err
            with pytest.raises(ConfigError, match="does not read"):
                parse_config({"task": task, "snapshot_every": 1})


_SMALL = {"reference": {"synthetic": 150}, "population_size": 20, "generations": 4,
          "seed": 3}


class TestEveryKeyActs:
    # each GA key a task accepts must reach its result
    @pytest.mark.parametrize("task_doc, change", [
        ({"task": "logp_qed"}, {"parent_selection": "top-fraction", "top_fraction": 0.05}),
        ({"task": "logp_qed"}, {"elite_count": 10}),
        ({"task": "logp_qed"}, {"max_genotype_len": 5}),
        ({"task": "property_target", "property_target": {"targets": [3.0, 3.0, 1.0]}},
         {"max_genotype_len": 5}),
        ({"task": "property_target", "property_target": {"n_targets": 2}},
         {"max_canonical_len": 5}),
        ({"task": "constrained_similarity", "constrained": {"n_molecules": 2}},
         {"max_canonical_len": 5}),
        ({"task": "constrained_similarity", "constrained": {"n_molecules": 2}},
         {"parent_selection": "top-fraction"}),
        ({"task": "beta_sweep", "beta_sweep": {"betas": [0.0, 5.0], "seeds_per_beta": 1}},
         {"max_genotype_len": 5}),
        ({"task": "beta_sweep", "beta_sweep": {"betas": [0.0, 5.0], "seeds_per_beta": 1}},
         {"elite_count": 10}),
    ])
    def test_changed_key_changes_result(self, task_doc, change):
        base = run_task(parse_config({**_SMALL, **task_doc}), None)
        changed = run_task(parse_config({**_SMALL, **task_doc, **change}), None)
        assert changed["result"] != base["result"]


class TestPinnedHashes:
    # Hashes of small runs of every task, computed before the tasks shared
    # one config builder. A mismatch means a task's behaviour changed: name
    # that behaviour in the change that moves a hash, then update it here.
    CASES = [
        ({**_SMALL, "task": "unconstrained", "beta": 5.0},
         "44b0734d90553deb3ce4ae06d4c35114797e4e94769d056bee12108cb741448a"),
        ({**_SMALL, "task": "adaptive_dt", "adaptive": {"window": 2, "epsilon": 0.5}},
         "f90cf8b12d0f98db489202fa173e8b1f6ecb1971c0e0bdb091f4bcc87d769a19"),
        ({**_SMALL, "task": "constrained_similarity", "constrained": {"n_molecules": 2}},
         "de6263a87bc2c43e80067ef71c599ac7a4a9155ebc2eb633a3dd7975d32c07d9"),
        ({**_SMALL, "task": "constrained_similarity",
          "constrained": {"reference_smiles": "CCOc1ccccc1"}},
         "2ab9d6d1148d3d21b15b9ec82787b628c1c289f3da24940dae03709a3f5785b5"),
        ({**_SMALL, "task": "property_target", "property_target": {"n_targets": 2}},
         "3fe93ea605b3fcb21378756f177566394aa1ef7dcb1bb098967985de85ce66da"),
        ({**_SMALL, "task": "property_target",
          "property_target": {"targets": [3.0, 3.0, 1.0]}},
         "12b045c0cfcffd11531194d2f2e7b70c1de15f46b197f7a6a2e28233184ed8e0"),
        ({**_SMALL, "task": "logp_qed"},
         "8752b8a6c6ed0fe255bcd9e00a7a2b654d036d5461079f784f2aa341f692a82d"),
        ({**_SMALL, "task": "beta_sweep",
          "beta_sweep": {"betas": [0.0, 5.0], "seeds_per_beta": 1}},
         "18ec2aeb46cc9201c77048e542dfce95416117c4439b7c608d0bc163f56b1b49"),
        ({"task": "random_baseline", "reference": {"synthetic": 150}, "seed": 3,
          "random_baseline": {"n_samples": 200}},
         "4c9c14b32e2cce0a84de6f25948406875d9838f001422bd245d2ae21af6ed524"),
    ]

    @pytest.mark.parametrize("doc, expected", CASES)
    def test_task_hash_unchanged(self, doc, expected):
        got = run_task(parse_config(doc), None)["determinism_hash"]
        assert got == expected, (
            f"{doc} now hashes to {got}: name the behaviour that changed on "
            "purpose, then update the pinned hash")


class TestPinnedCheckpoint:
    # discriminator.json is not covered by the determinism hash; these are
    # its bytes after the first pinned unconstrained run
    def test_discriminator_json_unchanged(self, tmp_path):
        doc = {**_SMALL, "task": "unconstrained", "beta": 5.0}
        run_task(parse_config(doc), str(tmp_path))
        got = hashlib.sha256((tmp_path / "discriminator.json").read_bytes()).hexdigest()
        assert got == "e6fab3ec8fab36cab0fceecfd05ba2dcb7d2107845da639f4afea2ccd241cc90"


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "reference": {"synthetic": 150},
            "population_size": 15,
            "generations": 3,
            "seed": 1,
            "beta_sweep": {"betas": [0.0, 5.0], "seeds_per_beta": 1},
        }))
        out = tmp_path / "sw"
        code, stdout, err = _run_cli(["sweep", str(cfg), "--out", str(out)], capsys)
        assert code == 0, err
        doc = json.loads(stdout)
        assert len(doc["rows"]) == 2
        lines = (out / "beta_sweep.csv").read_text().splitlines()
        assert lines[0] == "beta,generation,mean_j,mean_d"
        assert len(lines) == 1 + 2 * 4

    def test_sweep_takes_synthetic_reference(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"population_size": 5, "generations": 1,
                                   "beta_sweep": {"betas": [0.0], "seeds_per_beta": 1}}))
        out = tmp_path / "sw"
        code, _, err = _run_cli(["sweep", str(cfg), "--out", str(out),
                                 "--synthetic-reference", "120"], capsys)
        assert code == 0, err
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["reference"] == report["reference"] == {"synthetic": 120}
