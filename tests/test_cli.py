import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aldcontrol
import aldcontrol.cli as cli
from aldcontrol import read_summary_csv, read_trace_csv
from aldcontrol.cli import build_parser, main


def run_cli(*args):
    return main(list(args))


def spy(monkeypatch, name) -> list:
    """Record every call of the CLI's ``name`` in the returned list, then make it."""
    calls, call = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or call(*args))
    return calls


def assert_out_checked_first(tmp_path, capsys, calls, *args):
    """An existing ``--out`` without ``--force``, or one in a missing directory or under a file, exits 2 first."""
    out = tmp_path / "kept.csv"
    out.write_bytes(b"k,y\r\n1,2\r\n")
    assert run_cli(*args, "--out", str(out)) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {out}: already exists (use force to overwrite)\n"
    assert out.read_bytes() == b"k,y\r\n1,2\r\n"
    missing = tmp_path / "missing" / "out.csv"
    assert run_cli(*args, "--out", str(missing), "--force") == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {missing}: directory {str(missing.parent)!r} does not exist\n"
    assert not missing.parent.exists()
    under_a_file = out / "x.csv"
    assert run_cli(*args, "--out", str(under_a_file), "--force") == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: {under_a_file}: {str(out)!r} is not a directory\n"
    assert out.read_bytes() == b"k,y\r\n1,2\r\n"


def assert_directory_out_refused_first(tmp_path, capsys, calls, *args):
    """An ``--out`` that is an existing directory exits 2 before any run, with or without ``--force``."""
    folder = tmp_path / "folder"
    folder.mkdir()
    for force in ((), ("--force",)):
        assert run_cli(*args, "--out", str(folder), *force) == 2
        assert calls == []
        assert capsys.readouterr().err == f"error: {folder}: is a directory\n"
    assert folder.is_dir() and not any(folder.iterdir())


class TestSimulate:
    def test_writes_trace_from_preset(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "simulate", "--preset", "base", "--trajectory", "square",
            "--controller", "rls", "--steps", "40", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert "controller=rls" in capsys.readouterr().out
        back = read_trace_csv(out)
        assert back["k"].size == 40
        assert back["posteriors"].shape == (40, 1)

    def test_step_count_too_large_for_memory_fails_cleanly(self, tmp_path, capsys, monkeypatch, draws_limited):
        # 10**15 steps need 8 PB for the noise row alone, beyond any address space: numpy refuses without allocating
        calls = spy(monkeypatch, "export_trace_csv")
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--preset", "base", "--steps", str(10**15), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert calls == [] and not out.exists()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        args = ("simulate", "--preset", "base", "--steps", "10", "--out", str(out))
        assert run_cli(*args) == 0
        assert run_cli(*args) == 2
        assert "already exists" in capsys.readouterr().err
        assert run_cli(*args, "--force") == 0

    def test_config_file_with_overrides(self, tmp_path):
        doc = {
            "plant": {"a": [-1.41, 0.9], "b": [0.5]},
            "noise": {"components": [
                {"weight": 1.0, "kind": "ald", "tau": 0.5, "mu": 0.0, "sigma": 0.05},
            ]},
            "hypotheses": [{"tau": 0.5, "mu": 0.0, "sigma": 0.05}],
            "run": {"steps": 25, "controller": "single-ald:0"},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--config", str(cfg_path), "--seed", "3", "--out", str(out)) == 0
        assert read_trace_csv(out)["k"].size == 25

    def test_config_file_that_is_not_utf8_fails_naming_it(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b"{\xff}")
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 2
        assert f"error: {config}: not a text file" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--preset", "base", "--seed", "-1", "--out", str(out)) == 2
        assert "run.seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_w0_in_config_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            '{"plant": {"a": [-1.41, 0.9], "b": [0.5]},'
            ' "noise": {"components": [{"weight": 1.0, "kind": "ald", "tau": 0.5, "mu": 0.0, "sigma": 0.05}]},'
            ' "hypotheses": [{"tau": 0.5, "mu": 0.0, "sigma": 0.05}],'
            ' "estimator": {"w0": [0.1, NaN, Infinity]}}'
        )
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(cfg_path) in err and "estimator.w0 entries must be finite" in err
        assert not out.exists()

    def test_bad_controller_token_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli("simulate", "--preset", "base", "--controller", "pid", "--out", str(out))
        assert code == 2
        assert "unknown controller" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_fails_before_the_episode(self, tmp_path, capsys, monkeypatch):
        calls = spy(monkeypatch, "run_episode")
        assert_out_checked_first(tmp_path, capsys, calls, "simulate", "--preset", "base", "--steps", "10")

    def test_directory_out_fails_before_the_episode(self, tmp_path, capsys, monkeypatch):
        calls = spy(monkeypatch, "run_episode")
        assert_directory_out_refused_first(tmp_path, capsys, calls, "simulate", "--preset", "base", "--steps", "10")


class TestMonteCarlo:
    def test_writes_summary_with_aggregate_block(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = run_cli(
            "montecarlo", "--preset", "base", "--steps", "60", "--runs", "3",
            "--window", "10:60", "--controllers", "ensemble,rls", "--out", str(out),
        )
        assert code == 0
        per_run, aggregate = read_summary_csv(out)
        assert len(per_run) == 6
        assert {row["controller"] for row in aggregate} == {"ensemble", "rls"}
        printed = capsys.readouterr().out
        assert "ensemble: j_bar=" in printed

    def test_paired_runs_share_seeds(self, tmp_path):
        out = tmp_path / "summary.csv"
        run_cli(
            "montecarlo", "--preset", "base", "--steps", "40", "--runs", "2",
            "--seed", "11", "--window", "5:40", "--controllers", "ensemble,oracle",
            "--out", str(out),
        )
        per_run, _ = read_summary_csv(out)
        seeds = {}
        for row in per_run:
            seeds.setdefault(row["controller"], []).append(row["seed"])
        assert seeds["ensemble"] == seeds["oracle"] == [11, 12]

    def test_repeated_controllers_write_a_file_that_reads_back(self, tmp_path):
        out = tmp_path / "summary.csv"
        for tokens in ("rls,rls", "rls,oracle,rls"):
            assert run_cli(
                "montecarlo", "--preset", "base", "--steps", "20", "--runs", "2", "--window", "1:20",
                "--controllers", tokens, "--out", str(out), "--force",
            ) == 0
            per_run, aggregate = read_summary_csv(out)
            assert [row["controller"] for row in aggregate] == tokens.split(",")
            assert [(row["controller"], row["run"]) for row in per_run] == [
                (token, run) for token in tokens.split(",") for run in (1, 2)
            ]

    def test_seed_past_int64_runs(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        seed = 2**63
        assert run_cli(
            "montecarlo", "--preset", "base", "--steps", "20", "--runs", "2", "--seed", str(seed),
            "--window", "1:5", "--controllers", "rls", "--out", str(out),
        ) == 0
        per_run, _ = read_summary_csv(out)
        assert [row["seed"] for row in per_run] == [seed, seed + 1]

    def test_bad_controller_token_fails_before_any_episode(self, tmp_path, capsys, monkeypatch):
        import aldcontrol.harness as harness

        calls, batch = [], harness._run_batch
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args) or batch(*args))
        out = tmp_path / "summary.csv"
        for tokens in ("ensemble,rls,pid", "ensemble,single-ald:7"):
            code = run_cli("montecarlo", "--preset", "base", "--controllers", tokens, "--out", str(out))
            assert code == 2
            assert "run.controller" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()
        # the spy sees the batches of a valid command
        assert run_cli("montecarlo", "--preset", "base", "--steps", "20", "--runs", "2", "--window", "1:20",
                       "--controllers", "ensemble,rls", "--out", str(out)) == 0
        assert len(calls) == 1

    def test_empty_controller_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = run_cli("montecarlo", "--preset", "base", "--controllers", ",", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: no controllers given\n"
        assert not out.exists()

    def test_run_count_too_large_for_memory_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # 10**15 runs of four controllers need 32 PB, beyond any address space: numpy refuses without allocating
        calls = spy(monkeypatch, "export_summary_csv")
        out = tmp_path / "s.csv"
        assert run_cli("montecarlo", "--preset", "base", "--runs", str(10**15), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert calls == [] and not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = run_cli("montecarlo", "--preset", "base", "--seed", "-3", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "run.seed must be at least 0, got -3" in capsys.readouterr().err

    def test_unwritable_out_fails_before_any_episode(self, tmp_path, capsys, monkeypatch):
        calls = spy(monkeypatch, "compare_controllers")
        assert_out_checked_first(tmp_path, capsys, calls, "montecarlo", "--preset", "base", "--runs", "300")

    def test_directory_out_fails_before_any_episode(self, tmp_path, capsys, monkeypatch):
        calls = spy(monkeypatch, "compare_controllers")
        assert_directory_out_refused_first(tmp_path, capsys, calls, "montecarlo", "--preset", "base", "--runs", "300")

    def test_bad_window_rejected(self, tmp_path, capsys):
        code = run_cli(
            "montecarlo", "--preset", "base", "--window", "oops",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "bad window" in capsys.readouterr().err


class TestParser:
    def test_build_parser_is_fresh_and_main_reuses_one(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()

    def test_usage_error_then_valid_run_in_one_process(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--preset", "base", "--steps", "10")
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--preset", "base", "--steps", "10", "--out", str(out)) == 0
        assert read_trace_csv(out)["k"].size == 10

    def test_calls_in_one_process_match_fresh_parsers(self, tmp_path, monkeypatch):
        # the later simulate omits the options the first one set, so a value
        # left over from an earlier call would change its bytes
        calls = [
            ("a.csv", "simulate", "--preset", "noise1", "--trajectory", "triangle", "--controller", "rls",
             "--feedback", "measurement", "--steps", "30", "--seed", "5"),
            ("b.csv", "montecarlo", "--preset", "base", "--steps", "30", "--runs", "2", "--window", "5:30",
             "--controllers", "ensemble,oracle"),
            ("c.csv", "simulate", "--preset", "noise1", "--steps", "30"),
        ]
        for name, *args in calls:
            assert run_cli(*args, "--out", str(tmp_path / name)) == 0
        monkeypatch.setattr(cli, "_parser", build_parser)
        for name, *args in calls:
            assert run_cli(*args, "--out", str(tmp_path / f"fresh_{name}")) == 0
            assert (tmp_path / name).read_bytes() == (tmp_path / f"fresh_{name}").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_module_entry_point_runs_a_simulation(tmp_path):
    out = tmp_path / "trace.csv"
    src = str(Path(aldcontrol.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "aldcontrol", "simulate", "--preset", "base", "--steps", "20", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"wrote {out}: controller=ensemble steps=20 seed=0 (ok)")
    assert read_trace_csv(out)["k"].size == 20
