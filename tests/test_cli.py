import json

import numpy as np
import pytest

from aldcontrol import read_summary_csv, read_trace_csv
from aldcontrol.cli import main


def run_cli(*args):
    return main(list(args))


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

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli("simulate", "--preset", "base", "--seed", "-1", "--out", str(out)) == 2
        assert "run.seed must be nonnegative" in capsys.readouterr().err
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

    def test_bad_controller_token_fails_before_any_episode(self, tmp_path, capsys, monkeypatch):
        import aldcontrol.harness as harness

        calls = []
        monkeypatch.setattr(harness, "run_episode", lambda cfg: calls.append(cfg))
        out = tmp_path / "summary.csv"
        for tokens in ("ensemble,rls,pid", "ensemble,single-ald:7"):
            code = run_cli("montecarlo", "--preset", "base", "--controllers", tokens, "--out", str(out))
            assert code == 2
            assert "run.controller" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = run_cli("montecarlo", "--preset", "base", "--seed", "-3", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "run.seed must be nonnegative" in capsys.readouterr().err

    def test_bad_window_rejected(self, tmp_path, capsys):
        code = run_cli(
            "montecarlo", "--preset", "base", "--window", "oops",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "bad window" in capsys.readouterr().err
