"""The three benchmark workloads: op sequences, how one op runs, and its output check.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  The operation sequence is a pure function of
the workload seed.  ``run`` calls the package only through module attributes
looked up at call time (``ac.harness.run_episode``), so the tracer's wrappers
apply to the benchmark's own calls as well.

``check`` returns a list of problems (empty when the output is right).  It
runs outside the timed region and compares

- against the golden record, for the default seed, op by op, within 1e-12
  on trace values, max errors and RMS errors;
- across paths, for any seed (Monte Carlo vs a direct episode, CSV read-back
  vs a direct episode);
- against invariants: posterior rows on the simplex within 1e-9 and at or
  above the 1e-12 floor.

A diverged episode is an output like any other: NaN and inf compare equal to
themselves.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import replace

import numpy as np

DEFAULT_SEED = 0
TOL = 1e-12
WINDOW = (100, 1000)
SEED_STRIDE = 100_000  # episode seeds of workload seed s start at s * SEED_STRIDE
POSTERIOR_FLOOR = 1e-12


def same(a, b, tol: float = TOL) -> bool:
    """Equal within ``tol`` elementwise, with NaN equal to NaN and inf equal to inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    with np.errstate(invalid="ignore"):
        ok = (a == b) | (np.isnan(a) & np.isnan(b)) | (np.abs(a - b) <= tol)
    return bool(np.all(ok))


def same_rms(j_a, j_b) -> bool:
    """Mean squared errors compared as RMS errors, which move at most as far as the trace values do."""
    return same(np.sqrt(np.asarray(j_a, dtype=float)), np.sqrt(np.asarray(j_b, dtype=float)))


def posterior_problems(post) -> list[str]:
    post = np.asarray(post, dtype=float)
    rows = post[np.all(np.isfinite(post), axis=1)]
    problems = []
    if rows.size and np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("posterior row off the simplex by more than 1e-9")
    if rows.size and np.min(rows) < POSTERIOR_FLOOR:
        problems.append("posterior below the 1e-12 floor")
    return problems


def window_max_error(y, y_r, window=WINDOW) -> float:
    err = np.abs(np.asarray(y[window[0] - 1 : window[1]]) - np.asarray(y_r[window[0] - 1 : window[1]]))
    return float(np.max(err)) if np.all(np.isfinite(err)) else float("inf")


class McBase:
    """Paired Monte Carlo batches on ``base`` through ``compare_controllers``."""

    name = "mc_base"
    steps = 1000
    runs = 4  # Monte Carlo runs per controller in one batch
    tokens = ("ensemble", "rls", "single-ald:0", "oracle")

    def setup(self, ac, out_dir) -> None:
        self.ac = ac
        self.cfg = replace(ac.config.preset_config("base"), steps=self.steps)
        self.out = out_dir / "summary.csv"

    def blocks(self, seed: int):
        for b in itertools.count():
            yield [(b, seed * SEED_STRIDE + b * self.runs)]

    def episodes(self, spec) -> int:
        return self.runs * len(self.tokens)

    def run(self, spec):
        H = self.ac.harness
        _, first_seed = spec
        summaries = H.compare_controllers(replace(self.cfg, seed=first_seed), list(self.tokens), self.runs, WINDOW)
        H.export_summary_csv(summaries, self.out, force=True)
        return summaries

    def record(self, spec, out) -> dict:
        return {s.controller: {"j_runs": s.j_runs.tolist(), "runs_failed": s.runs_failed} for s in out}

    def check(self, seed, spec, out, golden) -> list[str]:
        H = self.ac.harness
        b, first_seed = spec
        problems = []
        if [s.controller for s in out] != list(self.tokens):
            return ["summaries do not match the requested controllers"]
        for s in out:
            finite = np.isfinite(s.j_runs)
            if not np.array_equal(s.seeds, first_seed + np.arange(self.runs)):
                problems.append(f"{s.controller}: seeds are not paired")
            if s.runs_ok + s.runs_failed != self.runs or s.runs_ok != int(finite.sum()):
                problems.append(f"{s.controller}: run counts disagree with j_runs")
            if s.runs_ok and not same_rms(s.j_bar_mean, np.mean(s.j_runs[finite])):
                problems.append(f"{s.controller}: j_bar_mean is not the mean of the successful runs")
        per_run, aggregate = H.read_summary_csv(self.out)
        flat = [(s.controller, i, v) for s in out for i, v in enumerate(s.j_runs)]
        if [(r["controller"], r["run"] - 1) for r in per_run] != [(c, i) for c, i, _ in flat] or not same(
            [r["j_bar_run"] for r in per_run], [v for _, _, v in flat], 0.0
        ):
            problems.append("summary CSV per-run rows differ from the summaries")
        if [(a["runs_ok"], a["runs_failed"]) for a in aggregate] != [(s.runs_ok, s.runs_failed) for s in out] or not same(
            [a["j_bar_mean"] for a in aggregate], [s.j_bar_mean for s in out], 0.0
        ):
            problems.append("summary CSV aggregate rows differ from the summaries")
        # cross-path: one sampled run of the batch re-run directly for every controller
        i = int(np.random.default_rng([seed, b]).integers(self.runs))
        for s in out:
            trace = H.run_episode(replace(self.cfg, controller=s.controller, seed=first_seed + i))
            direct = float("nan") if trace.failed else H.accumulated_error(trace, WINDOW)
            if not np.isfinite(direct):
                direct = float("nan")  # monte_carlo records any non-finite run as failed
            if not same_rms(s.j_runs[i], direct):
                problems.append(f"{s.controller} run {i}: monte_carlo j {s.j_runs[i]!r} != episode j {direct!r}")
            problems += posterior_problems(trace.posteriors)
        if golden is not None:
            for s in out:
                g = golden[s.controller]
                if not same_rms(s.j_runs, g["j_runs"]) or s.runs_failed != g["runs_failed"]:
                    problems.append(f"{s.controller}: per-run j_bar or failure count differs from golden")
        return problems


class OutlierPairs:
    """Criterion 6's traffic: ensemble vs rls per seed on noise1..noise4, one run_episode each."""

    name = "outlier_pairs"
    steps = 1000
    presets = ("noise1", "noise2", "noise3", "noise4")
    clean_limit = 0.5  # max error at or below this is a clean run (criterion 6's excursion level)

    def setup(self, ac, out_dir) -> None:
        self.ac = ac
        self.cfgs = {p: replace(ac.config.preset_config(p), steps=self.steps) for p in self.presets}
        self.tally = {p: [0, 0] for p in self.presets}
        self.golden_tally = {p: [0, 0] for p in self.presets}

    def blocks(self, seed: int):
        for j in itertools.count():
            yield [(p, seed * SEED_STRIDE + j) for p in self.presets]

    def episodes(self, spec) -> int:
        return 2

    def run(self, spec):
        H = self.ac.harness
        preset, s = spec
        cfg = replace(self.cfgs[preset], seed=s)
        en = H.run_episode(replace(cfg, controller="ensemble"))
        rls = H.run_episode(replace(cfg, controller="rls"))
        return en, rls, H.max_tracking_error(en, WINDOW), H.max_tracking_error(rls, WINDOW)

    def record(self, spec, out) -> dict:
        return {"m_en": out[2], "m_rls": out[3]}

    def _count(self, tally, preset, m_en, m_rls) -> None:
        tally[preset][0] += m_en < m_rls
        tally[preset][1] += m_en <= self.clean_limit

    def check(self, seed, spec, out, golden) -> list[str]:
        preset, s = spec
        en, rls, m_en, m_rls = out
        problems = []
        for trace, m in ((en, m_en), (rls, m_rls)):
            if trace.seed != s or not np.array_equal(trace.k, np.arange(1, self.steps + 1)):
                problems.append(f"{trace.controller}: trace seed or steps wrong")
            if not same(m, window_max_error(trace.y, trace.y_r), 0.0):
                problems.append(f"{trace.controller}: max_tracking_error disagrees with the trace")
        problems += posterior_problems(en.posteriors)
        self._count(self.tally, preset, m_en, m_rls)
        if golden is not None:
            self._count(self.golden_tally, preset, golden["m_en"], golden["m_rls"])
            if not same([m_en, m_rls], [golden["m_en"], golden["m_rls"]]):
                problems.append(f"{preset} seed {s}: max errors differ from golden")
            if self.tally != self.golden_tally:
                problems.append(f"{preset}: win/clean counts differ from golden")
        return problems


class CliSimulate:
    """In-process ``aldcontrol simulate`` with 100-step episodes, then read the CSV back."""

    name = "cli_simulate"
    steps = 100
    trajectories = {"square": "filtered_square", "triangle": "triangle", "sine": "sine"}
    combos = tuple(itertools.product(("base", "noise1"), ("square", "triangle", "sine"), ("ensemble", "rls", "oracle")))

    def setup(self, ac, out_dir) -> None:
        self.ac = ac
        self.cfgs = {p: ac.config.preset_config(p) for p in ("base", "noise1")}
        self.out = str(out_dir / "trace.csv")
        self.sink = io.StringIO()

    def blocks(self, seed: int):
        for c in itertools.count():
            first = seed * SEED_STRIDE + c * len(self.combos)
            yield [(*combo, first + i) for i, combo in enumerate(self.combos)]

    def episodes(self, spec) -> int:
        return 1

    def run(self, spec):
        preset, trajectory, controller, s = spec
        argv = ["simulate", "--preset", preset, "--trajectory", trajectory, "--controller", controller]
        argv += ["--steps", str(self.steps), "--seed", str(s), "--out", self.out, "--force"]
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            status = self.ac.cli.main(argv)
        return status, self.ac.harness.read_trace_csv(self.out)

    def record(self, spec, out) -> dict:
        table = out[1]
        return {
            "y": table["y"][-1],
            "z": table["z"][-1],
            "u": table["u"][-1],
            "posteriors": table["posteriors"][-1].tolist(),
            "w_hat": table["w_hat"][-1].ravel().tolist(),
        }

    def check(self, seed, spec, out, golden) -> list[str]:
        preset, trajectory, controller, s = spec
        status, table = out
        if status != 0:
            return [f"simulate exited with {status}"]
        base = self.cfgs[preset]
        cfg = replace(
            base,
            trajectory=replace(base.trajectory, kind=self.trajectories[trajectory]),
            steps=self.steps,
            seed=s,
            controller=controller,
        )
        trace = self.ac.harness.run_episode(cfg)
        problems = []
        for key in ("k", "y_r", "y", "z", "u", "posteriors", "w_hat"):
            if not same(table[key], getattr(trace, key), 0.0):
                problems.append(f"CSV column {key} differs from the episode trace")
        problems += posterior_problems(table["posteriors"])
        if golden is not None:
            rec = self.record(spec, out)
            if any(not same(rec[key], golden[key]) for key in golden):
                problems.append(f"{spec}: trace values differ from golden")
        return problems


WORKLOADS = {w.name: w for w in (McBase, OutlierPairs, CliSimulate)}
