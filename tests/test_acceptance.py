"""Acceptance suite: every criterion runs at its required tolerance and prints
one PASS/FAIL line (plus per-check detail when something fails).

Criteria 4 and 6 contain comparisons that are known not to hold for this
implementation; they are asserted exactly as stated and left red rather than
loosened.  The printed detail shows which individual checks failed.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import aldcontrol as ac
import aldcontrol.harness as harness
from reference import ald_pdf, ald_sample, batch_weighted_ls


class Checklist:
    """Collects named checks for one criterion and reports them together."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name
        self.rows: list[tuple[str, bool]] = []

    def check(self, label: str, ok: bool) -> None:
        self.rows.append((label, bool(ok)))

    def finish(self) -> None:
        failed = [label for label, ok in self.rows if not ok]
        verdict = "PASS" if not failed else "FAIL"
        print(
            f"[acceptance] criterion {self.number} ({self.name}): {verdict} "
            f"({len(self.rows) - len(failed)}/{len(self.rows)} checks)"
        )
        for label, ok in self.rows:
            print(f"    {'ok  ' if ok else 'FAIL'} {label}")
        assert not failed, f"criterion {self.number}: {len(failed)} checks failed: {failed}"


def run_batch(cfg, controllers, seeds):
    """Traces of ``cfg`` under every controller for ``seeds`` from one core call on one noise tape, one list per
    controller.

    Row (controller, seed) is bit for bit the ``run_episode`` trace of ``cfg`` with that controller and seed.
    """
    return harness._traces(cfg, controllers, seeds)


def split_quad(f, point):
    lo, _ = quad(f, -np.inf, point)
    hi, _ = quad(f, point, np.inf)
    return lo + hi


def test_criterion_1_distribution_correctness():
    t0 = time.monotonic()
    cl = Checklist(1, "distribution correctness")
    rng = np.random.default_rng(1001)
    for tau in (0.05, 0.5, 0.85, 0.95):
        for sigma in (0.01, 1.0, 2.0):
            for mu in (-2.0, 0.0, 2.0):
                p = ac.AldParams(tau, mu, sigma)
                total = split_quad(lambda x: ald_pdf(p, x), mu)
                mean = split_quad(lambda x: x * ald_pdf(p, x), mu)
                draws = ald_sample(p, rng, 1_000_000)
                frac = float(np.mean(draws < mu))
                tag = f"tau={tau} sigma={sigma} mu={mu}"
                cl.check(f"pdf integrates to 1 [{tag}]", abs(total - 1.0) <= 1e-6)
                cl.check(f"quadrature mean matches formula [{tag}]", abs(mean - ac.ald_mean(p)) <= 1e-6)
                cl.check(f"P(X<mu)=tau within 0.002 [{tag}]", abs(frac - tau) <= 0.002)
    elapsed = time.monotonic() - t0
    cl.check(f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0)
    cl.finish()


def test_criterion_2_estimator_oracle_equivalence():
    cl = Checklist(2, "estimator oracle equivalence")
    rng = np.random.default_rng(2002)
    worst_batch = 0.0
    worst_reduction = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 201))
        hyp = ac.AldParams(float(rng.uniform(0.05, 0.95)), float(rng.normal()), float(rng.uniform(0.05, 2.0)))
        w0 = rng.normal(size=d)
        root = rng.normal(size=(d, d))
        P0 = root @ root.T + np.eye(d)
        xs = rng.normal(size=(n, d))
        zs = rng.normal(size=n, scale=2.0)
        # one bank: the filter under test, the tau = 1/2 filter at P0 and RLS at P0/2
        W = np.tile(w0, (3, 1))
        P = np.tile(P0, (3, 1, 1))
        P[2] /= 2.0
        half = ac.AldParams(0.5, 0.0, 1.0)
        rule = [np.concatenate(parts) for parts in zip(ac.quantile_rule([hyp, half]), ac.RLS_RULE)]
        x = np.zeros(d)
        step = ac.bind_filter(W, P, x, rule)
        residuals = []
        for x_k, z in zip(xs, zs):
            x[...] = x_k
            residuals.append(step(z)[0])
            worst_reduction = max(worst_reduction, float(np.max(np.abs(W[1] - W[2]))))
        weights = np.where(np.array(residuals) < 0.0, 1.0 - hyp.tau, hyp.tau)
        batch = batch_weighted_ls(xs, zs, np.full(n, ac.ald_mean(hyp)), weights, w0, P0)
        worst_batch = max(worst_batch, float(np.max(np.abs(batch - W[0]))))
    cl.check(f"recursive equals batch oracle within 1e-8 (worst {worst_batch:.2e})", worst_batch <= 1e-8)
    cl.check(
        f"tau=0.5 filter equals RLS at half covariance within 1e-10 (worst {worst_reduction:.2e})",
        worst_reduction <= 1e-10,
    )
    cl.finish()


def test_criterion_3_zero_noise_exact_tracking():
    t0 = time.monotonic()
    cl = Checklist(3, "zero-noise exact tracking")
    base = ac.preset_config("base")
    tiny = ac.NoiseModel((ac.MixtureComponent(1.0, ac.AldParams(0.5, 0.0, 1e-12)),))
    for kind in ("sine", "filtered_square", "triangle"):
        cfg = replace(
            base, noise=tiny, controller="oracle", steps=200,
            trajectory=replace(base.trajectory, kind=kind),
        )
        tr = ac.run_episode(cfg)
        worst = float(np.max(np.abs(tr.y - tr.y_r)))
        cl.check(f"oracle tracks exactly on {kind} (max {worst:.1e} < 1e-9)", worst < 1e-9)

    zero_mean_hyps = (ac.AldParams(0.5, 0.0, 0.01), ac.AldParams(0.5, 0.0, 0.1))
    for kind in ("sine", "filtered_square", "triangle"):
        cfg = replace(
            base, noise=tiny, hypotheses=zero_mean_hyps, controller="ensemble",
            steps=300, p0_scale=1000.0,
            trajectory=replace(base.trajectory, kind=kind),
        )
        tr = ac.run_episode(cfg)
        worst = float(np.max(np.abs(tr.y - tr.y_r)[50:]))
        cl.check(f"ensemble converges on {kind} (max after step 50 {worst:.1e} < 1e-3)", worst < 1e-3)
    elapsed = time.monotonic() - t0
    cl.check(f"runtime {elapsed:.1f}s < 5s", elapsed < 5.0)
    cl.finish()


TRANSIENT_TARGETS = {
    "sine": {"rls": 0.0123, "oracle": 0.0013, "ensemble": 0.0031},
    "filtered_square": {"rls": 0.0111, "oracle": 0.0016, "ensemble": 0.0019},
    "triangle": {"rls": 0.0017, "oracle": 0.0006, "ensemble": 0.0007},
}


def test_criterion_4_transient_error_levels():
    t0 = time.monotonic()
    cl = Checklist(4, "transient-window error levels")
    base = ac.preset_config("base")
    for kind, targets in TRANSIENT_TARGETS.items():
        cfg = replace(base, steps=100, trajectory=replace(base.trajectory, kind=kind))
        summaries = {
            s.controller: s.j_bar_mean
            for s in ac.compare_controllers(cfg, ["oracle", "ensemble", "rls"], 100, (10, 100))
        }
        for controller, target in targets.items():
            got = summaries[controller]
            ok = target / 3.0 <= got <= target * 3.0
            cl.check(f"{kind}/{controller}: j_bar {got:.5f} within 3x of {target}", ok)
        cl.check(
            f"{kind}: ordering oracle <= ensemble <= rls "
            f"({summaries['oracle']:.5f} <= {summaries['ensemble']:.5f} <= {summaries['rls']:.5f})",
            summaries["oracle"] <= summaries["ensemble"] <= summaries["rls"],
        )
    elapsed = time.monotonic() - t0
    cl.check(f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0)
    cl.finish()


def test_oracle_tracks_exactly_under_output_feedback():
    # why criterion 4's oracle cells stay red: base feeds back the output, so
    # the measurement noise never enters the oracle's loop and every run
    # tracks to rounding, whatever its noise
    base = ac.preset_config("base")
    assert base.feedback == "output"
    for kind in TRANSIENT_TARGETS:
        cfg = replace(base, steps=100, trajectory=replace(base.trajectory, kind=kind))
        [summary] = ac.compare_controllers(cfg, ["oracle"], 100, (10, 100))
        assert np.all(summary.j_runs < 1e-30), kind
        assert np.all(summary.j_runs == summary.j_runs[0]), kind


def test_triangle_rls_start_up_alone_exceeds_its_band():
    # why criterion 4's triangle rls cell stays red: on the same 100 runs,
    # the mean error of steps 10..30 summed over those 21 steps is above the
    # most that the whole window 10..100 (91 steps) may hold inside the 3x
    # band, so nothing after step 30 can bring the cell into it; and the
    # start-up does not depend on the waveform: it is within 5% of the sine's,
    # whose cell is green
    base = ac.preset_config("base")
    start_up = {}
    for kind in ("sine", "triangle"):
        cfg = replace(base, steps=100, trajectory=replace(base.trajectory, kind=kind))
        [summary] = ac.compare_controllers(cfg, ["rls"], 100, (10, 30))
        assert summary.runs_failed == 0, kind
        start_up[kind] = summary.j_bar_mean
    assert start_up["triangle"] * 21 > 3.0 * TRANSIENT_TARGETS["triangle"]["rls"] * 91
    assert abs(start_up["sine"] - start_up["triangle"]) <= 0.05 * max(start_up.values())


STEADY_ENSEMBLE_TARGETS = {"sine": 0.0003, "filtered_square": 0.0003, "triangle": 0.0001}


def test_criterion_5_steady_state_ordering():
    cl = Checklist(5, "steady-state window ordering")
    base = ac.preset_config("base")
    for kind in ("sine", "filtered_square"):
        cfg = replace(base, steps=300, trajectory=replace(base.trajectory, kind=kind))
        summaries = {
            s.controller: s.j_bar_mean
            for s in ac.compare_controllers(cfg, ["ensemble", "single-ald:0", "rls"], 100, (100, 300))
        }
        cl.check(
            f"{kind}: ensemble < single-ald < rls "
            f"({summaries['ensemble']:.6f} < {summaries['single-ald:0']:.6f} < {summaries['rls']:.6f})",
            summaries["ensemble"] < summaries["single-ald:0"] < summaries["rls"],
        )
    for kind, target in STEADY_ENSEMBLE_TARGETS.items():
        cfg = replace(base, steps=300, trajectory=replace(base.trajectory, kind=kind))
        got = ac.monte_carlo(replace(cfg, controller="ensemble"), 100, (100, 300)).j_bar_mean
        cl.check(
            f"{kind}: ensemble j_bar {got:.6f} within 3x of {target}",
            target / 3.0 <= got <= target * 3.0,
        )
    cl.finish()


def test_criterion_6_outlier_robustness():
    cl = Checklist(6, "outlier robustness")
    runs = 100
    for preset in ("noise1", "noise2", "noise3", "noise4"):
        cfg = ac.preset_config(preset)
        wins = 0
        clean = 0
        traces = run_batch(cfg, ["ensemble", "rls"], list(range(runs)))
        for tr_en, tr_rls in zip(*traces):
            m_en = ac.max_tracking_error(tr_en, (100, 1000))
            m_rls = ac.max_tracking_error(tr_rls, (100, 1000))
            wins += m_en < m_rls
            clean += m_en <= 0.5
        cl.check(f"{preset}: ensemble max below rls max in {wins}/{runs} (need >= 90)", wins >= 90)
        if preset in ("noise1", "noise3"):
            cl.check(f"{preset}: no excursion above 0.5 in {clean}/{runs} (need >= 95)", clean >= 95)
    cl.finish()


def test_criterion_7_posterior_behavior():
    cl = Checklist(7, "posterior behavior")
    base = ac.preset_config("base")
    truth = ac.AldParams(0.95, 0.0, 0.01)
    hyps = (truth, ac.AldParams(0.85, 0.0, 0.1))
    noise = ac.NoiseModel((ac.MixtureComponent(1.0, truth),))
    cfg = replace(base, noise=noise, hypotheses=hyps, steps=500, controller="ensemble")
    finals = []
    simplex_ok = True
    floor_ok = True
    for tr in run_batch(cfg, [cfg.controller], list(range(50)))[0]:
        finals.append(tr.posteriors[-1, 0])
        simplex_ok &= bool(np.all(np.abs(tr.posteriors.sum(axis=1) - 1.0) <= 1e-9))
        floor_ok &= bool(np.all(tr.posteriors >= 1e-12))
    median = float(np.median(finals))
    cl.check(f"matching subsystem posterior median {median:.4f} > 0.9 by step 500", median > 0.9)
    cl.check("posterior rows sum to 1 within 1e-9 at every step", simplex_ok)
    cl.check("posteriors never fall below the 1e-12 floor", floor_ok)
    cl.finish()


def test_criterion_8_determinism_and_interfaces(tmp_path):
    cl = Checklist(8, "determinism and interfaces")
    base = ac.preset_config("base")
    cfg = replace(base, steps=150, seed=42)

    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    ac.export_trace_csv(ac.run_episode(cfg), p1)
    ac.export_trace_csv(ac.run_episode(cfg), p2)
    cl.check("identical (config, seed) produce identical trace CSVs", p1.read_bytes() == p2.read_bytes())

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    ac.export_summary_csv(ac.compare_controllers(cfg, ["ensemble", "rls"], 3, (10, 150)), s1)
    ac.export_summary_csv(ac.compare_controllers(cfg, ["ensemble", "rls"], 3, (10, 150)), s2)
    cl.check("identical (config, seed) produce identical summary CSVs", s1.read_bytes() == s2.read_bytes())

    tr = ac.run_episode(cfg)
    back = ac.read_trace_csv(p1)
    round_trip = (
        np.array_equal(back["y"], tr.y)
        and np.array_equal(back["z"], tr.z)
        and np.array_equal(back["u"], tr.u)
        and np.array_equal(back["posteriors"], tr.posteriors)
        and np.array_equal(back["w_hat"], tr.w_hat)
    )
    cl.check("trace CSV round-trip is exact (beyond 15 significant digits)", round_trip)

    loaded = []
    for name in ac.PRESETS:
        try:
            loaded.append(ac.preset_config(name))
        except Exception:  # noqa: BLE001 - any load failure fails the check
            pass
    cl.check("all five presets load and validate", len(loaded) == 5)
    cl.finish()
