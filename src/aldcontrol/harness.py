"""Closed-loop episodes, Monte Carlo evaluation, metrics, and CSV export.

Every controller runs on one stepping core over a bank of S subsystem
estimates ``W`` (S, d) with covariances ``P`` (S, d, d) and posteriors
``post`` (S,), updated in place.  Each step scores the newest measurement's
prediction error to refresh the posteriors, assimilates it into every
subsystem estimate, forms the posterior-weighted control for the next
reference value, applies it to the plant and measures.  The controllers
differ only in the bank set up before the loop: S, the sample-weight rule,
and whether W learns and posteriors are scored.  The trace records steps
k = 1..N; everything is deterministic given the seed.

An episode whose estimates, control, output or measurement become non-finite
is diagnosed as failed (remaining rows are NaN) rather than aborting a batch;
Monte Carlo summaries count failures and average the successes.  Any other
error propagates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_controller
from .controller import ensemble_control, posterior_update, subsystem_log_likelihood
from .estimator import _gain_update
from .noise import ald_mean, mixture_sample
from .plant import parameter_vector, plant_step, reference_trajectory

__all__ = [
    "EpisodeTrace",
    "McSummary",
    "run_episode",
    "accumulated_error",
    "max_tracking_error",
    "monte_carlo",
    "compare_controllers",
    "export_trace_csv",
    "read_trace_csv",
    "export_summary_csv",
    "read_summary_csv",
]

_FLOAT_FMT = "{:.17g}"


@dataclass(frozen=True)
class EpisodeTrace:
    """Per-step record of one episode, rows k = 1..steps.

    ``u[k]`` is the input applied at step k (the final row's input targets the
    step after the trace and is never applied).  ``posteriors`` has one column
    per subsystem and ``w_hat`` one (subsystem, coefficient) slice per row.
    ``noise`` holds the measurement noise draws e(k).
    """

    controller: str
    seed: int
    k: np.ndarray
    y_r: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    posteriors: np.ndarray
    w_hat: np.ndarray
    noise: np.ndarray
    failed: bool = False
    fail_step: int | None = None

    @property
    def steps(self) -> int:
        return self.k.size


def _bank(cfg: RunConfig):
    """Subsystem bank of one controller: (hypotheses, weight rules, W).

    A rule (p_neg, p_pos, shift) weights a sample by p_neg for a negative
    prediction residual and p_pos otherwise, and shifts its innovation by
    ``shift``.  Posteriors are scored only when there are hypotheses; a bank
    without rules keeps W frozen.
    """
    kind, index = parse_controller(cfg.controller)
    if kind == "oracle":
        return (), (), parameter_vector(cfg.plant)[None, :]
    if kind == "rls":
        hyps, rules = (), ((1.0, 1.0, 0.0),)
    else:
        hyps = cfg.hypotheses if kind == "ensemble" else cfg.hypotheses[index : index + 1]
        rules = tuple((1.0 - h.tau, h.tau, ald_mean(h)) for h in hyps)
    return hyps, rules, np.tile(cfg.initial_w(), (len(rules), 1))


def run_episode(cfg: RunConfig) -> EpisodeTrace:
    """Simulate one closed-loop episode under ``cfg``; deterministic given the seed."""
    rng = np.random.default_rng(cfg.seed)
    plant, steps, m = cfg.plant, cfg.steps, cfg.plant.m
    refs = reference_trajectory(cfg.trajectory, steps + 2)
    hyps, rules, W = _bank(cfg)
    n_sub = W.shape[0]
    P = np.tile(cfg.initial_P(), (n_sub, 1, 1))
    post = np.full(n_sub, 1.0 / n_sub)
    feedback_z = cfg.feedback == "measurement"

    y_r = np.full(steps, np.nan)
    y_arr = np.full(steps, np.nan)
    z_arr = np.full(steps, np.nan)
    u_arr = np.full(steps, np.nan)
    e_arr = np.full(steps, np.nan)
    posteriors = np.full((steps, n_sub), np.nan)
    w_hats = np.full((steps, n_sub, plant.d), np.nan)
    failed = False
    fail_step: int | None = None

    # x = [u(k), u(k-1)..u(k-m+1), f(k)..f(k-n+1)] with f the fed-back signal;
    # the control law sees eta = x[1:] and the estimators the previous step's x
    x = np.zeros(plant.d)
    eta = x[1:]
    y_hist = np.zeros(plant.n)
    y = 0.0
    e = mixture_sample(cfg.noise, rng)
    z = y + e

    # overflow inside a diverging loop is diagnosed as an episode failure,
    # so the numpy warnings are suppressed for the duration of the run
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            if k >= 1 and rules:
                residuals = [z - x @ w for w in W]
                if hyps:
                    post = posterior_update(
                        post, [subsystem_log_likelihood(h, r) for h, r in zip(hyps, residuals)]
                    )
                for (p_neg, p_pos, shift), w, P_i, r in zip(rules, W, P, residuals):
                    _gain_update(w, P_i, x, p_neg if r < 0.0 else p_pos, r - shift)

            # shift both histories by one and put the newest fed-back value in front
            x[1:] = x[:-1]
            x[m : m + 1] = z if feedback_z else y
            # non-finite estimates, regressor or posteriors give no finite control
            finite = np.isfinite(W).all() and np.isfinite(eta).all()
            u = ensemble_control(post, W, eta, refs[k + 1], cfg.eps_b, cfg.u_max) if finite else math.nan
            if not math.isfinite(u):
                failed = True
                fail_step = max(k, 1)
                break
            x[0] = u

            if k >= 1:
                i = k - 1
                y_r[i] = refs[k]
                y_arr[i] = y
                z_arr[i] = z
                u_arr[i] = u
                e_arr[i] = e
                posteriors[i] = post
                w_hats[i] = W
            if k == steps:
                break

            y = plant_step(plant, x[:m], y_hist)
            e = mixture_sample(cfg.noise, rng)
            z = y + e
            if not (math.isfinite(y) and math.isfinite(z)):
                failed = True
                fail_step = k + 1
                break

    return EpisodeTrace(
        controller=cfg.controller,
        seed=cfg.seed,
        k=np.arange(1, steps + 1),
        y_r=y_r,
        y=y_arr,
        z=z_arr,
        u=u_arr,
        posteriors=posteriors,
        w_hat=w_hats,
        noise=e_arr,
        failed=failed,
        fail_step=fail_step,
    )


def _window_slice(steps: int, window: tuple[int, int]) -> slice:
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError(f"empty window {window!r}")
    if lo < 1 or hi > steps:
        raise ValueError(f"window {window!r} outside trace steps 1..{steps}")
    return slice(lo - 1, hi)


def accumulated_error(trace: EpisodeTrace, window: tuple[int, int]) -> float:
    """Per-step mean squared tracking error of the true output over the window.

    The window (k_lo, k_hi) is inclusive on both ends.  Returns NaN if the
    episode failed inside the window.
    """
    sel = _window_slice(trace.steps, window)
    err = trace.y[sel] - trace.y_r[sel]
    with np.errstate(over="ignore"):
        return float(np.mean(err**2))


def max_tracking_error(trace: EpisodeTrace, window: tuple[int, int]) -> float:
    """Largest |y - y_r| over the window; +inf for an episode that failed in or before it."""
    sel = _window_slice(trace.steps, window)
    err = np.abs(trace.y[sel] - trace.y_r[sel])
    if np.any(~np.isfinite(err)):
        return float("inf")
    return float(np.max(err))


@dataclass(frozen=True)
class McSummary:
    """Monte Carlo result for one controller: per-run errors and their mean over successes."""

    controller: str
    window: tuple[int, int]
    seed_base: int
    seeds: np.ndarray
    j_runs: np.ndarray
    runs_ok: int
    runs_failed: int
    j_bar_mean: float


def monte_carlo(cfg: RunConfig, runs: int, window: tuple[int, int]) -> McSummary:
    """Run ``runs`` episodes with seeds cfg.seed + i and average the windowed errors.

    Failed episodes are excluded from the mean and counted in ``runs_failed``.
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    _window_slice(cfg.steps, window)
    j_runs = np.full(runs, np.nan)
    seeds = cfg.seed + np.arange(runs)
    failures = 0
    for i in range(runs):
        trace = run_episode(replace(cfg, seed=int(seeds[i])))
        j = accumulated_error(trace, window)
        if trace.failed or not np.isfinite(j):
            failures += 1
        else:
            j_runs[i] = j
    ok = runs - failures
    mean = float(np.mean(j_runs[np.isfinite(j_runs)])) if ok else float("nan")
    return McSummary(
        controller=cfg.controller,
        window=(int(window[0]), int(window[1])),
        seed_base=cfg.seed,
        seeds=seeds,
        j_runs=j_runs,
        runs_ok=ok,
        runs_failed=failures,
        j_bar_mean=mean,
    )


def compare_controllers(
    cfg: RunConfig, controllers: list[str], runs: int, window: tuple[int, int]
) -> list[McSummary]:
    """Monte Carlo for several controllers under paired noise (same seeds per run).

    Every controller's config is built before the first batch runs, so a bad
    token fails before any episode.
    """
    cfgs = [replace(cfg, controller=token) for token in controllers]
    return [monte_carlo(c, runs, window) for c in cfgs]


def _open_for_write(path, force: bool):
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path}: already exists (use force to overwrite)")
    try:
        return path.open("w", newline="")
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from None


def _fmt(value: float) -> str:
    return _FLOAT_FMT.format(value)


def export_trace_csv(trace: EpisodeTrace, path, force: bool = False) -> None:
    """Write the trace with columns k, y_r, y, z, u, pi_1.., w_hat_1_1.. (17 significant digits)."""
    n_sub = trace.posteriors.shape[1]
    dim = trace.w_hat.shape[2]
    header = (
        ["k", "y_r", "y", "z", "u"]
        + [f"pi_{i + 1}" for i in range(n_sub)]
        + [f"w_hat_{i + 1}_{j + 1}" for i in range(n_sub) for j in range(dim)]
    )
    with _open_for_write(path, force) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in range(trace.steps):
            values = [
                str(int(trace.k[row])),
                _fmt(trace.y_r[row]),
                _fmt(trace.y[row]),
                _fmt(trace.z[row]),
                _fmt(trace.u[row]),
            ]
            values += [_fmt(v) for v in trace.posteriors[row]]
            values += [_fmt(v) for v in trace.w_hat[row].ravel()]
            writer.writerow(values)


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into arrays keyed k, y_r, y, z, u, posteriors, w_hat."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:5] != ["k", "y_r", "y", "z", "u"]:
        raise ValueError(f"{path}: not a trace CSV (empty or missing the k,y_r,y,z,u header)")
    header, data = rows[0], rows[1:]
    n_sub = sum(1 for name in header if name.startswith("pi_"))
    dim = sum(1 for name in header if name.startswith("w_hat_")) // max(n_sub, 1)
    table = np.array([[float(v) for v in row] for row in data]).reshape(len(data), len(header))
    return {
        "k": table[:, 0].astype(int),
        "y_r": table[:, 1],
        "y": table[:, 2],
        "z": table[:, 3],
        "u": table[:, 4],
        "posteriors": table[:, 5 : 5 + n_sub],
        "w_hat": table[:, 5 + n_sub :].reshape(len(data), n_sub, dim),
    }


def export_summary_csv(summaries: list[McSummary], path, force: bool = False) -> None:
    """Write per-run rows then an aggregate block, one line per controller."""
    if not summaries:
        raise ValueError("nothing to export: no summaries")
    for s in summaries:
        if s.j_runs.size == 0:
            raise ValueError(f"summary for {s.controller!r} has no runs")
    with _open_for_write(path, force) as fh:
        writer = csv.writer(fh)
        writer.writerow(["controller", "run", "seed", "j_bar_run"])
        for s in summaries:
            for i in range(s.j_runs.size):
                writer.writerow([s.controller, str(i + 1), str(int(s.seeds[i])), _fmt(s.j_runs[i])])
        writer.writerow(["controller", "runs_ok", "runs_failed", "j_bar_mean"])
        for s in summaries:
            writer.writerow([s.controller, str(s.runs_ok), str(s.runs_failed), _fmt(s.j_bar_mean)])


def read_summary_csv(path) -> tuple[list[dict], list[dict]]:
    """Parse a summary CSV into (per-run rows, aggregate rows) as dict lists."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    per_run: list[dict] = []
    aggregate: list[dict] = []
    section = None
    for row in rows:
        if row == ["controller", "run", "seed", "j_bar_run"]:
            section = "runs"
            continue
        if row == ["controller", "runs_ok", "runs_failed", "j_bar_mean"]:
            section = "aggregate"
            continue
        if section == "runs":
            per_run.append(
                {"controller": row[0], "run": int(row[1]), "seed": int(row[2]), "j_bar_run": float(row[3])}
            )
        elif section == "aggregate":
            aggregate.append(
                {
                    "controller": row[0],
                    "runs_ok": int(row[1]),
                    "runs_failed": int(row[2]),
                    "j_bar_mean": float(row[3]),
                }
            )
    return per_run, aggregate
