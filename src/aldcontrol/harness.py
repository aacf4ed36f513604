"""Closed-loop episodes, Monte Carlo evaluation, metrics, and CSV export.

Every controller runs on one stepping core that steps R runs at once, each a
bank of S subsystems: estimates ``W`` (R, S, d), covariances ``P``
(R, S, d, d) and posteriors ``post`` (R, S), updated in place.  Each step
applies the plant, scores the newest measurement's prediction error to
refresh the posteriors, assimilates it into every estimate, and forms the
posterior-weighted control for the next reference value.  The controllers
differ only in the bank set up before the loop.  The measurement noise comes
from a tape drawn from each seed's own stream, so a run does not depend on
its batch, and :func:`run_episode` is the batch of one.

A run fails at step i + 1 when row i is the first whose output, measurement,
control or estimates are not finite; from there on its rows are NaN.  Monte
Carlo summaries count failures and average the successes.  Any error raised
while stepping propagates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_controller
from .controller import ensemble_control, likelihood_table, posterior_update, subsystem_log_likelihood
from .estimator import _gain_update
from .noise import NoiseModel, ald_mean, mixture_sample
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

_fmt = "{:.17g}".format  # 17 significant digits round-trip every float exactly
# Monte Carlo runs stepped together at most; bounds the memory of any run count
_BATCH_RUNS = 128


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
    """Subsystem bank of one controller: (likelihood table, weight rule, W (S, d)).

    The rule (p_neg, p_pos, shift) holds one entry per subsystem: a sample is
    weighted p_neg for a negative prediction residual and p_pos otherwise,
    and its innovation is shifted by ``shift``.  Posteriors are scored only
    with a table; a bank without a rule keeps W frozen.
    """
    kind, index = parse_controller(cfg.controller)
    if kind == "oracle":
        return None, None, parameter_vector(cfg.plant)[None, :]
    if kind == "rls":
        table, rule = None, (np.ones(1), np.ones(1), np.zeros(1))
    else:
        hyps = cfg.hypotheses if kind == "ensemble" else cfg.hypotheses[index : index + 1]
        table = likelihood_table(hyps)
        rule = tuple(np.array(v) for v in zip(*((1.0 - h.tau, h.tau, ald_mean(h)) for h in hyps)))
    return table, rule, np.tile(cfg.initial_w(), (rule[0].size, 1))


def _noise_tape(noise: NoiseModel, seeds: list[int], steps: int) -> np.ndarray:
    """Measurement noise e(0)..e(steps) of each seed, one row per seed, from its scalar mixture stream."""
    tape = np.empty((len(seeds), steps + 1))
    for row, seed in zip(tape, seeds):
        rng = np.random.default_rng(seed)
        row[:] = [mixture_sample(noise, rng) for _ in range(steps + 1)]
    return tape


def _run_batch(cfg: RunConfig, seeds: list[int], tape: np.ndarray) -> list[EpisodeTrace]:
    """Episodes of ``cfg`` for ``seeds``, stepped together on the noise ``tape`` (one row per seed)."""
    plant, steps, m = cfg.plant, cfg.steps, cfg.plant.m
    runs = len(seeds)
    refs = reference_trajectory(cfg.trajectory, steps + 2)
    table, rule, W = _bank(cfg)
    n_sub = W.shape[0]
    W = np.tile(W, (runs, 1, 1))
    P = np.tile(cfg.initial_P(), (runs, n_sub, 1, 1))
    post = np.full((runs, n_sub), 1.0 / n_sub)
    feedback_z = cfg.feedback == "measurement"

    y_arr, z_arr, u_arr = np.empty((runs, steps)), np.empty((runs, steps)), np.empty((runs, steps))
    posteriors = np.empty((runs, steps, n_sub))
    w_hats = np.empty((runs, steps, n_sub, plant.d))

    # x = [u(k), u(k-1)..u(k-m+1), f(k)..f(k-n+1)] with f the fed-back signal;
    # the control law sees eta = x[1:] and the estimators the previous step's x.
    # Every product with a row of W is a vecdot: it gives the same bits as the
    # per-row dot product, which matvec on the sliced W[..., 1:] does not.
    x = np.zeros((runs, plant.d))
    x_s, eta, u_now = x[:, None, :], x[:, 1:], x[:, :m]
    fed = x[:, m : m + 1].T  # the newest fed-back entry, (1, R); empty when n = 0
    y_hist = np.zeros((runs, plant.n))
    y = np.zeros(runs)
    z = y + tape[:, 0]

    # a diverging run overflows; it is diagnosed after the loop
    with np.errstate(all="ignore"):
        for k in range(steps + 1):
            if k:
                y = plant_step(plant, u_now, y_hist)
                z = y + tape[:, k]
                if rule:
                    r = z[:, None] - np.vecdot(W, x_s)
                    if table:
                        post = posterior_update(post, subsystem_log_likelihood(table, r))
                    _gain_update(W, P, x_s, np.where(r < 0.0, rule[0], rule[1]), r - rule[2])
            # shift both histories by one and put the newest fed-back value in front
            x[:, 1:] = x[:, :-1]
            fed[:] = z if feedback_z else y
            u = ensemble_control(post, W, eta, refs[k + 1], cfg.eps_b, cfg.u_max)
            x[:, 0] = u
            if k:
                y_arr[:, k - 1], z_arr[:, k - 1], u_arr[:, k - 1] = y, z, u
                posteriors[:, k - 1], w_hats[:, k - 1] = post, W

    finite = np.isfinite(y_arr) & np.isfinite(z_arr) & np.isfinite(u_arr) & np.isfinite(w_hats).all(axis=(2, 3))
    failed = ~finite.all(axis=1)
    first = np.where(failed, np.argmin(finite, axis=1), steps)
    dead = np.arange(steps) >= first[:, None]
    y_r = np.tile(refs[1 : steps + 1], (runs, 1))
    noise = tape[:, 1:].copy()
    for column in (y_r, y_arr, z_arr, u_arr, noise, posteriors, w_hats):
        column[dead] = np.nan
    ks = np.arange(1, steps + 1)
    return [
        EpisodeTrace(
            controller=cfg.controller, seed=int(seed), k=ks, y_r=y_r[i], y=y_arr[i], z=z_arr[i], u=u_arr[i],
            posteriors=posteriors[i], w_hat=w_hats[i], noise=noise[i],
            failed=bool(failed[i]), fail_step=int(first[i]) + 1 if failed[i] else None,
        )
        for i, seed in enumerate(seeds)
    ]


def run_episode(cfg: RunConfig) -> EpisodeTrace:
    """Simulate one closed-loop episode under ``cfg``; deterministic given the seed."""
    return _run_batch(cfg, [cfg.seed], _noise_tape(cfg.noise, [cfg.seed], cfg.steps))[0]


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
    return float(np.max(err)) if np.all(np.isfinite(err)) else float("inf")


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
    return compare_controllers(cfg, [cfg.controller], runs, window)[0]


def compare_controllers(
    cfg: RunConfig, controllers: list[str], runs: int, window: tuple[int, int]
) -> list[McSummary]:
    """Monte Carlo for several controllers under paired noise (same seeds per run).

    Every controller's config, the run count and the window are checked
    before the first batch.  The runs go in batches of at most
    ``_BATCH_RUNS`` seeds; each batch's noise tape is drawn once and shared by
    every controller, so run i sees the same noise under every controller.
    """
    cfgs = [replace(cfg, controller=token) for token in controllers]
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    _window_slice(cfg.steps, window)
    seeds = cfg.seed + np.arange(runs)
    j_runs = [np.full(runs, np.nan) for _ in cfgs]
    for lo in range(0, runs, _BATCH_RUNS):
        batch = [int(s) for s in seeds[lo : lo + _BATCH_RUNS]]
        tape = _noise_tape(cfg.noise, batch, cfg.steps)
        for c, j in zip(cfgs, j_runs):
            for i, trace in enumerate(_run_batch(c, batch, tape), lo):
                if not trace.failed:
                    j[i] = accumulated_error(trace, window)
    summaries = []
    for c, j in zip(cfgs, j_runs):
        ok = np.isfinite(j)
        j[~ok] = np.nan
        summaries.append(
            McSummary(
                controller=c.controller, window=(int(window[0]), int(window[1])), seed_base=cfg.seed,
                seeds=seeds, j_runs=j, runs_ok=int(ok.sum()), runs_failed=runs - int(ok.sum()),
                j_bar_mean=float(np.mean(j[ok])) if ok.any() else float("nan"),
            )
        )
    return summaries


def _open_for_write(path, force: bool):
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path}: already exists (use force to overwrite)")
    try:
        return path.open("w", newline="")
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from None


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
            values = (trace.y_r[row], trace.y[row], trace.z[row], trace.u[row], *trace.posteriors[row])
            writer.writerow([str(int(trace.k[row])), *map(_fmt, values), *map(_fmt, trace.w_hat[row].ravel())])


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
    if not rows or rows[0] != ["controller", "run", "seed", "j_bar_run"]:
        raise ValueError(f"{path}: not a summary CSV (empty or missing the controller,run,seed,j_bar_run header)")
    per_run: list[dict] = []
    aggregate: list[dict] = []
    in_runs = True
    for row in rows[1:]:
        if row == ["controller", "runs_ok", "runs_failed", "j_bar_mean"]:
            in_runs = False
        elif in_runs:
            per_run.append(
                {"controller": row[0], "run": int(row[1]), "seed": int(row[2]), "j_bar_run": float(row[3])}
            )
        else:
            aggregate.append(
                {"controller": row[0], "runs_ok": int(row[1]), "runs_failed": int(row[2]), "j_bar_mean": float(row[3])}
            )
    return per_run, aggregate
