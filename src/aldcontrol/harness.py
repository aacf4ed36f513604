"""Closed-loop episodes, Monte Carlo evaluation, metrics, and CSV export.

Every controller runs on one stepping core that steps many runs at once.
Its rows are (controller, seed) pairs, each a bank of S subsystems: estimates
``W`` (rows, S, d), covariances ``P`` (rows, S, d, d) and posteriors ``post``
(rows, S), updated in place.  Each step applies the plant, assimilates the
newest measurement into every estimate, scores its prediction error to
refresh the posteriors, and forms the posterior-weighted control for the
next reference value.  Each phase is its module's public step, bound once
per batch: ``bind_plant``, ``bind_filter``, ``bind_posterior`` (to the
hypotheses of the batch's scored ensemble and the posteriors of its scored
rows, a prefix of the learning rows: it scores that prefix of the residuals
the filter step returns, reads nothing else, and updates the posteriors),
and ``bind_ensemble_law``, to the state arrays.  Every
history of a row is a column block of one array, which the loop alone
shifts, once per step: the steps only read their histories and write their
outputs.  The controllers differ only in the bank set up before the loop,
and each binding skips the exact no-ops its batch allows: an all-``rls``
batch skips the sign and weight.  A batch of one row (:func:`run_episode`)
takes its Bayes and law steps from ``controller._bind_one_row`` instead,
whatever its S, which score, update the posteriors and form the control
on Python floats with the same bits, since both sum over the subsystems
left to right; ``_run_batch`` is the only place that picks them.  The
measurement noise comes from a tape that ``_run_batch`` draws from each
seed's own stream, so a run does not depend on its batch.  The last seed's
row is kept, keyed by value (``_noise_row``), so paired episodes (several
controllers run one after another on one seed) draw it once.

The loop keeps y and u per step: the plant writes y straight into the
step's column of its record, and the loop writes the law's input into the
step's column of u and into the history.  Recording is a fifth phase, bound
the same way by a recorder that the caller picks (see ``_run_batch``).
``_trace_recorder`` builds full traces: :func:`run_episode` is its batch of
one controller and one seed.  ``_error_recorder`` gives Monte Carlo only
each run's windowed error.

Only banks of two or more subsystems are scored; a one-subsystem posterior
is the constant 1.0, so the ensemble law gives such a bank its subsystem's
certainty-equivalence input bit for bit.  A run fails at step i + 1 when
row i is the first whose output, measurement, control or estimates are not
finite (a NaN posterior makes the weighted control NaN at its step); from
there on its rows are NaN.
Monte Carlo summaries count failures and average the successes; their runs
fail by the same rule, read from the final estimates (see ``_error_recorder``).
Any error raised while stepping propagates.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_controller
from .controller import _bind_one_row, bind_ensemble_law, bind_posterior
from .estimator import RLS_RULE, bind_filter, quantile_rule
from .noise import NoiseModel, _sampler
from .plant import _integer, _items, _shown, _store, bind_plant, parameter_vector, reference_trajectory

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

# (controller, seed) rows stepped together at most, or one seed of every controller
# when there are more controllers; bounds the memory of any run count
_BATCH_RUNS = 512
_RUN_HEADER = ["controller", "run", "seed", "j_bar_run"]
_AGGREGATE_HEADER = ["controller", "runs_ok", "runs_failed", "j_bar_mean"]
# a summary line of either block: %.17g round-trips every float exactly
_SUMMARY_LINE = "%s,%d,%d,%.17g\r\n"


@dataclass(frozen=True, eq=False)
class EpisodeTrace:
    """Per-step record of one episode, rows k = 1..steps.

    ``u[k]`` is the input applied at step k (the final row's input targets the
    step after the trace and is never applied).  ``posteriors`` has one column
    per subsystem and ``w_hat`` one (subsystem, coefficient) slice per row.
    ``noise`` holds the measurement noise draws e(k).  ``fail_step`` is the
    first step whose record is not finite, or None.  ``steps``, the step
    numbers ``k`` and ``failed`` are derived: ``y.size``, 1..steps and
    ``fail_step is not None``.  A trace compares and hashes by identity, as
    its arrays cannot: compare the values of two with ``np.array_equal``.
    """

    controller: str
    seed: int
    y_r: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    posteriors: np.ndarray
    w_hat: np.ndarray
    noise: np.ndarray
    fail_step: int | None = None

    @property
    def steps(self) -> int:
        return self.y.size

    @property
    def k(self) -> np.ndarray:
        return np.arange(1, self.steps + 1)

    @property
    def failed(self) -> bool:
        return self.fail_step is not None


def _bank(cfg: RunConfig, token: str):
    """Subsystem bank of the controller ``token`` under ``cfg``: (scored, weight rule, W (S_c, d)).

    The rule is :func:`~aldcontrol.estimator.bind_filter`'s, one entry per
    subsystem.  Only a bank of two or more subsystems is ``scored``: only
    its posteriors are stepped, and it is an ``ensemble`` bank over
    ``cfg.hypotheses``.  Every other bank has one subsystem.  A bank without
    a rule keeps W frozen.
    """
    kind, index = parse_controller(token)
    if kind == "oracle":
        return False, None, parameter_vector(cfg.plant)[None, :]
    if kind == "rls":
        rule = RLS_RULE
    else:
        rule = quantile_rule(cfg.hypotheses if kind == "ensemble" else cfg.hypotheses[index : index + 1])
    return len(rule[0]) > 1, rule, np.tile(cfg.initial_w(), (len(rule[0]), 1))


@functools.lru_cache(maxsize=1)
def _noise_row(noise: NoiseModel, seed: int, steps: int) -> np.ndarray:
    """Measurement noise e(0)..e(steps) of one seed from its scalar mixture stream, read-only.

    The last row drawn is kept, keyed by the values of its arguments, so a
    paired episode (another controller on the same seed) reads it instead
    of drawing it again.  Models that compare equal hold the same floats
    (``plant._number``), so they draw the same row.
    """
    draw = _sampler(noise, np.random.default_rng(seed))
    # allocated before the first draw, so a step count too large for memory fails there with numpy's MemoryError
    row = np.fromiter((draw() for _ in range(steps + 1)), float, steps + 1)
    row.flags.writeable = False
    return row


def _run_batch(cfg: RunConfig, controllers: list[str], seeds: list[int], recorder):
    """Episodes of ``cfg`` under every controller token in ``controllers`` for every seed, stepped together.

    ``cfg``'s own controller is not read.  There is one state row per
    (controller, seed), and the loop keeps each row's y and u per step.
    Every row reads its seed's noise row (``_noise_row``), so a seed sees the
    same noise under every controller.  The rest is the ``recorder``'s,
    bound once to the state like the phases:
    ``recorder(y, u, noise, y_r, W, post, n_scored, n_learn)`` returns a
    ``record()`` called after every step (or None, for no per-step record)
    and a ``finish()`` called after the loop, which returns one result per
    row.  Its arguments:

    - ``y`` and ``u``, the (rows, steps) records the loop fills, and
      ``noise``, the draws e(1)..e(steps) of each row;
    - ``y_r``, the reference y_r(1)..y_r(steps);
    - ``W`` and ``post``, the state arrays, updated in place;
    - ``n_scored`` and ``n_learn``: only the first ``n_scored`` rows have
      their posteriors stepped and only the first ``n_learn`` their
      estimates, and the others never change.  A scored row's bank has
      all S = len(cfg.hypotheses) subsystems and every other row's bank one,
      padded to S.

    The results come back per controller in the order of ``controllers``,
    each block in the order of ``seeds``.
    """
    plant, steps, m = cfg.plant, cfg.steps, cfg.plant.m
    runs = len(seeds)
    # one row per (controller, seed), in the order of the state rows; each seed's row is drawn at most once
    tape = np.array([_noise_row(cfg.noise, seed, steps) for seed in seeds] * len(controllers))
    refs = reference_trajectory(cfg.trajectory, steps + 2)
    # scored banks first, then learning-only ones, then frozen ones: the
    # posterior step and the gain step each work on a prefix of the rows
    banks = [_bank(cfg, token) for token in controllers]
    order = sorted(range(len(banks)), key=lambda c: (not banks[c][0], banks[c][1] is None))
    scored, rules, Ws = zip(*(banks[c] for c in order))
    n_scored = runs * sum(scored)
    n_learn = runs * sum(r is not None for r in rules)
    S = len(cfg.hypotheses) if n_scored else 1

    def stack(per_bank):
        """One (S_c, ...) value per bank, S_c = S or 1, broadcast to S and repeated once per seed."""
        return np.array([np.broadcast_to(v, (S, *np.shape(v)[1:])) for v in per_bank]).repeat(runs, axis=0)

    # Only unscored banks are padded: every scored row is scored by one step.
    # A padded subsystem copies subsystem 0 with prior 0: it tracks subsystem 0
    # bit for bit, and its 0*u leaves the control's sum unchanged.
    rule = tuple(map(stack, zip(*rules[: n_learn // runs])))
    W = stack(Ws)
    rows = len(W)
    # uniform over a scored row's S subsystems, and 1.0 on the subsystem of every other row
    post = np.where(np.arange(rows)[:, None] < n_scored, 1.0 / S, np.eye(1, S))
    P = np.tile(cfg.initial_P(), (rows, S, 1, 1))
    feedback_z = cfg.feedback == "measurement"
    y_arr, u_arr = np.empty((rows, steps)), np.empty((rows, steps))
    record, finish = recorder(y_arr, u_arr, tape[:, 1:], refs[1 : steps + 1], W, post, n_scored, n_learn)

    # Every history is a column block of one array, newest first:
    # hist = [u(k)..u(k-m+1), f(k)..f(k-n+1)], f the fed-back signal, and under
    # measurement feedback (f = z) then y(k)..y(k-n+1), so that the plant reads
    # the last n columns under either feedback.  The control law sees eta = x[1:]
    # of the regressor x = hist[:, :d], and the estimators the previous step's x.
    # Every product with a row of W is a vecdot: it gives the same bits as the
    # per-row dot product, which matvec on the sliced W[..., 1:] does not.
    d, n = plant.d, plant.n
    width = d + n if feedback_z else d
    hist = np.zeros((rows, width))
    x = hist[:, :d]
    eta, u_now, u_new, older, newer = x[:, 1:], x[:, :m], x[:, 0], hist[:, 1:], hist[:, :-1]
    # the newest fed-back and output entries, (1, rows) each: both empty when
    # n = 0, and the output entry also under output feedback, where f is y
    fed, y_new = hist[:, m : m + 1].T, hist[:, d : d + 1].T
    y = np.zeros(rows)
    z = y + tape[:, 0]
    z_learn, x_learn = z[:n_learn, None], x[:n_learn, None, :]
    step_plant = bind_plant(plant, u_now, hist[:, width - n :])
    step_filter = bind_filter(W[:n_learn], P[:n_learn], x_learn, rule) if n_learn else None
    limits = cfg.eps_b, cfg.u_max
    if rows == 1:
        # an episode of its own: the Bayes and law steps on Python floats, with the array steps' bits
        bayes, control = _bind_one_row(cfg.hypotheses, post, W, eta, *limits)
    else:
        bayes, control = bind_posterior(cfg.hypotheses, post[:n_scored]), bind_ensemble_law(post, W, eta, *limits)
    add = np.add

    # a diverging run overflows; the recorder diagnoses it after the loop
    with np.errstate(all="ignore"):
        # step 0 only feeds back z(0) (shifting the zero histories changes nothing) and forms u(0)
        fed[...] = z if feedback_z else y
        # the references y_r(1)..y_r(steps + 1) as Python floats, which the array laws take with the same bits
        y_rs = iter(refs[1:].tolist())
        u_new[...] = control(next(y_rs))
        # per step: the noise, the next reference and the step's column of y
        # and u, into which the plant writes its output and the loop the law's
        for e, y_r_next, y_k, u_k in zip(tape.T[1:], y_rs, y_arr.T, u_arr.T):
            y = step_plant(y_k)
            add(y, e, z)
            if n_learn:
                r = step_filter(z_learn)
                if n_scored:
                    bayes(r[:n_scored])
            # shift every history by one and put the newest values in front
            older[...] = newer
            if feedback_z:
                fed[...], y_new[...] = z, y
            else:
                fed[...] = y
            u_new[...] = u_k[...] = control(y_r_next)
            if record:
                record()

    results = finish()
    return [results[j * runs : (j + 1) * runs] for j in np.argsort(order)]


def _trace_recorder(y, u, noise, y_r, W, post, n_scored, n_learn):
    """Recorder of full traces: each row's :class:`EpisodeTrace` fields but its controller and seed.

    The records start as copies of the posteriors and estimates at bind
    time, and per step it copies only those of the rows whose loop steps
    them: the others never change.  A run fails at step i + 1 when row i is
    the first whose output, measurement, control or estimates are not
    finite, and from there on every column of its trace is NaN.  A scored
    row's trace keeps all S subsystem columns and every other row's its one.
    """
    rows, steps = y.shape
    posteriors, w_hats = post[:, None].repeat(steps, axis=1), W[:, None].repeat(steps, axis=1)
    post_now, W_now = post[:n_scored], W[:n_learn]
    post_cols, W_cols = iter(posteriors[:n_scored].swapaxes(0, 1)), iter(w_hats[:n_learn].swapaxes(0, 1))

    def record():
        next(W_cols)[...] = W_now
        if n_scored:
            next(post_cols)[...] = post_now

    def finish():
        z = y + noise  # the loop's z, added again rather than copied every step
        finite = np.isfinite(y) & np.isfinite(z) & np.isfinite(u) & np.isfinite(w_hats).all(axis=(2, 3))
        failed = ~finite.all(axis=1)
        first = np.where(failed, np.argmin(finite, axis=1), steps)
        dead = np.arange(steps) >= first[:, None]
        y_rs = np.tile(y_r, (rows, 1))
        for column in (y_rs, y, z, u, noise, posteriors, w_hats):
            column[dead] = np.nan
        return [
            dict(
                y_r=y_rs[row], y=y[row], z=z[row], u=u[row], noise=noise[row], posteriors=posteriors[row, :, :s_c],
                w_hat=w_hats[row, :, :s_c], fail_step=int(first[row]) + 1 if failed[row] else None,
            )
            for row, s_c in enumerate([W.shape[1]] * n_scored + [1] * (rows - n_scored))
        ]

    # a scored row also learns: a batch with no row learning steps neither
    return (record if n_learn else None), finish


def _error_recorder(window: slice):
    """Recorder of each run's :func:`accumulated_error` over the trace rows ``window``, NaN for a failed run.

    It keeps no per-step record: ``finish`` reads the loop's y and u and the
    final W.  A run fails by the trace's rule, and failure needs no history
    of W: W changes only by the in-place ``W += gain*innovation``, where
    inf + finite is inf and inf - inf and NaN + x are NaN, so a non-finite
    entry stays non-finite; a frozen W is the validated config's, and a
    padded subsystem copies subsystem 0 bit for bit.  So W was non-finite
    at some step exactly when it is at the end.
    """

    def bind(y, u, noise, y_r, W, *_):
        def finish():
            finite = np.isfinite(y) & np.isfinite(y + noise) & np.isfinite(u)
            failed = ~finite.all(axis=1) | ~np.isfinite(W).all(axis=(1, 2))
            err = y[:, window] - y_r[window]
            return np.array([np.nan if f else _mean_square(e) for f, e in zip(failed, err)])

        return None, finish

    return bind


def _traces(cfg: RunConfig, controllers: list[str], seeds: list[int]) -> list[list[EpisodeTrace]]:
    """Traces of ``cfg`` under every controller token in ``controllers`` for every seed from one core call, one
    list per controller.

    Row (controller, seed) is bit for bit the :func:`run_episode` trace of ``cfg`` with that controller and seed.
    """
    return [
        [EpisodeTrace(controller=token, seed=seed, **fields) for seed, fields in zip(seeds, block)]
        for token, block in zip(controllers, _run_batch(cfg, controllers, seeds, _trace_recorder))
    ]


def run_episode(cfg: RunConfig) -> EpisodeTrace:
    """Simulate one closed-loop episode under ``cfg``; deterministic given the seed."""
    return _traces(cfg, [cfg.controller], [cfg.seed])[0][0]


def _window(window: tuple[int, int]) -> tuple[int, int]:
    """The inclusive window (k_lo, k_hi) as two ints, 1 <= k_lo <= k_hi, checked by the integer rule (``_integer``)."""
    shown = _shown(window)
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise ValueError(f"window {shown} must be a (k_lo, k_hi) pair") from None
    lo, hi = (_integer(k, f"window {shown} bound") for k in (lo, hi))
    if lo > hi:
        raise ValueError(f"empty window {shown}")
    if lo < 1:
        raise ValueError(f"window {shown} starts before trace step 1")
    return lo, hi


def _window_slice(steps: int, window: tuple[int, int]) -> slice:
    """Trace rows of the inclusive window (k_lo, k_hi) (see ``_window``), which must end by trace step ``steps``."""
    lo, hi = _window(window)
    if hi > steps:
        raise ValueError(f"window {_shown(window)} outside trace steps 1..{steps}")
    return slice(lo - 1, hi)


def _mean_square(err: np.ndarray) -> float:
    """Mean of ``err**2``, the windowed error of :func:`accumulated_error` and of the Monte Carlo core alike."""
    with np.errstate(over="ignore"):
        return float(np.mean(err**2))


def accumulated_error(trace: EpisodeTrace, window: tuple[int, int]) -> float:
    """Per-step mean squared tracking error of the true output over the window.

    The window (k_lo, k_hi) is inclusive on both ends.  Returns NaN if the
    episode failed inside or before the window, whose rows are then NaN.
    """
    sel = _window_slice(trace.steps, window)
    return _mean_square(trace.y[sel] - trace.y_r[sel])


def max_tracking_error(trace: EpisodeTrace, window: tuple[int, int]) -> float:
    """Largest |y - y_r| over the window; +inf for an episode that failed in or before it."""
    sel = _window_slice(trace.steps, window)
    err = np.abs(trace.y[sel] - trace.y_r[sel])
    return float(np.max(err)) if np.all(np.isfinite(err)) else float("inf")


@dataclass(frozen=True, eq=False)
class McSummary:
    """Monte Carlo result for one controller: the windowed error ``j_runs[i]`` of run i, seeded ``seed_base + i``.

    Everything else is derived from those two fields: ``seeds``, the
    ``runs_ok`` finite runs and ``runs_failed`` others (NaN or infinite),
    and ``j_bar_mean``, the mean over the finite runs (NaN when there are
    none).  The controller is checked as a config's is (a valid token) and
    stored as a Python str.
    ``seed_base`` and the window are stored as Python ints, checked as
    :func:`run_episode` checks a seed (an integer, at least 0) and as
    :func:`accumulated_error` checks a window (two integers,
    1 <= k_lo <= k_hi).  ``j_runs`` is stored as a read-only float64 copy
    of a one-dimensional array of real numbers, so a later write into the
    caller's array changes nothing here.  A summary compares and hashes by
    identity, as its array cannot: compare the values of two with
    ``np.array_equal``.
    """

    controller: str
    window: tuple[int, int]
    seed_base: int
    j_runs: np.ndarray

    def __post_init__(self) -> None:
        parse_controller(self.controller)
        window, seed_base = _window(self.window), _integer(self.seed_base, "seed_base", least=0)
        try:
            j_runs = np.array(self.j_runs)
        except ValueError:  # numpy's "inhomogeneous shape": nested sequences of unequal lengths
            raise ValueError("j_runs must be one-dimensional, got nested sequences of unequal lengths") from None
        if j_runs.ndim != 1:
            raise ValueError(f"j_runs must be one-dimensional, got shape {j_runs.shape}")
        if j_runs.dtype.kind not in "iuf":  # no bool, string or object
            raise ValueError(f"j_runs entries must be real numbers, got dtype {j_runs.dtype}")
        j_runs = j_runs.astype(float, copy=False)
        j_runs.flags.writeable = False
        _store(self, controller=str(self.controller), window=window, seed_base=seed_base, j_runs=j_runs)

    @property
    def seeds(self) -> np.ndarray:
        """Run i's seed ``seed_base + i``: int64 while the last seed fits, Python ints past it."""
        seeds = range(self.seed_base, self.seed_base + self.j_runs.size)
        return np.array(seeds, dtype=np.int64 if seeds.stop <= 2**63 else object)

    @property
    def runs_ok(self) -> int:
        return int(np.isfinite(self.j_runs).sum())

    @property
    def runs_failed(self) -> int:
        return self.j_runs.size - self.runs_ok

    @property
    def j_bar_mean(self) -> float:
        ok = self.j_runs[np.isfinite(self.j_runs)]
        with np.errstate(over="ignore"):  # finite errors can sum past the largest float: the mean is then inf
            return float(np.mean(ok)) if ok.size else float("nan")


def monte_carlo(cfg: RunConfig, runs: int, window: tuple[int, int]) -> McSummary:
    """Run ``runs`` episodes with seeds cfg.seed + i and average the windowed errors.

    Failed episodes, even those that fail after the window, are excluded from
    the mean and counted in ``runs_failed``.
    """
    return compare_controllers(cfg, [cfg.controller], runs, window)[0]


def compare_controllers(
    cfg: RunConfig, controllers: list[str], runs: int, window: tuple[int, int]
) -> list[McSummary]:
    """Monte Carlo for several controllers under paired noise (same seeds per run).

    The controllers may come as any iterable of tokens but a string (the
    sequence rule ``plant._items``), which must not be empty.  They, every
    controller's config, the run count (an integer, at least 1) and the
    window are checked before the first batch.  The runs go in chunks of
    seeds, and each chunk is one core call that steps every controller with
    every seed of the chunk.  A chunk holds at most max(``_BATCH_RUNS``, C)
    (controller, seed) rows for C controllers, one seed per chunk when C
    exceeds ``_BATCH_RUNS``, so a chunk's memory stays bounded for any run
    count.  Beyond the chunk, a run takes one error per controller in the
    (C, runs) array of errors, allocated before the first chunk: a count too
    large for memory fails there with numpy's MemoryError.
    Its noise tape is drawn once
    and shared by every controller, so run i sees the same noise under every
    controller.  A chunk records through ``_error_recorder``: it keeps y and
    u per step and no trace, and gets each run's :func:`accumulated_error`
    back from the core.
    A run that fails after the window, or whose error overflows, still counts
    as failed (j = NaN), though :func:`accumulated_error` alone gives the
    first a finite value.  Each summary is built from its controller's row of
    errors alone: its seeds, counts and mean derive from it (see
    :class:`McSummary`).
    """
    # each token checked against cfg (a single-ald index against its hypotheses)
    controllers = [replace(cfg, controller=token).controller for token in _items(controllers, "controllers", str)]
    if not controllers:
        raise ValueError("no controllers given")
    runs = _integer(runs, "runs", least=1)
    rows = _window_slice(cfg.steps, window)
    record_errors = _error_recorder(rows)
    # Python ints, so that every seed run_episode takes works here too; a range, so that a run count too
    # large for memory fails at j_runs with numpy's MemoryError
    seeds = range(cfg.seed, cfg.seed + runs)
    j_runs = np.empty((len(controllers), runs))
    chunk = max(1, _BATCH_RUNS // len(controllers))
    for lo in range(0, runs, chunk):
        j_runs[:, lo : lo + chunk] = _run_batch(cfg, controllers, seeds[lo : lo + chunk], record_errors)
    j_runs[~np.isfinite(j_runs)] = np.nan  # a run whose error overflows counts as failed too
    window = (rows.start + 1, rows.stop)
    return [McSummary(token, window, cfg.seed, j) for token, j in zip(controllers, j_runs)]


def _writable_path(path, force: bool) -> Path:
    """``path`` as a Path, checked before anything is written: it is not a directory, it is new or ``force``
    is set, and its parent exists and is a directory.

    Any other error of the later open names the path itself.
    """
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"{path}: is a directory")
    if path.exists() and not force:
        raise FileExistsError(f"{path}: already exists (use force to overwrite)")
    if path.parent.is_dir():
        return path
    if path.parent.exists():
        raise NotADirectoryError(f"{path}: {str(path.parent)!r} is not a directory")
    raise FileNotFoundError(f"{path}: directory {str(path.parent)!r} does not exist")


def _trace_header(n_sub: int, dim: int) -> list[str]:
    """Trace CSV columns k, y_r, y, z, u, pi_1..pi_S, w_hat_1_1..w_hat_S_d for S = ``n_sub``, d = ``dim``."""
    return (
        ["k", "y_r", "y", "z", "u"]
        + [f"pi_{i + 1}" for i in range(n_sub)]
        + [f"w_hat_{i + 1}_{j + 1}" for i in range(n_sub) for j in range(dim)]
    )


def export_trace_csv(trace: EpisodeTrace, path, force: bool = False) -> None:
    """Write the trace with columns k, y_r, y, z, u, pi_1.., w_hat_1_1.. (17 significant digits)."""
    n_sub, dim = trace.w_hat.shape[1:]
    header = _trace_header(n_sub, dim)
    template = "%d" + ",%.17g" * (len(header) - 1) + "\r\n"
    table = np.column_stack(
        (trace.y_r, trace.y, trace.z, trace.u, trace.posteriors, trace.w_hat.reshape(trace.steps, n_sub * dim))
    )
    with _writable_path(path, force).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(template % (k, *row.tolist()) for k, row in zip(trace.k.tolist(), table))


def _read_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of the CSV file at ``path`` ([] if empty) and the (line number, fields) of each later row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            return header, [(reader.line_num, row) for row in reader]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file: {exc}") from None


def _parse_row(path, line: int, row: list[str], width: int, convert) -> list:
    """``convert(row)``, the values of one data row, the row check of both readers: ``width`` fields, then the
    conversion; a ValueError of either names the path and line."""
    if len(row) != width:
        raise ValueError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
    try:
        return convert(row)
    except ValueError as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from None


def _floats(row: list[str]) -> list[float]:
    return list(map(float, row))


def _summary_values(row: list[str]) -> list:
    """The fields of a line of either summary block: (controller, count, count, value)."""
    return [row[0], int(row[1]), int(row[2]), float(row[3])]


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into arrays keyed k, y_r, y, z, u, posteriors, w_hat.

    Each data row is read once, in file order, by the row check that
    :func:`read_summary_csv` uses: its length, then its fields, every one a
    float.  Then the format's own rule: data row j has k = j.  The first
    line that breaks one of these raises a ValueError naming the path and
    the line.
    """
    header, data = _read_rows(path)
    n_sub = sum(1 for name in header if name.startswith("pi_"))
    dim = (len(header) - 5 - n_sub) // max(n_sub, 1)
    if n_sub < 1 or dim < 1 or header != _trace_header(n_sub, dim):
        raise ValueError(f"{path}: not a trace CSV (header is not k,y_r,y,z,u,pi_1..pi_S,w_hat_1_1..w_hat_S_d, S,d >= 1)")
    width = len(header)
    values = []
    for j, (line, row) in enumerate(data, 1):
        fields = _parse_row(path, line, row, width, _floats)
        if fields[0] != j:
            raise ValueError(f"{path}: line {line}: expected k = {j}, got {row[0]!r}")
        values.append(fields)
    table = np.array(values).reshape(len(data), width)
    return {
        "k": np.arange(1, len(data) + 1),
        "y_r": table[:, 1],
        "y": table[:, 2],
        "z": table[:, 3],
        "u": table[:, 4],
        "posteriors": table[:, 5 : 5 + n_sub],
        "w_hat": table[:, 5 + n_sub :].reshape(len(data), n_sub, dim),
    }


def export_summary_csv(summaries: list[McSummary], path, force: bool = False) -> None:
    """Write per-run rows then an aggregate block, one line per controller (17 significant digits).

    The summaries may come as any iterable of :class:`McSummary` (the
    sequence rule ``plant._items``), read once; there must be at least one,
    and each must have runs.  Each summary's controller is a valid token
    (see :class:`McSummary`), which no field of the CSV needs to quote.
    """
    summaries = _items(summaries, "summaries", McSummary)
    if not summaries:
        raise ValueError("nothing to export: no summaries")
    for s in summaries:
        if s.j_runs.size == 0:
            raise ValueError(f"summary for {s.controller!r} has no runs")
    with _writable_path(path, force).open("w", newline="") as fh:
        fh.write(",".join(_RUN_HEADER) + "\r\n")
        for s in summaries:
            runs = enumerate(zip(s.seeds.tolist(), s.j_runs.tolist()), 1)
            fh.writelines(_SUMMARY_LINE % (s.controller, i, seed, j) for i, (seed, j) in runs)
        fh.write(",".join(_AGGREGATE_HEADER) + "\r\n")
        fh.writelines(_SUMMARY_LINE % (s.controller, s.runs_ok, s.runs_failed, s.j_bar_mean) for s in summaries)


def read_summary_csv(path) -> tuple[list[dict], list[dict]]:
    """Parse a summary CSV into (per-run rows, aggregate rows) as dict lists.

    Each data row is read once, in file order, by the row check that
    :func:`read_trace_csv` uses.  Then the format's own rule: the aggregate
    header comes exactly once, and the aggregate block has one row per
    controller of the per-run block, in the same order.  Each controller's
    runs start at run 1, and a controller may come more than once.  A break
    of either rule raises a ValueError naming the path, and the line where
    there is one.
    """
    header, data = _read_rows(path)
    if header != _RUN_HEADER:
        raise ValueError(f"{path}: not a summary CSV (empty or missing the controller,run,seed,j_bar_run header)")
    per_run: list[dict] = []
    aggregate: list[dict] = []
    # both blocks have the fields of _summary_values, keyed by their header
    keys, block = _RUN_HEADER, per_run
    for line, row in data:
        if row != _AGGREGATE_HEADER:
            values = dict(zip(keys, _parse_row(path, line, row, len(keys), _summary_values)))
            # the aggregate row i names the per-run block's controller i, and there is none past the last
            if block is aggregate and controllers[len(aggregate) : len(aggregate) + 1] != [row[0]]:
                raise ValueError(f"{path}: line {line}: aggregate row {len(aggregate) + 1} is {row[0]!r}, {order}")
            block.append(values)
        elif block is aggregate:
            raise ValueError(f"{path}: line {line}: a second aggregate header")
        else:
            controllers = [r["controller"] for r in per_run if r["run"] == 1]
            keys, block, order = _AGGREGATE_HEADER, aggregate, f"but the per-run block's controllers are {controllers}"
    if block is per_run:
        raise ValueError(f"{path}: no aggregate block (missing the controller,runs_ok,runs_failed,j_bar_mean header)")
    if len(aggregate) < len(controllers):
        raise ValueError(f"{path}: {len(aggregate)} aggregate rows, {order}")
    return per_run, aggregate
