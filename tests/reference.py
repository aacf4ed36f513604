"""Independent test oracles: the paper's equations written out once, in plain form, for the tests to compare against.

The package holds only what a run executes.  What the tests need beside it
lives here, stated once:

- the densities :func:`ald_pdf`, :func:`gaussian_pdf` and :func:`mixture_pdf`,
  the check loss :func:`pinball_loss` and the per-component draws
  :func:`ald_sample` and :func:`gaussian_sample` (one call of the package's
  bound draw each);
- :func:`batch_weighted_ls`, the batch solution that a sequence of filter
  steps reproduces;
- a reference episode, one plain per-step loop over one run with its own
  small arrays and the textbook form of each equation:

  - the ARX plant y(k) = b'[u(k-1)..u(k-m)] + a'[y(k-1)..y(k-n)] and z(k) = y(k) + e(k);
  - per subsystem the weighted RLS/IQF step on the previous regressor x:
    r = z - x'w, p = 1 - tau below 0 and tau above (1 for RLS), gain
    K = P x p/(1 + p x'P x), w += K (r - shift) and P -= K x'P;
  - the log-likelihood log(ald_pdf(h, r)), as the log of each factor of the
    density (:func:`ald_log_pdf`), and the Bayes update of the
    posteriors, floored at POSTERIOR_FLOOR and renormalized, for banks of two
    or more subsystems;
  - the certainty-equivalence law (y_r(k+1) - eta'alpha)/b1, its divisor raised
    to eps_b with the sign of b1 (+ at 0), clamped to [-u_max, u_max], and
    weighted by the posteriors.

Each phase of the episode is a function of its own, so a test can also step
the reference from the core's state one step at a time.  The reference
shares no code with the core but the config and noise dataclasses, the
trajectory and the noise draw (a test pins the imports), and the episode
takes the noise row as an argument, so it does not depend on the stream.
"""

import math

import numpy as np

from aldcontrol import (
    POSTERIOR_FLOOR,
    AldParams,
    GaussianParams,
    NoiseModel,
    ald_mean,
    mixture_sample,
    parameter_vector,
    parse_controller,
    reference_trajectory,
)
from aldcontrol.noise import _draw


def ald_pdf(p: AldParams, x):
    """Density of the asymmetric Laplace component at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    peak = p.tau * (1.0 - p.tau) / p.sigma
    rate = np.where(x < p.mu, (1.0 - p.tau) / p.sigma, p.tau / p.sigma)
    out = peak * np.exp(-rate * np.abs(x - p.mu))
    return float(out) if out.ndim == 0 else out


def ald_sample(p: AldParams, rng: np.random.Generator, size: int | None = None):
    """Draw from the component via the two-sided exponential decomposition.

    With probability tau the draw falls below mu (an exponential with rate
    (1-tau)/sigma subtracted from mu), otherwise above it (rate tau/sigma).
    One value consumes one uniform and then one standard-exponential draw; an
    array of ``size`` consumes all its uniforms, then all its exponentials.
    Either way the draws are fully determined by the generator state.
    """
    return _draw(p, rng)(size)


def gaussian_pdf(g: GaussianParams, x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * (x - g.mean) ** 2 / g.variance) / math.sqrt(2.0 * math.pi * g.variance)
    return float(out) if out.ndim == 0 else out


def gaussian_sample(g: GaussianParams, rng: np.random.Generator, size: int | None = None):
    return _draw(g, rng)(size)


def mixture_pdf(m: NoiseModel, x):
    """Weighted sum of the component densities."""
    x = np.asarray(x, dtype=float)
    out = sum(
        c.weight * (ald_pdf if isinstance(c.dist, AldParams) else gaussian_pdf)(c.dist, x) for c in m.components
    )
    return float(out) if np.ndim(out) == 0 else out


def pinball_loss(tau: float, u):
    """Check loss u*(tau - 1[u<0]); nonnegative, convex, zero only at u = 0."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    u = np.asarray(u, dtype=float)
    out = np.multiply(u, np.where(u < 0.0, tau - 1.0, tau))
    return float(out) if out.ndim == 0 else out


def batch_weighted_ls(X, z, offsets, weights, w0, P0) -> np.ndarray:
    """Weighted least squares with a Gaussian-style prior (w0, P0).

    Solves  (P0^-1 + X' W X) w = P0^-1 w0 + X' W (z - offsets)  with
    W = diag(weights), every weight positive and finite.  ``X`` has one row
    per sample and len(w0) columns, and ``z``, ``offsets`` and ``weights``
    one entry per row of ``X``; a ValueError names any other shape or
    weight.  Run with the weights and offsets that a sequence of
    :func:`bind_filter` steps realized, the unit weights of :data:`RLS_RULE`
    included, it reproduces the recursive estimate up to rounding, so it is
    the filter's independent test oracle; with no rows it returns ``w0``.

    Raises ``numpy.linalg.LinAlgError`` if the normal matrix is singular,
    which cannot happen for a positive definite ``P0``.
    """
    X, z, offsets, weights, w0, P0 = (np.asarray(v, dtype=float) for v in (X, z, offsets, weights, w0, P0))
    if X.ndim != 2 or X.shape[1:] != w0.shape:
        raise ValueError(f"X has shape {X.shape}, but needs one column per entry of w0 (shape {w0.shape})")
    for name, v in (("z", z), ("offsets", offsets), ("weights", weights)):
        if v.shape != X.shape[:1]:
            raise ValueError(f"{name} has shape {v.shape}, but needs one entry per row of X ({X.shape[0]})")
    if not np.all(np.isfinite(weights) & (weights > 0.0)):
        raise ValueError("weights must be positive and finite")
    P0_inv = np.linalg.inv(P0)
    normal = P0_inv + X.T @ (weights[:, None] * X)
    rhs = P0_inv @ w0 + X.T @ (weights * (z - offsets))
    return np.linalg.solve(normal, rhs)


def ald_log_pdf(h, r):
    """log(ald_pdf(h, r)) taken term by term: the density underflows to 0 once rate*|r - mu| passes about 745."""
    rate = (1.0 - h.tau) / h.sigma if r < h.mu else h.tau / h.sigma
    return math.log(h.tau * (1.0 - h.tau) / h.sigma) - rate * abs(r - h.mu)


def reference_bank(cfg):
    """The subsystems of ``cfg.controller`` before step 1: (learns, hyps, W, P, post), one list entry per subsystem.

    ``hyps`` holds each subsystem's hypothesis, None for RLS; an oracle bank
    does not learn.
    """
    kind, index = parse_controller(cfg.controller)
    if kind == "oracle":
        return False, [None], [parameter_vector(cfg.plant)], [cfg.initial_P()], np.ones(1)
    if kind == "rls":
        hyps = [None]
    else:
        hyps = list(cfg.hypotheses if kind == "ensemble" else cfg.hypotheses[index : index + 1])
    S = len(hyps)
    return True, hyps, [cfg.initial_w() for _ in hyps], [cfg.initial_P() for _ in hyps], np.full(S, 1.0 / S)


def newest_first(values, k, count):
    """values[k-1], ..., values[k-count], each 0.0 before values[0]."""
    return np.array([values[j] if j >= 0 else 0.0 for j in range(k - 1, k - 1 - count, -1)])


def plant_output(plant, us, ys, k):
    """y(k) from the inputs ``us`` u(0).. and outputs ``ys`` y(0)..; the plant starts at rest."""
    return plant.b @ newest_first(us, k, plant.m) + plant.a @ newest_first(ys, k, plant.n)


def regressor(plant, us, fs, k):
    """x(k) = [u(k-1)..u(k-m), f(k-1)..f(k-n)], the regressor of z(k); ``fs`` is the fed-back f(0).."""
    return np.concatenate([newest_first(us, k, plant.m), newest_first(fs, k, plant.n)])


def control_regressor(plant, us, fs, k):
    """eta(k) = [u(k-1)..u(k-m+1), f(k)..f(k-n+1)], which the law that forms u(k) reads: x(k+1) without u(k)."""
    return np.concatenate([newest_first(us, k, plant.m - 1), newest_first(fs, k + 1, plant.n)])


def sample_weight(h, r):
    """(p, shift) of a filter step at residual ``r``: (1, 0) for RLS (``h`` None), (1 - tau or tau, ald_mean) else."""
    if h is None:
        return 1.0, 0.0
    return (1.0 - h.tau if r < 0.0 else h.tau), ald_mean(h)


def filter_step(w, P, x, r, p, shift):
    """(w, P) after the sample of regressor ``x`` and residual ``r`` = z - x'w, weight ``p`` and shift ``shift``."""
    gain = P @ x * p / (1.0 + p * (x @ P @ x))
    return w + gain * (r - shift), P - np.outer(gain, x @ P)


def posterior_step(post, hyps, residuals):
    """The posteriors after the Bayes update by the residuals' ALD likelihoods, floored and renormalized."""
    log_lik = np.array([ald_log_pdf(h, r) for h, r in zip(hyps, residuals)])
    post = post * np.exp(log_lik - log_lik.max())
    post = np.maximum(post / post.sum(), POSTERIOR_FLOOR)
    return post / post.sum()


def reference_control(cfg, W, post, eta, y_r_next):
    """The posterior-weighted certainty-equivalence laws of the estimates ``W``; one subsystem's law alone."""
    inputs = []
    for w in W:
        b1 = w[0]
        divisor = b1 if abs(b1) >= cfg.eps_b else math.copysign(cfg.eps_b, b1 + 0.0)
        inputs.append(min(max((y_r_next - eta @ w[1:]) / divisor, -cfg.u_max), cfg.u_max))
    return inputs[0] if len(W) == 1 else post @ np.array(inputs)


def reference_episode(cfg, noise):
    """y, u, posteriors and w_hat after each step k = 1..steps, keyed as the trace's fields, and the fail step.

    ``noise`` is the row e(0)..e(steps).  Step k fails when its output,
    measurement, input or an estimate is not finite; the fail step is None
    when no step fails.
    """
    plant, measured = cfg.plant, cfg.feedback == "measurement"
    learns, hyps, W, P, post = reference_bank(cfg)
    y_r = reference_trajectory(cfg.trajectory, cfg.steps + 2)
    # y(k), the fed-back f(k) and u(k) from k = 0 on; the plant starts at rest
    z = 0.0 + noise[0]
    ys, fs = [0.0], [z if measured else 0.0]
    us = [reference_control(cfg, W, post, control_regressor(plant, [], fs, 0), y_r[1])]
    posts, Ws, fail = [], [], None
    for k in range(1, cfg.steps + 1):
        x = regressor(plant, us, fs, k)
        y = plant_output(plant, us, ys, k)
        z = y + noise[k]
        if learns:
            residuals = [z - x @ w for w in W]
            steps = [filter_step(w, Ps, x, r, *sample_weight(h, r)) for w, Ps, h, r in zip(W, P, hyps, residuals)]
            W, P = [w for w, _ in steps], [Ps for _, Ps in steps]
            if len(W) > 1:
                post = posterior_step(post, hyps, residuals)
        ys.append(y)
        fs.append(z if measured else y)
        us.append(reference_control(cfg, W, post, control_regressor(plant, us, fs, k), y_r[k + 1]))
        posts.append(post)
        Ws.append(np.array(W))
        if fail is None and not (np.isfinite([y, z, us[-1]]).all() and np.isfinite(Ws[-1]).all()):
            fail = k
    return {"y": np.array(ys[1:]), "u": np.array(us[1:]), "posteriors": np.array(posts), "w_hat": np.array(Ws)}, fail


def noise_row(cfg):
    rng = np.random.default_rng(cfg.seed)
    return np.array([mixture_sample(cfg.noise, rng) for _ in range(cfg.steps + 1)])
