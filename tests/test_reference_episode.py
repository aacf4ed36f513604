"""An independent reference episode: the paper's equations written out once, as one plain per-step loop.

The stepping core binds every phase once and steps a batch of runs in place;
this loop steps one run with its own small arrays and the textbook form of
each equation:

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

It shares no code with the core but the trajectory and the noise draw, and it
takes the noise row as an argument, so it does not depend on the stream.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from aldcontrol import (
    POSTERIOR_FLOOR,
    PRESETS,
    ald_mean,
    ald_pdf,
    mixture_sample,
    parameter_vector,
    parse_controller,
    preset_config,
    reference_trajectory,
    run_episode,
)

# fixed before the first comparison: |core - reference| <= TOL * max(1, |reference|)
TOL = 1e-9

# the golden traces' configs: every preset, feedback and controller token
GOLDEN = [
    (preset, feedback, token)
    for preset in PRESETS
    for feedback in ("output", "measurement")
    for token in ["ensemble", "rls", "oracle"]
    + [f"single-ald:{i}" for i in range(len(preset_config(preset).hypotheses))]
]


def ald_log_pdf(h, r):
    """log(ald_pdf(h, r)) taken term by term: the density underflows to 0 once rate*|r - mu| passes about 745."""
    rate = (1.0 - h.tau) / h.sigma if r < h.mu else h.tau / h.sigma
    return math.log(h.tau * (1.0 - h.tau) / h.sigma) - rate * abs(r - h.mu)


def reference_episode(cfg, noise):
    """y, u, posteriors and w_hat after each step k = 1..steps, keyed as the trace's fields, and the fail step.

    ``noise`` is the row e(0)..e(steps).  Step k fails when its output,
    measurement, input or an estimate is not finite; the fail step is None
    when no step fails.
    """
    a, b = cfg.plant.a, cfg.plant.b
    m, n = cfg.plant.m, cfg.plant.n
    kind, index = parse_controller(cfg.controller)
    hyps = cfg.hypotheses if kind == "ensemble" else cfg.hypotheses[index : index + 1]
    if kind == "oracle":
        W = [parameter_vector(cfg.plant)]
    else:
        W = [cfg.initial_w() for _ in range(1 if kind == "rls" else len(hyps))]
    P = [cfg.initial_P() for _ in W]
    S = len(W)
    post = np.full(S, 1.0 / S)
    y_r = reference_trajectory(cfg.trajectory, cfg.steps + 2)

    def law(eta, y_r_next):
        inputs = []
        for w in W:
            b1 = w[0]
            divisor = b1 if abs(b1) >= cfg.eps_b else math.copysign(cfg.eps_b, b1 + 0.0)
            inputs.append(min(max((y_r_next - eta @ w[1:]) / divisor, -cfg.u_max), cfg.u_max))
        return inputs[0] if S == 1 else post @ np.array(inputs)

    # newest first: u(k-1)..u(k-m), y(k-1)..y(k-n) and the fed-back f(k-1)..f(k-n)
    u_hist, y_hist, f_hist = np.zeros(m), np.zeros(n), np.zeros(n)
    z = 0.0 + noise[0]
    if n:
        f_hist[0] = z if cfg.feedback == "measurement" else 0.0
    u_hist[0] = law(np.concatenate([u_hist[1:], f_hist]), y_r[1])
    ys, us, posts, Ws, fail = [], [], [], [], None
    for k in range(1, cfg.steps + 1):
        x = np.concatenate([u_hist, f_hist])
        y = b @ u_hist + a @ y_hist
        z = y + noise[k]
        if kind != "oracle":
            residuals = []
            for s, (w, Ps) in enumerate(zip(W, P)):
                r = z - x @ w
                if kind == "rls":
                    p, shift = 1.0, 0.0
                else:
                    p, shift = (1.0 - hyps[s].tau if r < 0.0 else hyps[s].tau), ald_mean(hyps[s])
                gain = Ps @ x * p / (1.0 + p * (x @ Ps @ x))
                W[s] = w + gain * (r - shift)
                P[s] = Ps - np.outer(gain, x @ Ps)
                residuals.append(r)
            if S > 1:
                log_lik = np.array([ald_log_pdf(h, r) for h, r in zip(hyps, residuals)])
                post = post * np.exp(log_lik - log_lik.max())
                post = np.maximum(post / post.sum(), POSTERIOR_FLOOR)
                post = post / post.sum()
        y_hist = np.concatenate([[y], y_hist[:-1]])[:n]
        f_hist = np.concatenate([[z if cfg.feedback == "measurement" else y], f_hist[:-1]])[:n]
        u = law(np.concatenate([u_hist[: m - 1], f_hist]), y_r[k + 1])
        u_hist = np.concatenate([[u], u_hist[:-1]])
        ys.append(y)
        us.append(u)
        posts.append(post)
        Ws.append(np.array(W))
        if fail is None and not (np.isfinite([y, z, u]).all() and np.isfinite(Ws[-1]).all()):
            fail = k
    return {"y": np.array(ys), "u": np.array(us), "posteriors": np.array(posts), "w_hat": np.array(Ws)}, fail


def noise_row(cfg):
    rng = np.random.default_rng(cfg.seed)
    return np.array([mixture_sample(cfg.noise, rng) for _ in range(cfg.steps + 1)])


def assert_close(core, reference, name):
    gap = np.abs(core - reference)
    bound = TOL * np.maximum(1.0, np.abs(reference))
    assert np.all(gap <= bound), f"{name}: worst gap {np.max(gap - bound):.3e} over the tolerance"


@pytest.mark.parametrize("preset,feedback,token", GOLDEN)
def test_core_matches_the_reference_episode(preset, feedback, token):
    cfg = replace(preset_config(preset), steps=300, seed=0, feedback=feedback, controller=token)
    row = noise_row(cfg)
    trace = run_episode(cfg)
    assert np.array_equal(row[1:], trace.noise)
    with np.errstate(all="ignore"):
        reference, fail = reference_episode(cfg, row)
    assert (trace.failed, trace.fail_step) == (fail is not None, fail)
    ok = slice(None if fail is None else fail - 1)  # the trace's rows from the fail step on are NaN
    for name, values in reference.items():
        core = getattr(trace, name)
        assert core.shape == values.shape, name
        assert_close(core[ok], values[ok], name)


@pytest.mark.parametrize("r", [-3.0, -0.02, 0.0, 0.01, 0.4, 7.0])
def test_the_reference_log_density_is_the_log_of_ald_pdf(r):
    for h in preset_config("noise1").hypotheses:
        assert ald_log_pdf(h, r) == pytest.approx(math.log(ald_pdf(h, r)), rel=1e-12, abs=1e-12)


def test_divergent_rls_episode_fails_at_the_same_step_in_the_reference():
    cfg = replace(preset_config("base"), steps=1400, controller="rls", u_max=1e-12)
    with np.errstate(all="ignore"):
        _, fail = reference_episode(cfg, noise_row(cfg))
    assert fail == run_episode(cfg).fail_step == 1160
