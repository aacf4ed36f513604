"""Control laws: certainty equivalence, Bayesian subsystem weighting, ensemble.

Each noise hypothesis defines a subsystem with its own quantile-filter
estimate and posterior probability.  The ensemble control signal is the
posterior-weighted sum of the per-subsystem certainty-equivalence laws.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import AldParams, pinball_loss

__all__ = [
    "DEFAULT_EPS_B",
    "DEFAULT_U_MAX",
    "POSTERIOR_FLOOR",
    "ce_control",
    "subsystem_log_likelihood",
    "posterior_update",
    "ensemble_control",
]

# Divisor safeguard and saturation for the certainty-equivalence law; early
# b_1 estimates can cross zero.
DEFAULT_EPS_B = 1e-6
DEFAULT_U_MAX = 1e3
POSTERIOR_FLOOR = 1e-12


def ce_control(
    w,
    eta,
    y_r_next: float,
    eps_b: float = DEFAULT_EPS_B,
    u_max: float = DEFAULT_U_MAX,
) -> float:
    """Certainty-equivalence input (y_r_next - eta'alpha)/b1 for an estimate w = [b1, alpha...].

    ``eta`` is the regressor without u(k).  Divisors smaller than ``eps_b`` in
    magnitude are replaced by ``eps_b*sign(b1)`` with sign(0) = +1, and the
    result is clamped to [-u_max, u_max].
    """
    w = np.asarray(w, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if not (math.isfinite(y_r_next) and np.isfinite(w).all() and np.isfinite(eta).all()):
        raise ValueError("non-finite reference, estimate or control regressor")
    b1 = float(w[0])
    if abs(b1) < eps_b:
        b1 = eps_b if b1 >= 0.0 else -eps_b
    u = (y_r_next - float(eta @ w[1:])) / b1
    return float(min(max(u, -u_max), u_max))


def subsystem_log_likelihood(hyp: AldParams, residual: float) -> float:
    """ALD log-density of a one-step prediction residual z - x'w_hat under one hypothesis.

    Returns log(tau*(1-tau)/sigma) - loss/sigma with the check loss of the
    residual.
    """
    return math.log(hyp.tau * (1.0 - hyp.tau) / hyp.sigma) - pinball_loss(hyp.tau, residual) / hyp.sigma


def posterior_update(post: np.ndarray, log_lik) -> np.ndarray:
    """Bayes update of the subsystem posteriors ``post`` (S,) by per-subsystem log-likelihoods.

    Computed in the log domain with max-subtraction; the result is
    renormalized and floored at POSTERIOR_FLOOR so a temporarily discredited
    subsystem can recover.  A non-finite log-likelihood gives non-finite
    posteriors; the caller diagnoses divergence.
    """
    log_lik = np.asarray(log_lik, dtype=float)
    post = post * np.exp(log_lik - np.max(log_lik))
    post /= post.sum()
    post = np.maximum(post, POSTERIOR_FLOOR)
    post /= post.sum()
    # renormalization can push a floored entry a hair below the floor again
    return np.maximum(post, POSTERIOR_FLOOR)


def ensemble_control(
    post,
    W,
    eta,
    y_r_next: float,
    eps_b: float = DEFAULT_EPS_B,
    u_max: float = DEFAULT_U_MAX,
) -> float:
    """Posterior-weighted sum of the certainty-equivalence laws of the estimates W (S, d)."""
    u = 0.0
    for p, w in zip(post, W):
        u += p * ce_control(w, eta, y_r_next, eps_b, u_max)
    return float(u)
