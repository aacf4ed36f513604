"""Control laws: certainty equivalence, Bayesian subsystem weighting, ensemble.

Each noise hypothesis defines a subsystem with its own quantile-filter
estimate and posterior probability.  The ensemble control signal is the
posterior-weighted sum of the per-subsystem certainty-equivalence laws.
Every function works over leading dimensions, with the subsystem axis S
last, so one call serves a whole batch of runs.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import AldParams, _check_loss

__all__ = [
    "DEFAULT_EPS_B",
    "DEFAULT_U_MAX",
    "POSTERIOR_FLOOR",
    "ce_control",
    "likelihood_table",
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
):
    """Certainty-equivalence input (y_r_next - eta'alpha)/b1 for estimates w = [b1, alpha...].

    ``w`` (..., d) and ``eta`` (..., d-1), the regressor without u(k),
    broadcast.  Divisors smaller than ``eps_b`` in magnitude are replaced by
    ``eps_b*sign(b1)`` with sign(0) = +1, and the result is clamped to
    [-u_max, u_max].  Non-finite inputs give a non-finite or clamped result.
    """
    # |b1| raised to eps_b with the sign of b1; adding 0.0 turns -0.0 into +0.0
    b1 = np.copysign(np.maximum(np.abs(w[..., 0]), eps_b), w[..., 0] + 0.0)
    u = (y_r_next - np.vecdot(eta, w[..., 1:])) / b1
    return np.minimum(np.maximum(u, -u_max), u_max)


def likelihood_table(hyps: tuple[AldParams, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (log(tau*(1-tau)/sigma), tau, sigma) of the hypotheses, built once per bank."""
    return (
        np.array([math.log(h.tau * (1.0 - h.tau) / h.sigma) for h in hyps]),
        np.array([h.tau for h in hyps]),
        np.array([h.sigma for h in hyps]),
    )


def subsystem_log_likelihood(table, residual):
    """ALD log-densities of prediction residuals z - x'w_hat (..., S) under the S hypotheses of ``table``.

    Returns log(tau*(1-tau)/sigma) - loss/sigma with the check loss of each
    residual.
    """
    log_peak, tau, sigma = table
    return log_peak - _check_loss(tau, residual) / sigma


def posterior_update(post: np.ndarray, log_lik) -> np.ndarray:
    """Bayes update of the subsystem posteriors ``post`` (..., S) by log-likelihoods along the last axis.

    Computed in the log domain with max-subtraction; the result is
    renormalized and floored at POSTERIOR_FLOOR so a temporarily discredited
    subsystem can recover.  A non-finite log-likelihood gives non-finite
    posteriors; the caller diagnoses divergence.
    """
    log_lik = np.asarray(log_lik, dtype=float)
    post = post * np.exp(log_lik - log_lik.max(-1, keepdims=True))
    post /= post.sum(-1, keepdims=True)
    post = np.maximum(post, POSTERIOR_FLOOR)
    post /= post.sum(-1, keepdims=True)
    # renormalization can push a floored entry a hair below the floor again
    return np.maximum(post, POSTERIOR_FLOOR)


def ensemble_control(
    post,
    W,
    eta,
    y_r_next: float,
    eps_b: float = DEFAULT_EPS_B,
    u_max: float = DEFAULT_U_MAX,
):
    """Posterior-weighted sum of the certainty-equivalence laws of the estimates W (..., S, d).

    ``post`` is (..., S) and ``eta`` (..., d-1), shared by the S subsystems.
    """
    return (post * ce_control(W, eta[..., None, :], y_r_next, eps_b, u_max)).sum(-1)
