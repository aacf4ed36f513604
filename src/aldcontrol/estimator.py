"""Online parameter estimation: iterative quantile filter, RLS, batch oracle.

The quantile filter is a recursive least-squares style update in which each
sample is weighted by tau or 1-tau according to the sign of its prediction
residual, and the innovation is corrected by the mean of the hypothesised
asymmetric Laplace noise.  With tau = 1/2 and a zero-mean hypothesis it
reduces to classic RLS at half the initial covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import AldParams, ald_mean

__all__ = [
    "EstimatorState",
    "IqfConfig",
    "residual_weight",
    "iqf_step",
    "rls_step",
    "batch_weighted_ls",
]


@dataclass(frozen=True)
class EstimatorState:
    """Parameter estimate ``w`` (d,) and covariance ``P`` (d, d).

    Treated as an immutable value; step functions return fresh states.  P is
    re-symmetrized after every update to suppress floating-point drift.
    """

    w: np.ndarray
    P: np.ndarray


@dataclass(frozen=True)
class IqfConfig:
    """Noise hypothesis plus initial estimate/covariance for one filter."""

    hypothesis: AldParams
    w0: np.ndarray
    P0: np.ndarray

    def __post_init__(self) -> None:
        P0 = np.asarray(self.P0, dtype=float)
        if P0.ndim != 2 or P0.shape[0] != P0.shape[1]:
            raise ValueError("P0 must be a square matrix")
        if np.max(np.abs(P0 - P0.T)) > 1e-10:
            raise ValueError("P0 must be symmetric")
        try:
            np.linalg.cholesky(P0)
        except np.linalg.LinAlgError:
            raise ValueError("P0 must be positive definite") from None


def initial_state(cfg: IqfConfig) -> EstimatorState:
    return EstimatorState(np.array(cfg.w0, dtype=float), np.array(cfg.P0, dtype=float))


def residual_weight(tau: float, residual: float) -> float:
    """Sample weight: 1-tau for a negative residual, tau otherwise (including zero)."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return 1.0 - tau if residual < 0.0 else tau


def _checked(x, z_next: float, state: EstimatorState):
    x = np.asarray(x, dtype=float)
    if x.shape != state.w.shape:
        raise ValueError(f"regressor shape {x.shape} does not match estimate shape {state.w.shape}")
    if not np.all(np.isfinite(x)) or not np.isfinite(z_next):
        raise ValueError("non-finite regressor or measurement")
    return x


def _gain_update(w: np.ndarray, P: np.ndarray, x: np.ndarray, p, innovation) -> None:
    """Weighted least-squares gain step, written into ``w`` (..., d) and ``P`` (..., d, d) in place.

    ``x`` (..., d), the weight ``p`` and the ``innovation`` broadcast over the
    same leading dimensions; with none, this is one filter's scalar step.
    """
    p = np.asarray(p)[..., None]
    Px = np.matvec(P, x)
    # denominator >= 1 because P is positive semidefinite and p > 0
    gain = p * Px / (1.0 + p * np.vecdot(x, Px)[..., None])
    w += gain * np.asarray(innovation)[..., None]
    P -= gain[..., :, None] * np.vecmat(x, P)[..., None, :]
    P[...] = 0.5 * (P + P.mT)


def iqf_step(state: EstimatorState, cfg: IqfConfig, x, z_next: float) -> EstimatorState:
    """One quantile-filter update with the pair (x, z_next).

    The residual sign picks the weight; the innovation is additionally shifted
    by the hypothesis noise mean so the estimate is centred on the systematic
    part of the measurement.
    """
    x = _checked(x, z_next, state)
    residual = z_next - x @ state.w
    p = residual_weight(cfg.hypothesis.tau, residual)
    w, P = state.w.copy(), state.P.copy()
    _gain_update(w, P, x, p, residual - ald_mean(cfg.hypothesis))
    return EstimatorState(w, P)


def rls_step(state: EstimatorState, x, z_next: float) -> EstimatorState:
    """Classic recursive least squares: unit weight, no mean correction."""
    x = _checked(x, z_next, state)
    w, P = state.w.copy(), state.P.copy()
    _gain_update(w, P, x, 1.0, z_next - x @ state.w)
    return EstimatorState(w, P)


def batch_weighted_ls(X, z, offsets, weights, w0, P0) -> np.ndarray:
    """Weighted least squares with a Gaussian-style prior (w0, P0).

    Solves  (P0^-1 + X' W X) w = P0^-1 w0 + X' W (z - offsets)  with
    W = diag(weights).  Run with the weights and offsets realized by a
    sequence of :func:`iqf_step` calls, it reproduces the recursive estimate
    exactly; with no rows it returns ``w0``.

    Raises ``numpy.linalg.LinAlgError`` if the normal matrix is singular,
    which cannot happen for a positive definite ``P0``.
    """
    X = np.asarray(X, dtype=float).reshape(-1, np.asarray(w0).shape[0])
    z = np.asarray(z, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    P0 = np.asarray(P0, dtype=float)
    if np.any(weights <= 0.0) or np.any(weights >= 1.0):
        raise ValueError("weights must lie in (0, 1)")
    P0_inv = np.linalg.inv(P0)
    normal = P0_inv + X.T @ (weights[:, None] * X)
    rhs = P0_inv @ w0 + X.T @ (weights * (z - offsets))
    return np.linalg.solve(normal, rhs)
