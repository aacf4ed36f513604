"""Control laws: certainty equivalence, Bayesian subsystem weighting, ensemble.

Each noise hypothesis defines a subsystem with its own quantile-filter
estimate and posterior probability.  The ensemble control signal is the
posterior-weighted sum of the per-subsystem certainty-equivalence laws.
Every function works over leading dimensions, with the subsystem axis S
last, so one call serves a whole batch of runs.  The posterior update and
the two laws are bound to their arrays once (:func:`bind_posterior`,
:func:`bind_ce_law`, :func:`bind_ensemble_law`) and then stepped, and so is
the scoring of residuals under the hypotheses (:func:`bind_log_likelihood`),
which reads the residuals alone and builds its per-row constants once; a
law bound to estimates that never change (a frozen bank) forms its
safeguarded divisor once.

Bound to one row of float64 arrays (an episode of its own), each binder
returns a one-row step with the array step's bits.  It keeps numpy for the
calls that set them: ``vecdot``, whose BLAS kernels fuse multiplies and
adds, ``exp``, which differs from ``math.exp`` in about 5% of values, and
the NaN-propagating peak ``np.maximum.reduce``.  The slopes, divides,
floors, sums, safeguarded divisors and clamps it does on Python floats,
which round every operation as numpy does, without numpy's overhead per
call.  The semantics it relies on:

- an overflow gives inf and an invalid operation NaN, as in numpy;
- a comparison with NaN is false, so the floor, the divisor and the
  clamp, written as conditionals that keep the value unless a comparison
  holds, pass NaN through as ``np.maximum`` and ``np.minimum`` do;
- ``x/0.0`` raises, but no divisor is zero: |b1| is raised to eps_b > 0,
  and a posterior total is at least the floor (a caller's posterior of
  zeros falls back to the array step);
- ``np.add.reduce`` sums a row of fewer than 8 terms left to right from
  +0.0, and a longer one pairwise.  The one-row steps sum left to right
  (``_fold``), so the posterior and ensemble steps take the one-row path
  only for S <= ``_FOLD_TERMS`` = 7.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import AldParams

__all__ = [
    "DEFAULT_EPS_B",
    "DEFAULT_U_MAX",
    "POSTERIOR_FLOOR",
    "bind_ce_law",
    "bind_log_likelihood",
    "bind_posterior",
    "bind_ensemble_law",
]

# Divisor safeguard and saturation for the certainty-equivalence law; early
# b_1 estimates can cross zero.
DEFAULT_EPS_B = 1e-6
DEFAULT_U_MAX = 1e3
POSTERIOR_FLOOR = 1e-12

# The most terms np.add.reduce sums left to right, as _fold does: from 8 terms
# on it sums pairwise, which differs from a left fold in a quarter to two thirds of rows.
_FOLD_TERMS = 7


def _fold(values) -> float:
    """The sum of ``values`` left to right from +0.0: ``np.add.reduce``'s bits for up to ``_FOLD_TERMS`` terms."""
    total = 0.0
    for value in values:
        total += value
    return total


def _one_row(array, ndim: int) -> bool:
    """True when ``array`` is float64 with ``ndim`` axes and one row, (1, ...): an episode of its own."""
    return array.dtype == float and array.ndim == ndim and array.shape[0] == 1


def _clamps_on_floats(eps_b, u_max) -> bool:
    """True when a law's ``eps_b`` and ``u_max`` are single numbers above 0 (so not NaN), as every config's are."""
    return np.ndim(eps_b) == np.ndim(u_max) == 0 and eps_b > 0 and u_max > 0


def _reference(y_r_next) -> float | None:
    """``y_r_next`` as a Python float when it is a float64 array of shape (1,), as the episode loop passes it.

    Any other reference gives None: a one-row law hands it to the array law, which broadcasts it.
    """
    if type(y_r_next) is np.ndarray and y_r_next.shape == (1,) and y_r_next.dtype == float:
        return y_r_next.item()
    return None


def _ce_input(target: float, b1: float, eps_b: float, u_max: float) -> float:
    """The certainty-equivalence input ``target``/b1 on Python floats, with :func:`bind_ce_law`'s divisor and clamp.

    The divisor copysign(max(|b1|, eps_b), b1 + 0.0) is, case by case, b1
    itself unless |b1| < eps_b, and then eps_b with the sign of b1, + for
    -0.0.  A comparison with NaN is false, so a NaN b1 or input passes
    through the divisor and the clamp, as it does through np.maximum and
    np.minimum.
    """
    u = target / (b1 if not -eps_b < b1 < eps_b else -eps_b if b1 < 0.0 else eps_b)
    return -u_max if u < -u_max else u_max if u > u_max else u


def _output(u: float, out):
    """The one-row input ``u`` as the array laws return it: a new (1,) array, or written into ``out`` and returned."""
    if out is None:
        return np.array([u])
    out[0] = u
    return out


def bind_ce_law(w, eta, eps_b: float = DEFAULT_EPS_B, u_max: float = DEFAULT_U_MAX, frozen: bool = False):
    """The certainty-equivalence law bound to the estimates ``w`` and regressors ``eta``: a function of ``y_r_next``.

    Each call returns the input (y_r_next - eta'alpha)/b1 for the estimates
    w = [b1, alpha...]; ``w`` (..., d), ``eta`` (..., d-1), the regressor
    without u(k), and ``y_r_next`` broadcast.  Divisors smaller than
    ``eps_b`` in magnitude are replaced by ``eps_b*sign(b1)`` with
    sign(0) = +1, and the result is clamped to [-u_max, u_max].  Non-finite
    inputs give a non-finite or clamped result.  ``eta`` may change in place
    between calls, and so may ``w`` unless it is ``frozen``; then the
    safeguarded divisor is formed here once instead of at every call.  The
    views into them and the numpy callables are taken here once.  A call may
    pass an array ``out`` of the result's shape, which receives the input
    and is returned.  A float64 ``w`` of shape (1, d) gets the one-row step.
    """
    absolute, add, subtract, divide, copysign = np.absolute, np.add, np.subtract, np.divide, np.copysign
    maximum, minimum, vecdot = np.maximum, np.minimum, np.vecdot
    b1_hat, alpha = w[..., 0], w[..., 1:]
    # 0-d arrays, which numpy takes faster than Python floats
    zero, eps_b, u_min, u_max = np.array(0.0), np.array(eps_b, dtype=float), np.array(-u_max), np.array(u_max)

    def divisor():
        # |b1| raised to eps_b with the sign of b1; adding 0.0 turns -0.0 into +0.0
        return copysign(maximum(absolute(b1_hat), eps_b), add(b1_hat, zero))

    b1 = divisor() if frozen else None

    def law(y_r_next, out=None):
        u = divide(subtract(y_r_next, vecdot(eta, alpha)), divisor() if b1 is None else b1)
        return minimum(maximum(u, u_min), u_max, out=out)

    if not (_one_row(w, 2) and np.shape(eta)[:-1] in ((), (1,)) and _clamps_on_floats(eps_b, u_max)):
        return law
    limits = float(eps_b), float(u_max)

    # frozen or not, this law reads b1 at every call: on Python floats its divisor costs next to nothing
    def law_one_row(y_r_next, out=None):
        y_r = _reference(y_r_next)
        if y_r is None:
            return law(y_r_next, out)
        (dot,) = vecdot(eta, alpha).tolist()
        return _output(_ce_input(y_r - dot, b1_hat.item(), *limits), out)

    return law_one_row


def _log_density(u: float, log_peak: float, tau: float, sigma: float) -> float:
    """The ALD log-density of ``u`` = residual - mu on Python floats, in :func:`bind_log_likelihood`'s operations."""
    return log_peak - u * (tau - (u < 0.0)) / sigma


def bind_log_likelihood(hyps: tuple[AldParams, ...], rows: int):
    """The scoring step of the hypotheses ``hyps`` over ``rows`` rows: a function of the residuals alone.

    Each call returns the ALD log-densities log(tau*(1-tau)/sigma) -
    u*(tau - 1[u<0])/sigma, u = residual - mu, of prediction residuals
    z - x'w_hat (rows, S) under the S hypotheses.  The (rows, S) arrays of
    log(tau*(1-tau)/sigma), tau, sigma and mu and the numpy callables are
    taken here once, so the step works on operands of one shape.  The slope
    is ``tau - (u < 0)``: the bool casts to 0.0 or 1.0, so it is tau or
    exactly tau - 1.  Under mu = +0.0, every shipped hypothesis, u is the
    residual bit for bit, so its sign is the one the filter step weighted by.
    With ``rows`` = 1 the step scores on Python floats.
    """
    subtract, multiply, divide, less = np.subtract, np.multiply, np.divide, np.less
    constants = [(h.mu, math.log(h.tau * (1.0 - h.tau) / h.sigma), h.tau, h.sigma) for h in hyps]

    if rows == 1:

        def log_likelihood_one_row(residual):
            (r,) = residual.tolist()
            densities = [_log_density(x - mu, peak, tau, sigma) for x, (mu, peak, tau, sigma) in zip(r, constants)]
            return np.array([densities])

        return log_likelihood_one_row

    def per_row(values):
        return np.tile(np.array(values, dtype=float), (rows, 1))

    mu, log_peak, tau, sigma = (per_row(column) for column in zip(*constants))
    zero = np.array(0.0)  # 0-d, which numpy takes faster than a Python float

    def log_likelihood(residual):
        u = subtract(residual, mu)
        return subtract(log_peak, divide(multiply(u, subtract(tau, less(u, zero))), sigma))

    return log_likelihood


def bind_posterior(post: np.ndarray):
    """The Bayes update bound to the subsystem posteriors ``post`` (..., S): a function of the log-likelihoods.

    Each call updates ``post`` in place by log-likelihoods along the last
    axis, computed in the log domain with max-subtraction; the result is
    renormalized and floored at :data:`POSTERIOR_FLOOR` so a temporarily
    discredited subsystem can recover.  A non-finite log-likelihood gives
    non-finite posteriors and so a non-finite weighted control, which the
    episode loop (it scores banks of two or more subsystems) diagnoses as
    divergence.  A float64 ``post`` of shape (1, S), S <= 7, gets the
    one-row step.
    """
    exp, subtract, multiply, divide, maximum = np.exp, np.subtract, np.multiply, np.divide, np.maximum
    peak, total = np.maximum.reduce, np.add.reduce
    floor = np.array(POSTERIOR_FLOOR)  # 0-d, which numpy takes faster than a Python float

    def normalize() -> None:
        # renormalization can push a floored entry a hair below the floor again, so twice
        for _ in range(2):
            divide(post, total(post, -1)[..., None], post)
            maximum(post, floor, out=post)

    def update(log_lik) -> None:
        multiply(post, exp(subtract(log_lik, peak(log_lik, -1)[..., None])), post)
        normalize()

    if not (_one_row(post, 2) and post.shape[1] <= _FOLD_TERMS):
        return update

    def update_one_row(log_lik) -> None:
        # the peak over the one row is a scalar, which numpy subtracts faster than a (1, 1) array
        multiply(post, exp(subtract(log_lik, peak(log_lik, None))), post)
        (p,) = post.tolist()
        try:
            for _ in range(2):  # as normalize() does
                p_sum = _fold(p)
                p = [v / p_sum for v in p]
                p = [POSTERIOR_FLOOR if v < POSTERIOR_FLOOR else v for v in p]
        except ZeroDivisionError:  # a total of 0.0, where numpy gives NaN
            return normalize()
        post[0] = p

    return update_one_row


def bind_ensemble_law(post, W, eta, eps_b: float = DEFAULT_EPS_B, u_max: float = DEFAULT_U_MAX):
    """The ensemble law bound to its arrays: a function of ``y_r_next``.

    Each call returns the posterior-weighted sum of the certainty-equivalence
    laws (:func:`bind_ce_law`) of the estimates ``W`` (..., S, d) under the
    posteriors ``post`` (..., S); ``eta`` (..., d-1) is shared by the S
    subsystems.  All three may change in place between calls.  A call may
    pass an array ``out`` of the result's shape, which receives the input
    and is returned.  Float64 ``post`` (1, S) and ``W`` (1, S, d), S <= 7,
    get the one-row step.

    Each law is clamped to [-u_max, u_max], but their weighted sum is not
    clamped again.  Posteriors from :func:`bind_posterior` sum to one only
    within rounding, so with every law saturated the input can pass u_max
    by an ulp or two (1000.0000000000001 for u_max = 1000).  Its magnitude
    stays below u_max*(1 + 2*S*eps), eps = 2**-52: the posteriors sum to
    within about S*eps/2 of one, and the S products and S - 1 additions add
    about S*eps/2 more.  Clamping the sum would add an operation to every call.
    """
    multiply, total, vecdot = np.multiply, np.add.reduce, np.vecdot
    eta_s = eta[..., None, :]
    laws = bind_ce_law(W, eta_s, eps_b, u_max)

    def law(y_r_next, out=None):
        return total(multiply(post, laws(y_r_next)), -1, out=out)

    one_row = _one_row(post, 2) and _one_row(W, 3) and post.shape[1] == W.shape[1] <= _FOLD_TERMS
    if not (one_row and eta.shape[:-1] in ((), (1,)) and _clamps_on_floats(eps_b, u_max)):
        return law
    b1_hat, alpha, limits = W[..., 0], W[..., 1:], (float(eps_b), float(u_max))

    def law_one_row(y_r_next, out=None):
        y_r = _reference(y_r_next)
        if y_r is None:
            return law(y_r_next, out)
        (dots,), (b1s,), (p,) = vecdot(eta_s, alpha).tolist(), b1_hat.tolist(), post.tolist()
        return _output(_fold(w * _ce_input(y_r - dot, b1, *limits) for w, dot, b1 in zip(p, dots, b1s)), out)

    return law_one_row
