"""Control laws: certainty equivalence, Bayesian subsystem weighting, ensemble.

Each noise hypothesis defines a subsystem with its own quantile-filter
estimate and posterior probability.  The ensemble control signal is the
posterior-weighted sum of the per-subsystem certainty-equivalence laws.
A one-subsystem controller (rls, oracle, single-ald) has that law with one
term at posterior 1.0: the sum of one term is that term, so it is the
subsystem's certainty-equivalence input bit for bit.  Every function works
over a leading axis of rows (the law over any leading dimensions), with the
subsystem axis S last, so one call serves a whole batch of runs.  The Bayes
step and the law are bound to their arrays once and then stepped:
:func:`bind_posterior` scores the residuals under the hypotheses and
updates the posteriors by the scores, from per-row constants it builds
once, and :func:`bind_ensemble_law` forms the posterior-weighted input.

Every sum over the subsystems is a left fold from its first term,
``np.add.accumulate(v, -1)[..., -1]``: numpy defines ``accumulate`` as the
running sum r[i] = r[i-1] + v[i], so its order is fixed, where
``np.add.reduce`` may sum pairwise (it does from 8 terms on).

An episode of its own, one row of S subsystems, is stepped by
:func:`_bind_one_row` instead, which the episode loop selects.  Its Bayes
and law steps give the array steps' bits.  They keep numpy for the calls
that set them: ``vecdot``, whose BLAS kernels fuse multiplies and adds,
``exp``, which differs from ``math.exp`` in about 5% of values, and the
NaN-propagating peak ``np.maximum.reduce``.  The slopes, divides, floors,
sums (``_fold``, the same left fold), safeguarded divisors and clamps they
do on Python floats, which round every operation as numpy does, without
numpy's overhead per call.  The semantics they rely on:

- an overflow gives inf and an invalid operation NaN, as in numpy;
- a comparison with NaN is false, so the floor, the divisor and the
  clamp, written as conditionals that keep the value unless a comparison
  holds, pass NaN through as ``np.maximum`` and ``np.minimum`` do;
- ``x/0.0`` raises, but no divisor is zero: |b1| is raised to the config's
  eps_b > 0, and every posterior entry the loop holds is at least
  :data:`POSTERIOR_FLOOR` or NaN, so a posterior total is > 0 or NaN.
"""

from __future__ import annotations

import math
from operator import mul, sub

import numpy as np

from .noise import AldParams

__all__ = [
    "DEFAULT_EPS_B",
    "DEFAULT_U_MAX",
    "POSTERIOR_FLOOR",
    "bind_posterior",
    "bind_ensemble_law",
]

# Divisor safeguard and saturation for the certainty-equivalence law; early
# b_1 estimates can cross zero.
DEFAULT_EPS_B = 1e-6
DEFAULT_U_MAX = 1e3
POSTERIOR_FLOOR = 1e-12


def bind_posterior(hyps: tuple[AldParams, ...], post: np.ndarray):
    """The Bayes step of the hypotheses ``hyps`` bound to the subsystem posteriors ``post`` (rows, S): a function of
    the residuals.

    Each call scores the prediction residuals z - x'w_hat (rows, S) under
    the S hypotheses by their ALD log-densities log(tau*(1-tau)/sigma) -
    u*(tau - 1[u<0])/sigma, u = residual - mu, and updates ``post`` in place
    by them along the last axis, in the log domain with max-subtraction; the
    result is renormalized and floored at :data:`POSTERIOR_FLOOR` so a
    temporarily discredited subsystem can recover.  The slope is
    ``tau - (u < 0)``: the bool casts to 0.0 or 1.0, so it is tau or exactly
    tau - 1.  Under mu = 0.0, which every hypothesis stores as +0.0
    (``plant._number``), u is the residual bit for bit, so its sign is the
    one the filter step weighted by.  A non-finite log-likelihood gives
    non-finite posteriors and so a non-finite weighted control, which the
    episode loop (it scores banks of two or more subsystems) diagnoses as
    divergence.  The (rows, S) arrays of log(tau*(1-tau)/sigma), tau, sigma
    and mu and the numpy callables are taken here once, so the step works on
    operands of one shape.
    """
    exp, subtract, multiply, divide, less, maximum = np.exp, np.subtract, np.multiply, np.divide, np.less, np.maximum
    peak, fold = np.maximum.reduce, np.add.accumulate

    def per_row(values):
        return np.tile(np.array(values, dtype=float), (len(post), 1))

    log_peak = per_row([math.log(h.tau * (1.0 - h.tau) / h.sigma) for h in hyps])
    tau, sigma, mu = (per_row([getattr(h, name) for h in hyps]) for name in ("tau", "sigma", "mu"))
    # 0-d arrays, which numpy takes faster than Python floats
    zero, floor = np.array(0.0), np.array(POSTERIOR_FLOOR)

    def update(residual) -> None:
        u = subtract(residual, mu)
        log_lik = subtract(log_peak, divide(multiply(u, subtract(tau, less(u, zero))), sigma))
        multiply(post, exp(subtract(log_lik, peak(log_lik, -1)[..., None])), post)
        # renormalization can push a floored entry a hair below the floor again, so twice
        for _ in range(2):
            divide(post, fold(post, -1)[..., -1:], post)
            maximum(post, floor, out=post)

    return update


def bind_ensemble_law(post, W, eta, eps_b: float = DEFAULT_EPS_B, u_max: float = DEFAULT_U_MAX):
    """The ensemble law bound to its arrays: a function of ``y_r_next``.

    Each call returns the posterior-weighted sum, under the posteriors
    ``post`` (..., S), of the certainty-equivalence inputs
    (y_r_next - eta'alpha)/b1 of the estimates w = [b1, alpha...] in ``W``
    (..., S, d); ``eta`` (..., d-1), the regressor without u(k), is shared
    by the S subsystems, and ``y_r_next`` broadcast.  Divisors smaller than
    ``eps_b`` in magnitude are replaced by ``eps_b*sign(b1)`` with
    sign(0) = +1, and each input is clamped to [-u_max, u_max].  Non-finite
    inputs give a non-finite or clamped result.  The sum is a left fold
    from the first term, so one subsystem at posterior 1.0 gives its input
    bit for bit, -0.0 included.  All three arrays may change in place
    between calls; the views into them and the numpy callables are taken
    here once.

    The weighted sum is not clamped again.  Posteriors from
    :func:`bind_posterior` sum to one only within rounding, so with every
    input saturated the sum can pass u_max by an ulp or two
    (1000.0000000000001 for u_max = 1000).  Its magnitude stays below
    u_max*(1 + 2*S*eps), eps = 2**-52: the posteriors sum to within about
    S*eps/2 of one, and the S products and S - 1 additions add about S*eps/2
    more.  Clamping the sum would add an operation to every call.
    """
    absolute, add, subtract, divide, copysign = np.absolute, np.add, np.subtract, np.divide, np.copysign
    maximum, minimum, multiply, vecdot, fold = np.maximum, np.minimum, np.multiply, np.vecdot, np.add.accumulate
    b1_hat, alpha, eta_s = W[..., 0], W[..., 1:], eta[..., None, :]
    # 0-d arrays, which numpy takes faster than Python floats
    zero, eps_b, u_min, u_max = np.array(0.0), np.array(eps_b, dtype=float), np.array(-u_max), np.array(u_max)

    def law(y_r_next):
        # |b1| raised to eps_b with the sign of b1; adding 0.0 turns -0.0 into +0.0
        b1 = copysign(maximum(absolute(b1_hat), eps_b), add(b1_hat, zero))
        u = minimum(maximum(divide(subtract(y_r_next, vecdot(eta_s, alpha)), b1), u_min), u_max)
        return fold(multiply(post, u), -1)[..., -1]

    return law


def _fold(values) -> float:
    """The sum of ``values`` left to right: the last entry of ``np.add.accumulate``, bit for bit.

    It starts from -0.0, which adds to any value without changing its bits,
    so it equals accumulate's fold from the first term, and a sum of -0.0
    terms is -0.0.  It is not builtin ``sum()``: from Python 3.12 that sums
    floats with compensation, which is not a fold, and the package supports
    Python 3.10 on.
    """
    total = -0.0
    for value in values:
        total += value
    return total


def _ce_input(target: float, b1: float, eps_b: float, u_max: float) -> float:
    """The certainty-equivalence input ``target``/b1 on Python floats, as :func:`bind_ensemble_law` divides and clamps.

    The divisor copysign(max(|b1|, eps_b), b1 + 0.0) is, case by case, b1
    itself unless |b1| < eps_b, and then eps_b with the sign of b1, + for
    -0.0.  A comparison with NaN is false, so a NaN b1 or input passes
    through the divisor and the clamp, as it does through np.maximum and
    np.minimum.
    """
    u = target / (b1 if not -eps_b < b1 < eps_b else -eps_b if b1 < 0.0 else eps_b)
    return -u_max if u < -u_max else u_max if u > u_max else u


def _bind_one_row(hyps: tuple[AldParams, ...], post, W, eta, eps_b: float, u_max: float):
    """The Bayes and control steps of one episode on Python floats: ``(bayes, law)``, with the array steps' bits.

    ``post`` (1, S), ``W`` (1, S, d) and ``eta`` (1, d-1) are the episode's
    arrays, and ``eps_b`` and ``u_max`` floats above 0.
    ``bayes(residual)`` scores the residuals (1, S) under the S hypotheses
    ``hyps`` and updates ``post`` in place, as :func:`bind_posterior` does;
    every entry of ``post`` must be at least :data:`POSTERIOR_FLOOR` or NaN.
    ``law(y_r)`` returns the input for the reference ``y_r``, a float, as a
    float: the posterior-weighted sum that :func:`bind_ensemble_law` forms.
    """
    exp, peak, vecdot = np.exp, np.maximum.reduce, np.vecdot
    mus = [h.mu for h in hyps]
    slopes = [(math.log(h.tau * (1.0 - h.tau) / h.sigma), h.tau, h.sigma) for h in hyps]
    eta_s, b1_hat, alpha = eta[..., None, :], W[..., 0], W[..., 1:]
    weighted = W.shape[1] > 1

    def bayes(residual) -> None:
        (r,) = residual.tolist()
        log_lik = np.array([c - u * (tau - (u < 0.0)) / sigma for u, (c, tau, sigma) in zip(map(sub, r, mus), slopes)])
        (p,) = post.tolist()
        p = list(map(mul, p, exp(log_lik - peak(log_lik)).tolist()))
        for _ in range(2):  # as bind_posterior does
            p_sum = _fold(p)
            p = [v / p_sum for v in p]
            p = [POSTERIOR_FLOOR if v < POSTERIOR_FLOOR else v for v in p]
        post[0] = p

    def law(y_r: float) -> float:
        (dots,), (b1s,) = vecdot(eta_s, alpha).tolist(), b1_hat.tolist()
        inputs = [_ce_input(y_r - dot, b1, eps_b, u_max) for dot, b1 in zip(dots, b1s)]
        # one subsystem's posterior is 1.0, 1.0*u is u and a sum of one term is that term, so skipping
        # the product and the sum keeps the bits; it saves about 5% of a one-row oracle episode
        return _fold(map(mul, post.tolist()[0], inputs)) if weighted else inputs[0]

    return bayes, law
