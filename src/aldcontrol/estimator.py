"""Online parameter estimation: one weighted least-squares filter step.

Every estimator is a bank of filters updated in place by the step that
:func:`bind_filter` binds to its arrays, under a weight rule ``(p_neg, p_pos,
shift)`` with one entry per filter: a sample is weighted ``p_neg`` for a
negative prediction residual and ``p_pos`` otherwise, and its innovation is
the residual minus ``shift``.  The step returns the residuals and nothing
else: they are all that the scoring of the hypotheses reads.  The iterative
quantile filter of an asymmetric Laplace hypothesis has the rule
``(1 - tau, tau, ald_mean)`` (:func:`quantile_rule`); classic RLS has
``(1, 1, 0)`` (:data:`RLS_RULE`).  With tau = 1/2 and a zero-mean hypothesis
the quantile filter reduces to RLS at half the initial covariance.  A bank
whose every entry has the unit rule skips the sign, the weight and the
shift, which are exact no-ops there.  The batch weighted least-squares
solution that the recursion reproduces is a test oracle, kept with the tests
(``tests/reference.py``).
"""

from __future__ import annotations

import numpy as np

from .noise import AldParams, ald_mean

__all__ = [
    "RLS_RULE",
    "quantile_rule",
    "bind_filter",
]

# unit weight on either side and no innovation shift, for one filter
RLS_RULE = ((1.0,), (1.0,), (0.0,))


def quantile_rule(hyps: tuple[AldParams, ...]) -> tuple[tuple[float, ...], ...]:
    """Weight rule (1 - tau, tau, ald_mean) of quantile filters under ``hyps``: three float tuples, one entry each."""
    return tuple(1.0 - h.tau for h in hyps), tuple(h.tau for h in hyps), tuple(ald_mean(h) for h in hyps)


def bind_filter(W: np.ndarray, P: np.ndarray, x, rule):
    """The filter step bound to its arrays: a function of ``z`` that returns the residuals ``r``.

    Each call assimilates the sample (x, z) into the estimates ``W`` (..., d)
    and covariances ``P`` (..., d, d) in place; ``x`` (..., d), which may
    change in place between calls, ``z`` and the entries of ``rule``
    broadcast over the leading dimensions of ``W``.  The rule's entries are
    any sequences of floats, such as :func:`quantile_rule`'s tuples, and are
    made into arrays once, here.  ``r`` is one array of the prediction
    residuals ``z - x'w`` (...) taken before the update.
    Under a unit rule (1, 1, +0.0) ``p*v`` is ``v`` and ``r - 0.0`` is ``r``
    bit for bit, so the step skips the sign, the weight and the shift.
    ``P`` is re-symmetrized after the update to suppress floating-point
    drift.  Every invariant view, constant and numpy callable is taken here
    once, so a loop that steps the same arrays pays for the arithmetic alone.
    """
    add, subtract, multiply, divide, less, where = np.add, np.subtract, np.multiply, np.divide, np.less, np.where
    vecdot, matvec, vecmat = np.vecdot, np.matvec, np.vecmat
    p_neg, p_pos, shift = (np.array(v, dtype=float) for v in rule)
    # -0.0 is not a unit shift: r - (-0.0) turns r = -0.0 into +0.0
    unit = bool(np.all(p_neg == 1.0) and np.all(p_pos == 1.0) and np.all((shift == 0.0) & ~np.signbit(shift)))
    P_T = P.mT
    # 0-d arrays, which numpy takes faster than Python floats
    zero, one, half = np.array(0.0), np.array(1.0), np.array(0.5)

    def step(z):
        r = subtract(z, vecdot(W, x))
        Px = matvec(P, x)
        xPx = vecdot(x, Px)
        if unit:
            innovation = r
        else:
            p = where(less(r, zero), p_neg, p_pos)
            Px, xPx, innovation = multiply(p[..., None], Px), multiply(p, xPx), subtract(r, shift)
        # denominator >= 1 because P is positive semidefinite and p > 0
        gain = divide(Px, add(one, xPx)[..., None])
        # in place: W += gain*(r - shift), P -= gain x'P, then P = (P + P')/2
        add(W, multiply(gain, innovation[..., None]), W)
        subtract(P, multiply(gain[..., :, None], vecmat(x, P)[..., None, :]), P)
        multiply(half, add(P, P_T), P)
        return r

    return step
