import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aldcontrol import (
    RLS_RULE,
    AldParams,
    ald_mean,
    bind_filter,
    quantile_rule,
)
from reference import ald_sample, batch_weighted_ls


def bank(w0, P0, *lead):
    """Estimates (*lead, d) and covariances (*lead, d, d), every filter starting at (w0, P0)."""
    w0, P0 = np.asarray(w0, dtype=float), np.asarray(P0, dtype=float)
    return np.tile(w0, (*lead, 1)), np.tile(P0, (*lead, 1, 1))


def concat(*rules):
    """One weight rule whose entries are those of ``rules`` in order."""
    return tuple(np.concatenate(parts) for parts in zip(*rules))


def oracle_weights(tau, residuals):
    """The paper's sample weights: 1-tau for a negative residual, tau otherwise."""
    return np.where(np.asarray(residuals) < 0.0, 1.0 - tau, tau)


def assimilate(W, P, x, z, rule):
    """The residuals of one sample, through a filter step bound for it alone."""
    return bind_filter(W, P, x, rule)(z)


def run_iqf(hyp, w0, P0, xs, zs):
    """One quantile filter through the samples: its final estimate and the weights it realized.

    The step is bound once and reads each regressor written into its buffer,
    as the episode loop's does.
    """
    W, P = bank(w0, P0, 1)
    x = np.zeros(len(w0))
    step = bind_filter(W, P, x, quantile_rule([hyp]))
    residuals = []
    for x_k, z in zip(xs, zs):
        x[...] = x_k
        residuals.append(step(z)[0])
    return W[0], oracle_weights(hyp.tau, residuals)


def covariance_after(tau, z):
    """P after one scalar quantile-filter step from w = 0, P = 1 with x = 1."""
    W, P = bank(np.zeros(1), np.eye(1), 1)
    assimilate(W, P, np.ones(1), z, quantile_rule([AldParams(tau, 0.0, 1.0)]))
    return P[0, 0, 0]


class TestResidualWeight:
    # one step from P = 1 with x = 1 leaves P = 1/(1 + p) for the sample weight p
    def test_negative_residual(self):
        assert covariance_after(0.95, -0.3) == pytest.approx(1.0 / 1.05, abs=1e-15)

    def test_zero_residual_takes_upper_branch(self):
        assert covariance_after(0.95, 0.0) == pytest.approx(1.0 / 1.95, abs=1e-15)

    def test_symmetric(self):
        for r in (-5.0, -0.1, 0.0, 2.0):
            assert covariance_after(0.5, r) == pytest.approx(1.0 / 1.5, abs=1e-15)

    def test_quantile_rule_holds_one_entry_per_hypothesis(self):
        hyps = (AldParams(0.9, 0.3, 0.2), AldParams(0.25, -1.0, 2.0))
        p_neg, p_pos, shift = quantile_rule(hyps)
        assert p_neg == (1.0 - 0.9, 1.0 - 0.25)
        assert p_pos == (0.9, 0.25)
        assert shift == tuple(ald_mean(h) for h in hyps)

    def test_rls_rule_is_read_only(self):
        for entry in RLS_RULE:
            with pytest.raises(TypeError):
                entry[0] = 0.5
        assert RLS_RULE == ((1.0,), (1.0,), (0.0,))


class TestIqfStep:
    def test_hand_worked_scalar_update(self):
        W, P = bank(np.zeros(1), np.eye(1), 1)
        r = assimilate(W, P, np.array([1.0]), 1.0, quantile_rule([AldParams(0.5, 0.0, 1.0)]))
        assert r.tolist() == [1.0]
        assert W[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert P[0, 0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_noise_free_consistency(self):
        rng = np.random.default_rng(0)
        w_true = np.array([0.5, -1.41, 0.9])
        rule = quantile_rule([AldParams(0.5, 0.0, 1.0)])
        W, P = bank(np.zeros(3), 1e8 * np.eye(3), 1)
        x = np.zeros(3)
        step = bind_filter(W, P, x, rule)
        for _ in range(200):
            x[...] = rng.normal(size=3)
            step(float(x @ w_true))
        assert np.linalg.norm(W[0] - w_true) < 1e-6

    def test_zero_regressor_is_inert(self):
        w0, P0 = np.array([1.0, -2.0]), 5.0 * np.eye(2)
        W, P = bank(w0, P0, 1)
        assimilate(W, P, np.zeros(2), 7.0, quantile_rule([AldParams(0.9, 0.3, 0.2)]))
        assert np.array_equal(W[0], w0)
        assert np.array_equal(P[0], P0)

    def test_covariance_stays_symmetric_pd_and_contracts(self):
        rng = np.random.default_rng(1)
        rule = quantile_rule([AldParams(0.85, 0.0, 0.5)])
        W, P = bank(np.zeros(4), 50.0 * np.eye(4), 1)
        x = np.zeros(4)
        step = bind_filter(W, P, x, rule)
        for _ in range(300):
            x[...] = rng.normal(size=4)
            before = x @ P[0] @ x
            step(float(rng.normal()))
            assert np.max(np.abs(P[0] - P[0].T)) < 1e-10
            assert x @ P[0] @ x <= before + 1e-12
        assert np.all(np.linalg.eigvalsh(P[0]) > 0)


class TestRlsStep:
    def test_hand_worked_scalar_update(self):
        W, P = bank(np.zeros(1), np.eye(1), 1)
        assimilate(W, P, np.array([1.0]), 1.0, RLS_RULE)
        assert W[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert P[0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_regressor_is_inert(self):
        W, P = bank(np.array([2.0]), 3.0 * np.eye(1), 1)
        assimilate(W, P, np.zeros(1), 4.0, RLS_RULE)
        assert W.tolist() == [[2.0]]

    def test_symmetric_iqf_equals_rls_at_half_covariance(self):
        # one bank: the tau = 1/2 filter at P0 beside RLS at P0/2
        rng = np.random.default_rng(2)
        P0 = np.diag([3.0, 1.0, 0.5])
        w0 = rng.normal(size=3)
        W, P = bank(w0, P0, 2)
        P[1] /= 2.0
        x = np.zeros(3)
        step = bind_filter(W, P, x, concat(quantile_rule([AldParams(0.5, 0.0, 1.0)]), RLS_RULE))
        for _ in range(150):
            x[...] = rng.normal(size=3)
            step(float(rng.normal(scale=2.0)))
            assert np.max(np.abs(W[0] - W[1])) < 1e-10


# regressor entries and measurements with both zeros, so residuals of either zero sign occur
SAMPLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300])


class TestUnitRule:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), data=st.data())
    def test_unit_rule_step_equals_the_weighted_step_bit_for_bit(self, d, data):
        # RLS's rule (1, 1, 0) skips the sign, the weight and the shift; as
        # entry 0 of a stacked rule with a quantile entry it takes them all.
        # Both banks have two entries, because the sign of a NaN that numpy
        # propagates can depend on the length of the arrays.
        steps = data.draw(st.integers(1, 12))
        xs = data.draw(arrays(float, (steps, d), elements=SAMPLE_VALUES))
        zs = data.draw(arrays(float, steps, elements=st.one_of(SAMPLE_VALUES, NON_FINITE)))
        x, w0 = np.zeros(d), data.draw(arrays(float, d, elements=SAMPLE_VALUES))
        W, P = bank(w0, 10.0 * np.eye(d), 2)
        W2, P2 = bank(w0, 10.0 * np.eye(d), 2)
        unit = bind_filter(W, P, x, concat(RLS_RULE, RLS_RULE))
        weighted = bind_filter(W2, P2, x, concat(RLS_RULE, quantile_rule([AldParams(0.8, 0.1, 0.5)])))
        for x_k, z in zip(xs, zs):
            x[...] = x_k
            with np.errstate(all="ignore"):
                r, r2 = unit(z), weighted(z)
            assert r.shape == r2.shape == (2,)
            assert r[0].tobytes() == r2[0].tobytes()
            assert W[0].tobytes() == W2[0].tobytes() and P[0].tobytes() == P2[0].tobytes()

    @pytest.mark.parametrize("shift,unit", [(0.0, True), (-0.0, False), (1e-300, False)])
    def test_unit_rule_is_told_by_value(self, shift, unit):
        # r - (-0.0) turns a -0.0 residual into +0.0, so a -0.0 shift is not
        # skipped: from a -0.0 estimate and a -0.0 residual, gain 1/2, only the
        # skipped shift keeps the estimate -0.0, and the taken one gives -0.0 + 0.5*(r - shift)
        W, P = bank([-0.0], [[1.0]], 3)
        rule = (np.ones(3), np.ones(3), np.array([0.0, shift, 0.0]))
        r = bind_filter(W, P, np.ones(1), rule)(-0.0)
        assert r.tobytes() == np.full(3, -0.0).tobytes()
        taken = np.float64(-0.0) + 0.5 * (np.float64(-0.0) - shift)
        assert W[1, 0].tobytes() == taken.tobytes()
        assert bool(W[1, 0] == 0.0 and np.signbit(W[1, 0])) == unit


class TestBatchWeightedLs:
    def test_no_data_returns_prior(self):
        w0 = np.array([1.5, -0.5])
        out = batch_weighted_ls(np.empty((0, 2)), [], [], [], w0, 4.0 * np.eye(2))
        assert np.allclose(out, w0)

    def test_single_sample_matches_recursion(self):
        out = batch_weighted_ls(
            np.array([[1.0]]), np.array([1.0]), np.array([0.0]), np.array([0.5]),
            np.zeros(1), np.eye(1),
        )
        assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_recursive_estimate_with_realized_weights(self):
        rng = np.random.default_rng(3)
        hyp = AldParams(0.9, 0.1, 0.4)
        w0 = rng.normal(size=3)
        P0 = np.diag([10.0, 2.0, 7.0])
        xs = rng.normal(size=(50, 3))
        zs = rng.normal(size=50, scale=1.5)
        w, weights = run_iqf(hyp, w0, P0, xs, zs)
        out = batch_weighted_ls(xs, zs, np.full(50, ald_mean(hyp)), weights, w0, P0)
        assert np.max(np.abs(out - w)) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 5),
        n=st.integers(0, 120),
        runs=st.integers(1, 3),
        taus=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3),
        mu=st.floats(-2.0, 2.0),
        sigma=st.floats(0.01, 2.0),
        p0_scale=st.floats(0.01, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_bank_update_matches_batch(self, d, n, runs, taus, mu, sigma, p0_scale, seed):
        # drive the filter the way the stepping core does: one step bound
        # once, one call per sample on an (R, S) bank, R runs with their own
        # samples and S hypotheses sharing each run's regressor and measurement
        rng = np.random.default_rng(seed)
        hyps = [AldParams(tau, mu, sigma) for tau in taus]
        root = rng.normal(size=(d, d))
        P0 = p0_scale * (root @ root.T / d + np.eye(d))
        w0 = rng.normal(size=d)
        xs = rng.normal(size=(n, runs, d))
        zs = rng.normal(size=(n, runs), scale=2.0)
        W, P = bank(w0, P0, runs, len(hyps))
        x_k = np.zeros((runs, 1, d))
        step = bind_filter(W, P, x_k, quantile_rule(hyps))
        residuals = []
        for x, z in zip(xs, zs):
            x_k[:, 0] = x
            residuals.append(step(z[:, None]))
        residuals = np.reshape(residuals, (n, runs, len(hyps)))
        for run in range(runs):
            for s, hyp in enumerate(hyps):
                weights = oracle_weights(hyp.tau, residuals[:, run, s])
                batch = batch_weighted_ls(xs[:, run], zs[:, run], np.full(n, ald_mean(hyp)), weights, w0, P0)
                assert np.max(np.abs(batch - W[run, s])) <= 1e-8 * max(1.0, np.max(np.abs(batch)))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(0, 80),
        runs=st.integers(1, 3),
        taus=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=2),
        mu=st.floats(-2.0, 2.0),
        p0_scale=st.floats(0.01, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rls_beside_quantile_bank_matches_batch(self, d, n, runs, taus, mu, p0_scale, seed):
        # RLS's unit weight is a valid batch weight: each entry of a mixed
        # bank equals the batch solve under the weights and offsets its rule realized
        rng = np.random.default_rng(seed)
        p_neg, p_pos, shift = rule = concat(RLS_RULE, quantile_rule([AldParams(tau, mu, 0.5) for tau in taus]))
        root = rng.normal(size=(d, d))
        P0 = p0_scale * (root @ root.T / d + np.eye(d))
        w0 = rng.normal(size=d)
        xs = rng.normal(size=(n, runs, d))
        zs = rng.normal(size=(n, runs), scale=2.0)
        W, P = bank(w0, P0, runs, p_neg.size)
        x_k = np.zeros((runs, 1, d))
        step = bind_filter(W, P, x_k, rule)
        residuals = np.empty((n, runs, p_neg.size))
        for r, x, z in zip(residuals, xs, zs):
            x_k[:, 0] = x
            r[...] = step(z[:, None])
        for run in range(runs):
            for s in range(p_neg.size):
                weights = np.where(residuals[:, run, s] < 0.0, p_neg[s], p_pos[s])
                batch = batch_weighted_ls(xs[:, run], zs[:, run], np.full(n, shift[s]), weights, w0, P0)
                assert np.max(np.abs(batch - W[run, s])) <= 1e-8 * max(1.0, np.max(np.abs(batch)))

    @pytest.mark.parametrize("weight", [1e-300, 0.5, 1.0, 4.0])
    def test_accepts_every_positive_finite_weight(self, weight):
        # one sample x = z = 1 from the prior (0, 1): w = weight / (1 + weight)
        out = batch_weighted_ls(np.ones((1, 1)), np.ones(1), np.zeros(1), np.array([weight]), np.zeros(1), np.eye(1))
        assert out[0] == pytest.approx(weight / (1.0 + weight), rel=1e-15)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_out_of_range_weights(self, weight):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            batch_weighted_ls(
                np.ones((2, 1)), np.ones(2), np.zeros(2), np.array([0.5, weight]), np.zeros(1), np.eye(1)
            )

    @pytest.mark.parametrize(
        "X, z, offsets, weights, named",
        [
            # one weight and one offset for three rows used to broadcast to [0.6]
            (np.ones((3, 1)), np.ones(3), np.zeros(1), np.array([0.5]), "offsets has shape"),
            (np.ones((3, 1)), np.ones(3), np.zeros(3), np.array([0.5]), "weights has shape"),
            (np.ones((3, 1)), np.ones(2), np.zeros(3), np.full(3, 0.5), "z has shape"),
            (np.ones((3, 2)), np.ones(3), np.zeros(3), np.full(3, 0.5), "X has shape"),
            (np.ones(3), np.ones(3), np.zeros(3), np.full(3, 0.5), "X has shape"),
        ],
    )
    def test_rejects_a_shape_that_does_not_match_the_rows_of_X(self, X, z, offsets, weights, named):
        with pytest.raises(ValueError, match=named):
            batch_weighted_ls(X, z, offsets, weights, np.zeros(1), np.eye(1))


class TestBiasCorrection:
    @pytest.mark.parametrize("tau", [0.85, 0.95])
    def test_iqf_beats_rls_on_matched_skewed_noise(self, tau):
        # nonzero-mean regressors: the noise mean cannot average out of the
        # normal equations, which is where plain RLS loses accuracy.  The 50
        # seeds step as one (50, 2) bank: the quantile filter beside RLS.
        hyp = AldParams(tau, 0.0, 0.01)
        w_true = np.array([0.5, -1.41, 0.9])
        seeds, steps = 50, 2000
        xs, zs = np.empty((steps, seeds, 3)), np.empty((steps, seeds))
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            for k in range(steps):
                x = 1.0 + rng.standard_normal(3)
                xs[k, seed] = x
                zs[k, seed] = float(x @ w_true + ald_sample(hyp, rng))
        W, P = bank(np.zeros(3), 100.0 * np.eye(3), seeds, 2)
        x_k = np.zeros((seeds, 1, 3))
        step = bind_filter(W, P, x_k, concat(quantile_rule([hyp]), RLS_RULE))
        for x, z in zip(xs, zs):
            x_k[:, 0] = x
            step(z[:, None])
        err_iqf, err_rls = np.linalg.norm(W - w_true, axis=-1).T
        assert np.median(err_iqf) < np.median(err_rls)


class TestCovarianceInvariant:
    @settings(max_examples=8, deadline=None)
    @given(
        d=st.integers(1, 5),
        runs=st.integers(1, 3),
        taus=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3),
        sigma=st.floats(0.01, 2.0),
        p0_scale=st.floats(0.01, 1e3),
        offset=st.floats(-3.0, 3.0),
        scale=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bank_covariance_stays_symmetric_positive_definite(
        self, d, runs, taus, sigma, p0_scale, offset, scale, seed
    ):
        # drive the filter the way the stepping core does: one step bound
        # once to a shift-register regressor over one lagged signal per run,
        # and an (R, S) bank of estimates and covariances updated in place
        # for 10_000 steps
        rng = np.random.default_rng(seed)
        hyps = [AldParams(tau, 0.0, sigma) for tau in taus]
        rule = quantile_rule(hyps)
        w_true = rng.normal(size=d)
        W, P = bank(np.zeros(d), p0_scale * np.eye(d), runs, len(hyps))
        signal = offset + scale * rng.standard_normal((10_000 + d, runs))
        noise = ald_sample(hyps[0], rng, size=(10_000, runs))
        x = np.zeros((runs, d))
        step = bind_filter(W, P, x[:, None, :], rule)
        for k in range(10_000):
            x[:, 1:] = x[:, :-1]
            x[:, 0] = signal[k]
            step((x @ w_true + noise[k])[:, None])
            assert np.max(np.abs(P - P.mT)) <= 1e-10
            assert np.linalg.eigvalsh(P)[..., 0].min() > 0.0
