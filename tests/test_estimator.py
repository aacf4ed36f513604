import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldcontrol import (
    AldParams,
    EstimatorState,
    IqfConfig,
    ald_mean,
    ald_sample,
    batch_weighted_ls,
    initial_state,
    iqf_step,
    residual_weight,
    rls_step,
)
from aldcontrol.estimator import _gain_update


def run_iqf(cfg, xs, zs):
    st = initial_state(cfg)
    weights = []
    for x, z in zip(xs, zs):
        weights.append(residual_weight(cfg.hypothesis.tau, z - x @ st.w))
        st = iqf_step(st, cfg, x, z)
    return st, np.array(weights)


class TestResidualWeight:
    def test_negative_residual(self):
        assert residual_weight(0.95, -0.3) == pytest.approx(0.05)

    def test_zero_residual_takes_upper_branch(self):
        assert residual_weight(0.95, 0.0) == 0.95

    def test_symmetric(self):
        for r in (-5.0, -0.1, 0.0, 2.0):
            assert residual_weight(0.5, r) == 0.5

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            residual_weight(1.2, 0.0)


class TestIqfStep:
    def test_hand_worked_scalar_update(self):
        cfg = IqfConfig(AldParams(0.5, 0.0, 1.0), np.zeros(1), np.eye(1))
        st = iqf_step(initial_state(cfg), cfg, np.array([1.0]), 1.0)
        assert st.w[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert st.P[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_noise_free_consistency(self):
        rng = np.random.default_rng(0)
        w_true = np.array([0.5, -1.41, 0.9])
        cfg = IqfConfig(AldParams(0.5, 0.0, 1.0), np.zeros(3), 1e8 * np.eye(3))
        st = initial_state(cfg)
        for _ in range(200):
            x = rng.normal(size=3)
            st = iqf_step(st, cfg, x, float(x @ w_true))
        assert np.linalg.norm(st.w - w_true) < 1e-6

    def test_zero_regressor_is_inert(self):
        cfg = IqfConfig(AldParams(0.9, 0.3, 0.2), np.array([1.0, -2.0]), 5.0 * np.eye(2))
        st0 = initial_state(cfg)
        st1 = iqf_step(st0, cfg, np.zeros(2), 7.0)
        assert np.array_equal(st1.w, st0.w)
        assert np.array_equal(st1.P, st0.P)

    def test_rejects_non_finite(self):
        cfg = IqfConfig(AldParams(0.5, 0.0, 1.0), np.zeros(2), np.eye(2))
        st = initial_state(cfg)
        with pytest.raises(ValueError):
            iqf_step(st, cfg, np.array([1.0, np.inf]), 1.0)
        with pytest.raises(ValueError):
            iqf_step(st, cfg, np.ones(2), np.nan)

    def test_covariance_stays_symmetric_pd_and_contracts(self):
        rng = np.random.default_rng(1)
        cfg = IqfConfig(AldParams(0.85, 0.0, 0.5), np.zeros(4), 50.0 * np.eye(4))
        st = initial_state(cfg)
        for _ in range(300):
            x = rng.normal(size=4)
            before = x @ st.P @ x
            st = iqf_step(st, cfg, x, float(rng.normal()))
            assert np.max(np.abs(st.P - st.P.T)) < 1e-10
            assert x @ st.P @ x <= before + 1e-12
        assert np.all(np.linalg.eigvalsh(st.P) > 0)

    def test_p0_validation(self):
        with pytest.raises(ValueError):
            IqfConfig(AldParams(0.5, 0.0, 1.0), np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            IqfConfig(AldParams(0.5, 0.0, 1.0), np.zeros(2), -np.eye(2))


class TestRlsStep:
    def test_hand_worked_scalar_update(self):
        st = rls_step(EstimatorState(np.zeros(1), np.eye(1)), np.array([1.0]), 1.0)
        assert st.w[0] == pytest.approx(0.5, abs=1e-15)
        assert st.P[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_regressor_is_inert(self):
        st0 = EstimatorState(np.array([2.0]), 3.0 * np.eye(1))
        st1 = rls_step(st0, np.zeros(1), 4.0)
        assert np.array_equal(st1.w, st0.w)

    def test_symmetric_iqf_equals_rls_at_half_covariance(self):
        rng = np.random.default_rng(2)
        P0 = np.diag([3.0, 1.0, 0.5])
        w0 = rng.normal(size=3)
        cfg = IqfConfig(AldParams(0.5, 0.0, 1.0), w0, P0)
        st_i = initial_state(cfg)
        st_r = EstimatorState(w0.copy(), P0 / 2.0)
        for _ in range(150):
            x = rng.normal(size=3)
            z = float(rng.normal(scale=2.0))
            st_i = iqf_step(st_i, cfg, x, z)
            st_r = rls_step(st_r, x, z)
            assert np.max(np.abs(st_i.w - st_r.w)) < 1e-10


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
        cfg = IqfConfig(hyp, w0, P0)
        xs = rng.normal(size=(50, 3))
        zs = rng.normal(size=50, scale=1.5)
        st, weights = run_iqf(cfg, xs, zs)
        out = batch_weighted_ls(xs, zs, np.full(50, ald_mean(hyp)), weights, w0, P0)
        assert np.max(np.abs(out - st.w)) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 5),
        n=st.integers(0, 120),
        tau=st.floats(0.02, 0.98),
        mu=st.floats(-2.0, 2.0),
        sigma=st.floats(0.01, 2.0),
        p0_scale=st.floats(0.01, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_bank_update_matches_batch(self, d, n, tau, mu, sigma, p0_scale, seed):
        # drive _gain_update the way run_episode does: row views of a (S, d)
        # estimate bank and an (S, d, d) covariance bank, updated in place
        rng = np.random.default_rng(seed)
        hyp = AldParams(tau, mu, sigma)
        shift = ald_mean(hyp)
        root = rng.normal(size=(d, d))
        P0 = p0_scale * (root @ root.T / d + np.eye(d))
        w0 = rng.normal(size=d)
        xs = rng.normal(size=(n, d))
        zs = rng.normal(size=n, scale=2.0)
        W = np.tile(w0, (1, 1))
        P = np.tile(P0, (1, 1, 1))
        weights = []
        for x, z in zip(xs, zs):
            for w, P_i in zip(W, P):
                r = z - x @ w
                weights.append(1.0 - tau if r < 0.0 else tau)
                _gain_update(w, P_i, x, weights[-1], r - shift)
        batch = batch_weighted_ls(xs, zs, np.full(n, shift), np.array(weights), w0, P0)
        assert np.max(np.abs(batch - W[0])) <= 1e-8 * max(1.0, np.max(np.abs(batch)))

    def test_rejects_out_of_range_weights(self):
        with pytest.raises(ValueError):
            batch_weighted_ls(
                np.ones((1, 1)), np.ones(1), np.zeros(1), np.array([1.0]), np.zeros(1), np.eye(1)
            )


class TestBiasCorrection:
    @pytest.mark.parametrize("tau", [0.85, 0.95])
    def test_iqf_beats_rls_on_matched_skewed_noise(self, tau):
        # nonzero-mean regressors: the noise mean cannot average out of the
        # normal equations, which is where plain RLS loses accuracy
        hyp = AldParams(tau, 0.0, 0.01)
        w_true = np.array([0.5, -1.41, 0.9])
        err_iqf, err_rls = [], []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            cfg = IqfConfig(hyp, np.zeros(3), 100.0 * np.eye(3))
            st_i = initial_state(cfg)
            st_r = EstimatorState(np.zeros(3), 100.0 * np.eye(3))
            for _ in range(2000):
                x = 1.0 + rng.standard_normal(3)
                z = float(x @ w_true + ald_sample(hyp, rng))
                st_i = iqf_step(st_i, cfg, x, z)
                st_r = rls_step(st_r, x, z)
            err_iqf.append(np.linalg.norm(st_i.w - w_true))
            err_rls.append(np.linalg.norm(st_r.w - w_true))
        assert np.median(err_iqf) < np.median(err_rls)
