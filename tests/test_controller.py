import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldcontrol import (
    POSTERIOR_FLOOR,
    AldParams,
    IqfConfig,
    ald_pdf,
    ald_sample,
    ce_control,
    ensemble_control,
    initial_state,
    iqf_step,
    likelihood_table,
    parameter_vector,
    posterior_update,
    preset_config,
    run_episode,
    subsystem_log_likelihood,
)


class TestCeControl:
    def test_unit_gain(self):
        assert ce_control(np.array([1.0, 0.0, 0.0]), np.zeros(2), 5.0) == pytest.approx(5.0)

    def test_inverts_known_offset(self):
        assert ce_control(np.array([0.5, 1.0]), np.array([1.0]), 2.0) == pytest.approx(2.0)

    def test_divisor_safeguard_and_sign_convention(self):
        assert ce_control(np.array([0.0, 0.0]), np.zeros(1), 1.0, eps_b=1e-6, u_max=1e9) == pytest.approx(1e6)
        assert ce_control(np.array([-1e-9, 0.0]), np.zeros(1), 1.0, eps_b=1e-6, u_max=1e9) == pytest.approx(-1e6)

    def test_saturation(self):
        w = np.array([1e-3, 0.0])
        assert ce_control(w, np.zeros(1), 100.0, u_max=50.0) == 50.0
        assert ce_control(w, np.zeros(1), -100.0, u_max=50.0) == -50.0

    def test_zero_noise_closed_loop_is_exact(self):
        w = np.array([0.5, -1.41, 0.9])
        y = [0.0, 0.0]
        for k in range(1, 40):
            target = math.sin(0.2 * k)
            eta = np.array([y[-1], y[-2]])
            u = ce_control(w, eta, target)
            y_next = 0.5 * u - 1.41 * y[-1] + 0.9 * y[-2]
            assert y_next == pytest.approx(target, abs=1e-12)
            y.append(y_next)


def log_lik(hyp, residual):
    return float(subsystem_log_likelihood(likelihood_table([hyp]), residual)[0])


class TestSubsystemLogLikelihood:
    def test_peak_at_zero_residual(self):
        hyp = AldParams(0.9, 0.0, 0.5)
        out = log_lik(hyp, 0.0)
        assert out == pytest.approx(math.log(0.9 * 0.1 / 0.5))

    def test_symmetric_in_residual_at_half(self):
        hyp = AldParams(0.5, 0.0, 1.0)
        for a in (0.3, 1.7):
            assert log_lik(hyp, a) == pytest.approx(log_lik(hyp, -a))

    def test_skewed_value_and_density_consistency(self):
        hyp = AldParams(0.95, 0.0, 0.01)
        out = log_lik(hyp, 0.02)
        assert out == pytest.approx(math.log(4.75) - 1.9)
        assert math.exp(out) == pytest.approx(ald_pdf(hyp, 0.02))

    def test_table_scores_each_hypothesis_as_alone(self):
        rng = np.random.default_rng(3)
        hyps = [AldParams(0.95, 0.0, 0.01), AldParams(0.5, 0.3, 2.0), AldParams(0.1, -1.0, 0.2)]
        residuals = rng.normal(size=(4, 3))
        table = subsystem_log_likelihood(likelihood_table(hyps), residuals)
        for (i, j), r in np.ndenumerate(residuals):
            assert table[i, j] == log_lik(hyps[j], r)


def log_likelihoods(hyps, W, x, z):
    return subsystem_log_likelihood(likelihood_table(hyps), np.array([z - x @ w for w in W]))


class TestPosteriorUpdate:
    def test_equal_likelihoods_leave_posteriors(self):
        out = posterior_update(np.array([0.3, 0.7]), [-1.7, -1.7])
        assert out == pytest.approx([0.3, 0.7])

    def test_single_subsystem_stays_one(self):
        out = posterior_update(np.array([1.0]), [-123.0])
        assert out[0] == 1.0

    def test_bayes_arithmetic_for_known_ratio(self):
        # residuals ln(2)*sigma/tau > 0 and 0 give a likelihood ratio of exactly 2
        hyp = AldParams(0.5, 0.0, 1.0)
        gap = math.log(2.0) / 0.5
        out = posterior_update(np.array([0.5, 0.5]), log_likelihoods([hyp, hyp], [[0.0], [gap]], np.array([1.0]), gap))
        assert out == pytest.approx([1.0 / 3.0, 2.0 / 3.0])

    @pytest.mark.parametrize("shift", [8.0, -16.0, 0.5])
    def test_shift_invariance_is_bitwise(self, shift):
        # dyadic log-likelihoods and shifts keep every sum exact, so with
        # max-subtraction a common shift must not change a single bit
        table = np.array([-3.5, 0.25, -0.125])
        post = np.array([0.25, 0.5, 0.25])
        assert np.array_equal(posterior_update(post, table), posterior_update(post, table + shift))

    def test_floor_keeps_discredited_subsystem_alive(self):
        hyp = AldParams(0.5, 0.0, 0.01)
        out = posterior_update(np.array([0.5, 0.5]), log_likelihoods([hyp, hyp], [[0.0], [1e6]], np.array([1.0]), 0.0))
        assert out[1] >= 1e-12
        assert math.fsum(out) == pytest.approx(1.0, abs=1e-9)

    def test_zero_prior_entry_with_zero_floor_changes_no_bit(self):
        # a copy of entry 0 with prior 0 and floor 0, as the batched core pads a small bank
        rng = np.random.default_rng(5)
        floor = np.array([POSTERIOR_FLOOR, POSTERIOR_FLOOR, 0.0])
        for _ in range(200):
            post, log_lik = rng.dirichlet(np.ones(2)), rng.normal(scale=30.0, size=2)
            padded = posterior_update(np.append(post, 0.0), np.append(log_lik, log_lik[0]), floor)
            assert padded[2] == 0.0
            assert padded[:2].tobytes() == posterior_update(post, log_lik).tobytes()

    def test_posterior_rows_stay_on_simplex(self):
        rng = np.random.default_rng(31)
        hyps = [AldParams(0.95, 0.0, 0.01), AldParams(0.85, 0.0, 0.1)]
        W = rng.normal(size=(2, 2))
        post = np.full(2, 0.5)
        for _ in range(200):
            x = rng.normal(size=2)
            z = float(rng.normal())
            post = posterior_update(post, log_likelihoods(hyps, W, x, z))
            assert abs(math.fsum(post) - 1.0) <= 1e-9
            assert np.all(post >= 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 3),
    )
    def test_simplex_and_floor_under_extreme_gaps(self, rows, n_sub):
        post = np.full(n_sub, 1.0 / n_sub)
        for log_lik in rows:
            post = posterior_update(post, log_lik[:n_sub])
            assert abs(math.fsum(post) - 1.0) <= 1e-9
            assert np.all(post >= 1e-12)


class TestEnsembleControl:
    def test_single_subsystem_equals_ce(self):
        w = np.array([0.5, -1.0])
        eta = np.array([2.0])
        assert ensemble_control(np.array([1.0]), w[None, :], eta, 3.0) == pytest.approx(ce_control(w, eta, 3.0))

    def test_degenerate_posterior_selects_subsystem(self):
        W = np.array([[1.0, 0.0], [0.25, 0.0]])
        assert ensemble_control(np.array([1.0 - 1e-12, 1e-12]), W, np.array([0.0]), 2.0) == pytest.approx(2.0, abs=1e-9)

    def test_weighted_sum(self):
        # laws produce u = 2 and u = 4 for the same target
        W = np.array([[1.0, 0.0], [0.5, 0.0]])
        assert ensemble_control(np.array([0.5, 0.5]), W, np.array([0.0]), 2.0) == pytest.approx(3.0)

    def test_linear_in_posterior(self):
        rng = np.random.default_rng(37)
        W = rng.normal(size=(3, 3)) + np.array([1.0, 0, 0])
        eta = rng.normal(size=2)
        laws = [ce_control(w, eta, 1.3) for w in W]
        for _ in range(25):
            p = rng.dirichlet(np.ones(3))
            assert ensemble_control(p, W, eta, 1.3) == pytest.approx(float(p @ laws))


class TestOracleControl:
    def test_matches_ce_at_true_parameters(self):
        # base plant: m = 1, n = 2, so the oracle's regressor at step k is [y(k), y(k-1)]
        cfg = replace(preset_config("base"), controller="oracle", steps=60)
        tr = run_episode(cfg)
        w = parameter_vector(cfg.plant)
        for i in range(1, cfg.steps - 1):
            assert tr.u[i] == ce_control(w, np.array([tr.y[i], tr.y[i - 1]]), tr.y_r[i + 1])


class TestEnsembleCollapse:
    def test_matching_hypothesis_wins_posterior(self):
        # s = 2 well separated hypotheses; the true noise equals the first one
        truth = AldParams(0.95, 0.0, 0.01)
        other = AldParams(0.85, 0.0, 0.1)
        w_true = np.array([0.5, -1.41, 0.9])
        finals = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            cfgs = [IqfConfig(h, np.zeros(3), 100.0 * np.eye(3)) for h in (truth, other)]
            states = [initial_state(c) for c in cfgs]
            post = np.full(2, 0.5)
            for _ in range(500):
                x = rng.normal(size=3)
                z = float(x @ w_true + ald_sample(truth, rng))
                post = posterior_update(post, log_likelihoods((truth, other), [s.w for s in states], x, z))
                states = [iqf_step(s, c, x, z) for s, c in zip(states, cfgs)]
            finals.append(post[0])
        assert np.median(finals) > 0.9
