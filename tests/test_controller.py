import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aldcontrol import (
    POSTERIOR_FLOOR,
    AldParams,
    bind_ensemble_law,
    bind_filter,
    bind_posterior,
    parameter_vector,
    preset_config,
    quantile_rule,
    run_episode,
)
from aldcontrol.controller import _bind_one_row, _fold
from reference import ald_pdf, ald_sample


def ce_law(w, eta, *limits, **kw):
    """The certainty-equivalence law of ``w`` (..., d): the ensemble law of one subsystem at posterior 1.0."""
    return bind_ensemble_law(np.ones((*w.shape[:-1], 1)), w[..., None, :], eta, *limits, **kw)


def ce_input(w, eta, y_r_next, **kw):
    """The certainty-equivalence input of one call, from a law bound for it alone."""
    return ce_law(w, eta, **kw)(y_r_next)


class TestCeControl:
    def test_unit_gain(self):
        assert ce_input(np.array([1.0, 0.0, 0.0]), np.zeros(2), 5.0) == pytest.approx(5.0)

    def test_inverts_known_offset(self):
        assert ce_input(np.array([0.5, 1.0]), np.array([1.0]), 2.0) == pytest.approx(2.0)

    def test_divisor_safeguard_and_sign_convention(self):
        assert ce_input(np.array([0.0, 0.0]), np.zeros(1), 1.0, eps_b=1e-6, u_max=1e9) == pytest.approx(1e6)
        assert ce_input(np.array([-1e-9, 0.0]), np.zeros(1), 1.0, eps_b=1e-6, u_max=1e9) == pytest.approx(-1e6)

    def test_saturation(self):
        w = np.array([1e-3, 0.0])
        assert ce_input(w, np.zeros(1), 100.0, u_max=50.0) == 50.0
        assert ce_input(w, np.zeros(1), -100.0, u_max=50.0) == -50.0

    def test_zero_noise_closed_loop_is_exact(self):
        w = np.array([0.5, -1.41, 0.9])
        y = [0.0, 0.0]
        for k in range(1, 40):
            target = math.sin(0.2 * k)
            eta = np.array([y[-1], y[-2]])
            u = ce_input(w, eta, target)
            y_next = 0.5 * u - 1.41 * y[-1] + 0.9 * y[-2]
            assert y_next == pytest.approx(target, abs=1e-12)
            y.append(y_next)


# estimates and regressors with both zeros, divisors near and below eps_b, and non-finite entries
LAW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1e-6, -1e-6, math.inf, -math.inf, math.nan]),
    st.floats(-1e3, 1e3),
)


# a hypothesis whose peak density is 1.0: it scores a residual r as -2|r| with no rounding wherever 2r is exact
UNIT = AldParams(0.5, 0.0, 0.25)


def posterior_after(hyps, post, residuals):
    """The posteriors ``post`` (rows, S) after one Bayes step on ``residuals`` under ``hyps``, from a copy bound for
    it alone."""
    out = np.array(post, dtype=float)
    bind_posterior(hyps, out)(np.asarray(residuals, dtype=float))
    return out


def bayes_on_scores(post, log_lik):
    """``post`` after a Bayes update by the log-likelihoods ``log_lik``, with the Bayes step's ufuncs in its order."""
    post = post * np.exp(log_lik - np.maximum.reduce(log_lik, -1)[..., None])
    for _ in range(2):
        post = np.maximum(post / np.add.accumulate(post, -1)[..., -1:], POSTERIOR_FLOOR)
    return post


def scores(hyps, residuals):
    """Log-likelihoods of ``residuals`` (rows, S) under ``hyps``, read from the Bayes step's posteriors.

    Column j is scored beside :data:`UNIT` at its peak, log-density 0.0, from a uniform prior: the log of the
    ratio of the two posteriors is then the score, while neither reaches the floor (a score within about
    +-27 of 0).
    """
    residuals = np.asarray(residuals, dtype=float)
    columns = []
    for h, r in zip(hyps, residuals.T):
        post = posterior_after([h, UNIT], np.full((len(r), 2), 0.5), np.column_stack([r, np.zeros_like(r)]))
        assert np.all(post > POSTERIOR_FLOOR)
        columns.append(np.log(post[:, 0] / post[:, 1]))
    return np.column_stack(columns)


def log_lik(hyp, residual):
    return float(scores([hyp], [[residual]])[0, 0])


@st.composite
def scored_rows(draw):
    """Hypotheses (S = 1..3, mu anywhere in [-10, 10]) and a (rows, S) array of (r - mu)/sigma, rows = 1..130."""
    hyp = st.builds(AldParams, st.floats(0.01, 0.99), st.floats(-10.0, 10.0), st.floats(1e-3, 1e3))
    hyps = draw(st.lists(hyp, min_size=1, max_size=3))
    # bounded so that no posterior reaches the floor: every score lies in [-23.6, 5.6]
    t = draw(arrays(float, (draw(st.integers(1, 130)), len(hyps)), elements=st.floats(-12.0, 12.0)))
    return hyps, t


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
        # scaled so that no posterior reaches the floor
        residuals = rng.normal(size=(4, 3)) * [0.01, 1.0, 0.2]
        prior = np.full((4, 3), 1.0 / 3.0)
        stack = posterior_after(hyps, prior, residuals)
        alone = scores(hyps, residuals)
        for i, r in enumerate(residuals):
            # a row of the stack is the row bound alone, and its posteriors weigh each column by its own score
            assert same_bits(stack[i], posterior_after(hyps, prior[:1], r[None])[0])
            ratios = np.log(stack[i] / stack[i, 0])
            assert ratios == pytest.approx(alone[i] - alone[i, 0], rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(case=scored_rows())
    # a hypothesis located off 0 at its own peak, r = mu, and at r = 0
    @example(case=([AldParams(0.5, 0.3, 2.0)], np.array([[0.0], [-0.15]])))
    def test_value_is_the_log_density(self, case):
        hyps, t = case
        r = np.array([h.mu for h in hyps]) + t * np.array([h.sigma for h in hyps])
        want = np.column_stack([np.log(ald_pdf(h, r[:, j])) for j, h in enumerate(hyps)])
        # the absolute 1e-12 serves values near 0, where log(tau*(1-tau)/sigma) and the loss cancel
        assert scores(hyps, r) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        taus=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
        sigma=st.floats(1e-3, 1e3),
        rows=st.integers(1, 130),
        data=st.data(),
    )
    def test_at_zero_mu_it_is_the_sign_selected_slope_bit_for_bit(self, taus, sigma, rows, data):
        # |r| <= 15 sigma keeps every score in [-26.4, 5.6], so that no posterior reaches the floor
        t = data.draw(arrays(float, (rows, len(taus)), elements=st.floats(-15.0, 15.0)))
        for post in sign_selected_posteriors(taus, sigma, t * sigma):
            assert np.all(post > POSTERIOR_FLOOR)

    @pytest.mark.parametrize("r", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_at_zero_mu_it_is_the_sign_selected_slope_at_zero_and_non_finite_residuals(self, r):
        sign_selected_posteriors([0.5, 0.95, 0.01], 1e-3, np.full((2, 3), r))
        sign_selected_posteriors([0.3], 1e3, np.full((1, 1), r))


def sign_selected_posteriors(taus, sigma, r):
    """Each hypothesis (tau, 0, sigma) beside :data:`UNIT` at its peak, one Bayes step from a uniform prior on column
    j of ``r``: asserts the posteriors are, bit for bit, those of the form that took the filter's sign and picked
    tau - 1 or tau with np.where, and returns them."""
    posteriors = []
    for tau, col in zip(taus, np.asarray(r, dtype=float).T):
        prior, zeros = np.full((len(col), 2), 0.5), np.zeros_like(col)
        with np.errstate(all="ignore"):
            want = math.log(tau * (1.0 - tau) / sigma) - col * np.where(col < 0.0, tau - 1.0, tau) / sigma
            post = posterior_after([AldParams(tau, 0.0, sigma), UNIT], prior, np.column_stack([col, zeros]))
            assert same_bits(post, bayes_on_scores(prior, np.column_stack([want, zeros])))
        posteriors.append(post)
    return posteriors


class TestPosteriorUpdate:
    def test_equal_likelihoods_leave_posteriors(self):
        out = posterior_after([UNIT, UNIT], [[0.3, 0.7]], [[0.85, 0.85]])
        assert out[0] == pytest.approx([0.3, 0.7])

    def test_single_subsystem_stays_one(self):
        out = posterior_after([UNIT], [[1.0]], [[61.5]])
        assert out[0, 0] == 1.0

    def test_bayes_arithmetic_for_known_ratio(self):
        # residuals ln(2)*sigma/tau > 0 and 0 give a likelihood ratio of exactly 2
        hyp = AldParams(0.5, 0.0, 1.0)
        gap = math.log(2.0) / 0.5
        out = posterior_after([hyp, hyp], [[0.5, 0.5]], [[gap, 0.0]])
        assert out[0] == pytest.approx([1.0 / 3.0, 2.0 / 3.0])

    @pytest.mark.parametrize("shift", [8.0, -16.0, 0.5])
    def test_shift_invariance_is_bitwise(self, shift):
        # dyadic residuals at or above UNIT's location score -2r exactly, so moving every residual by -shift/2
        # shifts every log-likelihood by shift; with max-subtraction a common shift must not change a single bit
        residuals = np.array([[5.75, 4.0, 4.0625]])
        post = np.array([[0.25, 0.5, 0.25]])
        hyps = [UNIT] * 3
        shifted = posterior_after(hyps, post, residuals - shift / 2)
        assert np.array_equal(posterior_after(hyps, post, residuals), shifted)

    def test_floor_keeps_discredited_subsystem_alive(self):
        hyp = AldParams(0.5, 0.0, 0.01)
        out = posterior_after([hyp, hyp], [[0.5, 0.5]], [[0.0, -1e6]])
        assert out[0, 1] >= 1e-12
        assert math.fsum(out[0]) == pytest.approx(1.0, abs=1e-9)

    def test_posterior_rows_stay_on_simplex(self):
        # one Bayes step bound for the whole run, stepped in place as the episode loop does
        rng = np.random.default_rng(31)
        hyps = [AldParams(0.95, 0.0, 0.01), AldParams(0.85, 0.0, 0.1)]
        W = rng.normal(size=(2, 2))
        post = np.full((1, 2), 0.5)
        update = bind_posterior(hyps, post)
        for _ in range(200):
            x = rng.normal(size=2)
            z = float(rng.normal())
            update(np.array([[z - x @ w for w in W]]))
            assert abs(math.fsum(post[0]) - 1.0) <= 1e-9
            assert np.all(post >= 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-5e299, 5e299), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 3),
    )
    def test_simplex_and_floor_under_extreme_gaps(self, rows, n_sub):
        # under UNIT the log-likelihoods -2|r| lie anywhere in [-1e300, 0]
        post = np.full((1, n_sub), 1.0 / n_sub)
        update = bind_posterior([UNIT] * n_sub, post)
        for residual in rows:
            update(np.array([residual[:n_sub]]))
            assert abs(math.fsum(post[0]) - 1.0) <= 1e-9
            assert np.all(post >= 1e-12)


class TestEnsembleControl:
    def test_single_subsystem_equals_ce(self):
        w = np.array([0.5, -1.0])
        eta = np.array([2.0])
        assert bind_ensemble_law(np.array([1.0]), w[None, :], eta)(3.0) == pytest.approx(ce_input(w, eta, 3.0))

    def test_degenerate_posterior_selects_subsystem(self):
        W = np.array([[1.0, 0.0], [0.25, 0.0]])
        law = bind_ensemble_law(np.array([1.0 - 1e-12, 1e-12]), W, np.array([0.0]))
        assert law(2.0) == pytest.approx(2.0, abs=1e-9)

    def test_weighted_sum(self):
        # laws produce u = 2 and u = 4 for the same target
        W = np.array([[1.0, 0.0], [0.5, 0.0]])
        assert bind_ensemble_law(np.array([0.5, 0.5]), W, np.array([0.0]))(2.0) == pytest.approx(3.0)

    def test_linear_in_posterior(self):
        # one law bound for every draw: it reads the posteriors written in place
        rng = np.random.default_rng(37)
        W = rng.normal(size=(3, 3)) + np.array([1.0, 0, 0])
        eta = rng.normal(size=2)
        laws = [ce_input(w, eta, 1.3) for w in W]
        p = np.empty(3)
        law = bind_ensemble_law(p, W, eta)
        for _ in range(25):
            p[...] = rng.dirichlet(np.ones(3))
            assert law(1.3) == pytest.approx(float(p @ laws))

    def test_saturated_laws_can_pass_u_max_by_the_rounding_of_the_posterior_sum(self):
        # every law is clamped to +-u_max, their posterior-weighted sum is not: these
        # posteriors of bind_posterior sum to one only within rounding
        post = np.full((1, 2), 0.5)
        # log-likelihoods 0.0 and -0.2 under UNIT
        bind_posterior([UNIT, UNIT], post)(np.array([[0.0, 0.1]]))
        W = np.array([[[1e-9, 0.0], [1e-9, 0.0]]])  # |b1| < eps_b: each divisor is eps_b, each law saturates
        law = bind_ensemble_law(post, W, np.zeros((1, 1)), 1e-6, 1000.0)
        bound = 1000.0 * (1.0 + 2 * post.shape[1] * np.finfo(float).eps)
        for y_r_next, u in ((1.0, 1000.0000000000001), (-1.0, -1000.0000000000001)):
            assert law(np.array(y_r_next))[0] == u
            assert abs(u) <= bound


class TestOracleControl:
    def test_matches_ce_at_true_parameters(self):
        # base plant: m = 1, n = 2, so the oracle's regressor at step k is [y(k), y(k-1)]
        cfg = replace(preset_config("base"), controller="oracle", steps=60)
        tr = run_episode(cfg)
        w = parameter_vector(cfg.plant)
        for i in range(1, cfg.steps - 1):
            assert tr.u[i] == ce_input(w, np.array([tr.y[i], tr.y[i - 1]]), tr.y_r[i + 1])


class TestEnsembleCollapse:
    def test_matching_hypothesis_wins_posterior(self):
        # s = 2 well separated hypotheses; the true noise equals the first one.
        # The 50 seeds step as one (50, 2) bank.
        truth = AldParams(0.95, 0.0, 0.01)
        hyps = (truth, AldParams(0.85, 0.0, 0.1))
        w_true = np.array([0.5, -1.41, 0.9])
        seeds, steps = 50, 500
        xs, zs = np.empty((steps, seeds, 3)), np.empty((steps, seeds))
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            for k in range(steps):
                x = rng.normal(size=3)
                xs[k, seed] = x
                zs[k, seed] = float(x @ w_true + ald_sample(truth, rng))
        W = np.zeros((seeds, 2, 3))
        P = np.tile(100.0 * np.eye(3), (seeds, 2, 1, 1))
        post = np.full((seeds, 2), 0.5)
        x_k = np.zeros((seeds, 1, 3))
        step, update = bind_filter(W, P, x_k, quantile_rule(hyps)), bind_posterior(hyps, post)
        for x, z in zip(xs, zs):
            x_k[:, 0] = x
            update(step(z[:, None]))
        assert np.median(post[:, 0]) > 0.9


def same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same places and every other entry the same bits, so that -0.0 is not 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes()
    )


# both zeros, both infinities and NaN beside ordinary values
SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
HYPOTHESES = st.builds(
    AldParams, st.floats(0.01, 0.99), st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0), st.floats(1e-3, 1e3)
)
# a law's constants: a divisor floor that b1 values of LAW_VALUES fall below, and bounds that saturate or never do
EPS_B, U_MAX = st.sampled_from([1e-6, 0.5]), st.sampled_from([1e3, 1.0, math.inf])
# the banks the one-row step serves, which is every S: from 8 on np.add.reduce would sum pairwise
N_SUB = st.integers(1, 12)
# what the episode loop's posteriors hold: every entry at least the floor, or NaN
POSTERIORS = st.sampled_from([POSTERIOR_FLOOR, 1.0, math.nan]) | st.floats(POSTERIOR_FLOOR, 1.0)


VALUES = LAW_VALUES | st.floats(-1e300, 1e300)


def stack_and_row(data, shape, elements=VALUES):
    """A stack of 2..4 rows of ``shape`` drawn from ``elements``, and the index of one of its rows."""
    rows = data.draw(st.integers(2, 4))
    return data.draw(arrays(float, (rows, *shape), elements=elements)), data.draw(st.integers(0, rows - 1))


class TestOneRowStep:
    """The episode loop's one-row step on Python floats gives the bits of the row within a stack of array steps."""

    @settings(max_examples=150, deadline=None)
    @given(n_sub=N_SUB, data=st.data())
    def test_bayes(self, n_sub, data):
        hyps = data.draw(st.lists(HYPOTHESES, min_size=n_sub, max_size=n_sub))
        post, i = stack_and_row(data, (n_sub,), POSTERIORS)
        row = post[i : i + 1].copy()
        bayes, _ = _bind_one_row(hyps, row, np.zeros((1, n_sub, 1)), np.zeros((1, 0)), 1e-6, 1e3)
        update = bind_posterior(hyps, post)
        for _ in range(data.draw(st.integers(1, 3))):
            residual = data.draw(arrays(float, post.shape, elements=VALUES))
            with np.errstate(all="ignore"):
                bayes(residual[i : i + 1])
                update(residual)
            assert same_bits(row, post[i : i + 1])

    @settings(max_examples=150, deadline=None)
    @given(n_sub=N_SUB, d=st.integers(1, 4), eps_b=EPS_B, u_max=U_MAX, data=st.data())
    def test_law(self, n_sub, d, eps_b, u_max, data):
        W, i = stack_and_row(data, (n_sub, d))
        eta = data.draw(arrays(float, (len(W), d - 1), elements=LAW_VALUES))
        # one subsystem's posterior is the constant the loop holds, 1.0
        post = np.ones((len(W), 1)) if n_sub == 1 else data.draw(arrays(float, (len(W), n_sub), elements=POSTERIORS))
        rows = post[i : i + 1], W[i : i + 1], eta[i : i + 1]
        _, law = _bind_one_row([AldParams(0.5, 0.0, 1.0)] * n_sub, *rows, eps_b, u_max)
        stacked = bind_ensemble_law(post, W, eta, eps_b, u_max)
        # the loop passes the reference as a Python float to either law
        y_r = data.draw(SPECIAL | st.floats(-1e6, 1e6))
        with np.errstate(all="ignore"):
            u = law(y_r)
            assert type(u) is float
            assert same_bits([u], stacked(y_r)[i : i + 1])

    def test_one_subsystem_keeps_the_sign_of_a_zero_input(self):
        # a sum from +0.0 would give +0.0: the left fold of one input at posterior 1.0 is the input itself
        W, eta = np.array([[[1.0, 0.0]]]), np.zeros((1, 1))
        _, law = _bind_one_row([AldParams(0.5, 0.0, 1.0)], np.ones((1, 1)), W, eta, 1e-6, 1e3)
        assert math.copysign(1.0, law(-0.0)) == -1.0
        assert same_bits([law(-0.0)], ce_law(W[:, 0], eta)(-0.0))
        # and so does every row of a stack
        stack = bind_ensemble_law(np.ones((3, 1)), np.tile(W, (3, 1, 1)), np.zeros((3, 1)))(-0.0)
        assert same_bits(stack, np.full(3, -0.0))

    @pytest.mark.parametrize("n_sub", [3, 9], ids=["3-terms", "9-terms"])
    def test_a_sum_of_negative_zeros_is_negative_zero(self, n_sub):
        # every input is -0.0 and every weight positive, so every weighted input is -0.0;
        # numpy's reduce from +0.0 gave +0.0, and so did a fold from +0.0
        W, eta = np.tile([1.0, 0.0], (1, n_sub, 1)), np.zeros((1, 1))
        post = np.full((1, n_sub), 1.0 / n_sub)
        assert same_bits(bind_ensemble_law(post, W, eta)(-0.0), np.array([-0.0]))
        _, law = _bind_one_row([AldParams(0.5, 0.0, 1.0)] * n_sub, post, W, eta, 1e-6, 1e3)
        assert same_bits([law(-0.0)], np.array([-0.0]))

    def test_a_sum_of_three_folds_left_as_numpy_does(self):
        # (0.1 + 0.2) + 0.3 is 0.6000000000000001 and 0.1 + (0.2 + 0.3) is 0.6
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        weights = np.array([[0.1, 0.2, 0.3], [0.5, 0.25, 0.25]])
        row, stack = weights[:1].copy(), weights.copy()
        # every law gives 1.0, so the ensemble input is the sum of the weights
        W, eta = np.zeros((2, 3, 2)), np.zeros((2, 1))
        W[..., 0] = 1.0
        # equal residuals under equal hypotheses leave the priors as the products the posterior step sums
        hyps = [AldParams(0.5, 0.0, 1.0)] * 3
        bayes, _ = _bind_one_row(hyps, row, W[:1], eta[:1], 1e-6, 1e3)
        bayes(np.zeros((1, 3)))
        bind_posterior(hyps, stack)(np.zeros((2, 3)))

        def normalized(p, total):
            for _ in range(2):
                p_sum = total(p)
                p = [max(v / p_sum, POSTERIOR_FLOOR) for v in p]
            return p

        left = normalized([0.1, 0.2, 0.3], lambda p: (p[0] + p[1]) + p[2])
        assert left != normalized([0.1, 0.2, 0.3], lambda p: p[0] + (p[1] + p[2]))
        assert row.tolist() == [left] and same_bits(row, stack[:1])
        _, law = _bind_one_row(hyps, weights[:1], W[:1], eta[:1], 1e-6, 1e3)
        one = law(1.0)
        assert one == 0.6000000000000001 and same_bits([one], bind_ensemble_law(weights, W, eta)(1.0)[:1])


def order_sensitive_rows(n_sub: int, rows: int = 500) -> np.ndarray:
    """(rows, n_sub) terms whose sums depend on their order: magnitudes 1 and 1e+-300 of either sign,
    about 5% of them +-0.0, +-inf or NaN, and the first rows all -0.0."""
    rng = np.random.default_rng(n_sub)
    v = rng.normal(size=(rows, n_sub)) * 10.0 ** rng.choice([-300, 0, 0, 0, 300], size=(rows, n_sub))
    special = rng.random((rows, n_sub)) < 0.05
    v[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], size=special.sum())
    v[:5] = -0.0
    return v


class TestSummationOrder:
    """Every sum over the subsystems is a left fold, so the array steps' sums are ``_fold``'s bits for any S."""

    @pytest.mark.parametrize("n_sub", range(1, 18))
    def test_the_law_sums_left_to_right(self, n_sub):
        weights = order_sensitive_rows(n_sub)
        # every input is 1.0, so each weighted input is its weight bit for bit
        W, eta = np.zeros((len(weights), n_sub, 2)), np.zeros((len(weights), 1))
        W[..., 0] = 1.0
        with np.errstate(all="ignore"):
            u = bind_ensemble_law(weights, W, eta, 1e-6, math.inf)(1.0)
        assert same_bits(u, [_fold(row) for row in weights.tolist()])

    @pytest.mark.parametrize("n_sub", range(1, 18))
    def test_the_posterior_total_sums_left_to_right(self, n_sub):
        post = order_sensitive_rows(n_sub)
        expected = post.copy()
        with np.errstate(all="ignore"):
            for row in expected:
                for _ in range(2):
                    row[...] = np.maximum(row / _fold(row.tolist()), POSTERIOR_FLOOR)
            # equal residuals under equal hypotheses multiply every entry by exp(0.0) = 1.0, so only the
            # renormalization acts
            bind_posterior([AldParams(0.5, 0.0, 1.0)] * n_sub, post)(np.zeros(post.shape))
        assert same_bits(post, expected)


@pytest.mark.parametrize(
    "bind",
    [
        lambda post, W, eta: bind_posterior([AldParams(0.5, 0.0, 1.0)] * 3, post),
        lambda post, W, eta: bind_ensemble_law(post, W, eta),
    ],
    ids=["bind_posterior", "bind_ensemble_law"],
)
def test_a_public_binder_has_one_step_for_every_row_count(bind):
    # the one-row step is chosen by the episode loop alone, never by a binder from its shapes
    one, three = (bind(np.full((rows, 3), 1.0 / 3.0), np.ones((rows, 3, 3)), np.zeros((rows, 2))) for rows in (1, 3))
    assert one.__code__ is three.__code__
