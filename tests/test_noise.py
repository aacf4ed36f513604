import math

import numpy as np
import pytest
from scipy.integrate import quad

from aldcontrol import (
    AldParams,
    GaussianParams,
    MixtureComponent,
    NoiseModel,
    ald_mean,
    ald_pdf,
    ald_sample,
    mixture_pdf,
    mixture_sample,
    pinball_loss,
)

BASE_MIXTURE = NoiseModel(
    (
        MixtureComponent(0.8, AldParams(0.95, 0.0, 0.01)),
        MixtureComponent(0.2, AldParams(0.85, 0.0, 0.01)),
    )
)


def quad_total(pdf, mu):
    lo, _ = quad(pdf, -np.inf, mu)
    hi, _ = quad(pdf, mu, np.inf)
    return lo + hi


def quad_mean(pdf, mu):
    lo, _ = quad(lambda x: x * pdf(x), -np.inf, mu)
    hi, _ = quad(lambda x: x * pdf(x), mu, np.inf)
    return lo + hi


class TestAldPdf:
    def test_peak_value_symmetric(self):
        assert ald_pdf(AldParams(0.5, 0.0, 1.0), 0.0) == pytest.approx(0.25)

    def test_symmetry_at_half(self):
        p = AldParams(0.5, 0.0, 1.0)
        for a in (0.1, 0.7, 2.5, 10.0):
            assert ald_pdf(p, a) == pytest.approx(ald_pdf(p, -a))

    def test_sharp_skewed_peak_normalizes(self):
        p = AldParams(0.95, 0.0, 0.01)
        assert ald_pdf(p, 0.0) == pytest.approx(4.75)
        assert quad_total(lambda x: ald_pdf(p, x), p.mu) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.05, 0.5, 0.85, 0.95])
    @pytest.mark.parametrize("sigma", [0.01, 1.0, 2.0])
    def test_normalization_and_location_mass(self, tau, sigma):
        p = AldParams(tau, 0.0, sigma)
        assert quad_total(lambda x: ald_pdf(p, x), p.mu) == pytest.approx(1.0, abs=1e-6)
        below, _ = quad(lambda x: ald_pdf(p, x), -np.inf, p.mu)
        assert below == pytest.approx(tau, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        p = AldParams(0.85, 0.5, 0.3)
        xs = np.linspace(-3, 3, 11)
        assert np.allclose(ald_pdf(p, xs), [ald_pdf(p, float(x)) for x in xs])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AldParams(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            AldParams(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            AldParams(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            AldParams(0.5, math.nan, 1.0)


class TestAldMean:
    def test_symmetric_mean_is_location(self):
        assert ald_mean(AldParams(0.5, 0.0, 1.0)) == 0.0

    @pytest.mark.parametrize(
        "params,expected",
        [
            (AldParams(0.95, 0.0, 0.01), -0.18947368421052632),
            (AldParams(0.85, 2.0, 0.01), 1.9450980392156863),
        ],
    )
    def test_skewed_means_match_quadrature(self, params, expected):
        assert ald_mean(params) == pytest.approx(expected, abs=1e-12)
        numeric = quad_mean(lambda x: ald_pdf(params, x), params.mu)
        assert ald_mean(params) == pytest.approx(numeric, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.05, 0.5, 0.85, 0.95])
    @pytest.mark.parametrize("sigma", [0.01, 1.0, 2.0])
    def test_mean_formula_vs_quadrature(self, tau, sigma):
        p = AldParams(tau, -0.3, sigma)
        numeric = quad_mean(lambda x: ald_pdf(p, x), p.mu)
        assert ald_mean(p) == pytest.approx(numeric, abs=1e-6)


class TestAldSampling:
    def test_location_splits_mass_at_tau(self):
        p = AldParams(0.95, 0.0, 0.01)
        rng = np.random.default_rng(7)
        draws = ald_sample(p, rng, 1_000_000)
        assert np.mean(draws < p.mu) == pytest.approx(0.95, abs=0.002)

    def test_symmetric_sample_mean(self):
        p = AldParams(0.5, 0.0, 1.0)
        rng = np.random.default_rng(11)
        draws = ald_sample(p, rng, 1_000_000)
        assert np.mean(draws) == pytest.approx(0.0, abs=0.01)

    @pytest.mark.parametrize("params", [AldParams(0.95, 0.0, 0.01), AldParams(0.85, 2.0, 0.5)])
    def test_law_of_large_numbers(self, params):
        rng = np.random.default_rng(13)
        draws = ald_sample(params, rng, 1_000_000)
        tol = 5.0 * np.std(draws) / 1e3
        assert np.mean(draws) == pytest.approx(ald_mean(params), abs=tol)

    def test_identical_seeds_identical_draws(self):
        p = AldParams(0.85, 0.0, 2.0)
        a = ald_sample(p, np.random.default_rng(3), 1000)
        b = ald_sample(p, np.random.default_rng(3), 1000)
        assert np.array_equal(a, b)
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        assert [ald_sample(p, r1) for _ in range(50)] == [ald_sample(p, r2) for _ in range(50)]


class TopOfUnitRng:
    """Stub generator: every uniform is the largest float below 1, the exponentials count 1, 2, ...; records calls."""

    def __init__(self):
        self.calls = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return np.full(size if size is not None else (), np.nextafter(1.0, 0.0))

    def exponential(self, scale=1.0, size=None):
        self.calls.append(("exponential", size))
        return scale * (np.arange(1.0, size + 1.0) if size is not None else 1.0)


class TestMixture:
    def test_single_component_pdf_equals_component(self):
        p = AldParams(0.85, 0.0, 0.5)
        m = NoiseModel((MixtureComponent(1.0, p),))
        xs = np.linspace(-4, 4, 21)
        assert np.allclose(mixture_pdf(m, xs), ald_pdf(p, xs))
        rng = np.random.default_rng(17)
        draws = mixture_sample(m, rng, 200_000)
        assert np.mean(draws < p.mu) == pytest.approx(0.85, abs=0.005)
        assert np.mean(draws) == pytest.approx(ald_mean(p), abs=5 * np.std(draws) / math.sqrt(2e5))

    def test_equal_weight_identical_components(self):
        p = AldParams(0.95, 0.0, 0.01)
        m = NoiseModel((MixtureComponent(0.5, p), MixtureComponent(0.5, p)))
        xs = np.linspace(-1, 1, 9)
        assert np.allclose(mixture_pdf(m, xs), ald_pdf(p, xs))

    def test_base_mixture_peak_value(self):
        # 0.8 * 4.75 + 0.2 * (0.85 * 0.15 / 0.01)
        assert mixture_pdf(BASE_MIXTURE, 0.0) == pytest.approx(6.35)
        assert quad_total(lambda x: mixture_pdf(BASE_MIXTURE, x), 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_base_mixture_sample_mean(self):
        rng = np.random.default_rng(19)
        draws = mixture_sample(BASE_MIXTURE, rng, 1_000_000)
        expected = 0.8 * quad_mean(
            lambda x: ald_pdf(AldParams(0.95, 0.0, 0.01), x), 0.0
        ) + 0.2 * quad_mean(lambda x: ald_pdf(AldParams(0.85, 0.0, 0.01), x), 0.0)
        assert np.mean(draws) == pytest.approx(expected, abs=0.01)

    def test_gaussian_outlier_tail_fraction(self):
        m = NoiseModel(
            (
                MixtureComponent(0.99, AldParams(0.95, 0.0, 0.01)),
                MixtureComponent(0.01, GaussianParams(0.0, 2.0)),
            )
        )
        rng = np.random.default_rng(23)
        draws = mixture_sample(m, rng, 1_000_000)
        # tail integration of both components: the skewed component's long
        # lower tail (scale sigma/(1-tau) = 0.2) is not negligible at |x| > 1
        ald_tail = 0.95 * math.exp(-0.05 * 1.0 / 0.01) + 0.05 * math.exp(-0.95 * 1.0 / 0.01)
        gauss_tail = math.erfc(1.0 / math.sqrt(2.0 * 2.0))
        expected = 0.99 * ald_tail + 0.01 * gauss_tail
        assert np.mean(np.abs(draws) > 1.0) == pytest.approx(expected, abs=0.003)

    def test_vectorized_draw_above_a_rounded_total_weight_uses_the_last_component(self):
        # ten weights of 0.1 sum to 0.9999999999999999, so a uniform just below 1 lies above every edge
        m = NoiseModel(tuple(MixtureComponent(0.1, AldParams(0.5, float(i), 1.0)) for i in range(10)))
        assert np.cumsum([c.weight for c in m.components])[-1] < 1.0
        rng = TopOfUnitRng()
        out = mixture_sample(m, rng, 3)
        # each entry is its own draw of the last component: mu + e*sigma/tau above the location
        assert out.tolist() == [11.0, 13.0, 15.0]
        assert all(size == 3 for _, size in rng.calls)

    def test_weight_validation(self):
        p = AldParams(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            NoiseModel((MixtureComponent(0.6, p), MixtureComponent(0.399, p)))
        with pytest.raises(ValueError):
            MixtureComponent(0.0, p)
        with pytest.raises(ValueError):
            NoiseModel(())

    @pytest.mark.parametrize(
        "components",
        [
            ((0.8, AldParams(0.95, 0.0, 0.01)), (0.2, AldParams(0.85, 0.0, 0.01))),
            ((0.99, AldParams(0.95, 0.0, 0.01)), (0.01, AldParams(0.85, 2.0, 0.01))),
            ((0.99, AldParams(0.95, 0.0, 0.01)), (0.01, AldParams(0.85, 0.0, 2.0))),
            ((0.99, AldParams(0.95, 0.0, 0.01)), (0.01, GaussianParams(2.0, 0.01))),
            ((0.99, AldParams(0.95, 0.0, 0.01)), (0.01, GaussianParams(0.0, 2.0))),
        ],
        ids=["base", "noise1", "noise2", "noise3", "noise4"],
    )
    def test_scenario_mixtures_normalize(self, components):
        m = NoiseModel(tuple(MixtureComponent(w, d) for w, d in components))
        locations = sorted(
            {d.mu if isinstance(d, AldParams) else d.mean for _, d in components}
        )
        pieces = [-np.inf, *locations, np.inf]
        total = sum(
            quad(lambda x: mixture_pdf(m, x), a, b)[0] for a, b in zip(pieces, pieces[1:])
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestPinballLoss:
    @pytest.mark.parametrize(
        "tau,u,expected",
        [(0.5, 2.0, 1.0), (0.9, 1.0, 0.9), (0.9, -1.0, 0.1)],
    )
    def test_values(self, tau, u, expected):
        assert pinball_loss(tau, u) == pytest.approx(expected)

    def test_zero_only_at_zero(self):
        assert pinball_loss(0.7, 0.0) == 0.0
        for u in (-2.0, -1e-9, 1e-9, 3.0):
            assert pinball_loss(0.7, u) > 0.0

    def test_convexity_on_grid(self):
        rng = np.random.default_rng(29)
        for tau in (0.05, 0.5, 0.9):
            for _ in range(200):
                u, v = rng.uniform(-5, 5, size=2)
                lam = rng.uniform()
                mix = pinball_loss(tau, lam * u + (1 - lam) * v)
                assert mix <= lam * pinball_loss(tau, u) + (1 - lam) * pinball_loss(tau, v) + 1e-12

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            pinball_loss(0.0, 1.0)
        with pytest.raises(ValueError):
            pinball_loss(1.0, 1.0)
