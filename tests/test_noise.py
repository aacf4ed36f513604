import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from aldcontrol import (
    AldParams,
    GaussianParams,
    MixtureComponent,
    NoiseModel,
    ald_mean,
    mixture_sample,
)
from aldcontrol.noise import _sampler
from reference import ald_pdf, ald_sample, gaussian_pdf, gaussian_sample, mixture_pdf, pinball_loss

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


GAUSSIANS = [GaussianParams(0.0, 1.0), GaussianParams(2.0, 0.01), GaussianParams(-1.5, 4.0)]


class TestGaussianPdf:
    @pytest.mark.parametrize("g", GAUSSIANS)
    def test_peak_value(self, g):
        assert gaussian_pdf(g, g.mean) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * g.variance), rel=1e-15)

    @pytest.mark.parametrize("g", GAUSSIANS)
    def test_symmetric_about_the_mean(self, g):
        for a in (0.05, 0.7, 2.5, 10.0):
            assert gaussian_pdf(g, g.mean + a) == pytest.approx(gaussian_pdf(g, g.mean - a), rel=1e-12)

    @pytest.mark.parametrize("g", GAUSSIANS)
    def test_normalizes(self, g):
        assert quad_total(lambda x: gaussian_pdf(g, x), g.mean) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("g", GAUSSIANS)
    def test_matches_scipy(self, g):
        xs = g.mean + math.sqrt(g.variance) * np.linspace(-8.0, 8.0, 101)
        want = norm.pdf(xs, loc=g.mean, scale=math.sqrt(g.variance))
        assert np.allclose(gaussian_pdf(g, xs), want, rtol=1e-14, atol=0.0)


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

    def standard_exponential(self, size=None):
        self.calls.append(("standard_exponential", size))
        return np.arange(1.0, size + 1.0) if size is not None else 1.0


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


def reference_draw(m: NoiseModel, rng) -> float:
    """One scalar mixture draw as a plain loop: a uniform picks the first
    component whose running weight sum exceeds it (else the last), then that
    component draws a uniform and an exponential (ALD) or a normal."""
    v = rng.random()
    acc = 0.0
    comp = m.components[-1]
    for c in m.components:
        acc += c.weight
        if v < acc:
            comp = c
            break
    d = comp.dist
    if isinstance(d, GaussianParams):
        return d.mean + math.sqrt(d.variance) * rng.standard_normal()
    u = rng.random()
    e = rng.exponential(1.0)
    if u < d.tau:
        return d.mu - e * d.sigma / (1.0 - d.tau)
    return d.mu + e * d.sigma / d.tau


def reference_block(m: NoiseModel, rng, size) -> np.ndarray:
    """``size`` mixture draws as plain loops: first every uniform that picks a
    component, then a block of ``size`` draws from each component in order
    (uniforms then exponentials for an ALD, normals for a Gaussian); each
    entry takes the first component whose running weight sum exceeds its
    uniform, else the last."""
    v = rng.random(size)
    blocks = []
    for c in m.components:
        d = c.dist
        if isinstance(d, GaussianParams):
            blocks.append(rng.standard_normal(size))
        else:
            blocks.append((rng.random(size), rng.exponential(1.0, size)))
    out = np.empty(v.shape)
    for i in np.ndindex(v.shape):
        acc, pick = 0.0, len(m.components) - 1
        for j, c in enumerate(m.components):
            acc += c.weight
            if float(v[i]) < acc:
                pick = j
                break
        d = m.components[pick].dist
        if isinstance(d, GaussianParams):
            out[i] = d.mean + math.sqrt(d.variance) * float(blocks[pick][i])
            continue
        u, e = float(blocks[pick][0][i]), float(blocks[pick][1][i])
        out[i] = d.mu - e * d.sigma / (1.0 - d.tau) if u < d.tau else d.mu + e * d.sigma / d.tau
    return out


SCALAR_MIXTURES = {
    "ald": NoiseModel((MixtureComponent(1.0, AldParams(0.85, 0.3, 0.5)),)),
    "gaussian": NoiseModel((MixtureComponent(1.0, GaussianParams(-1.0, 2.0)),)),
    "three": NoiseModel(
        (
            MixtureComponent(0.6, AldParams(0.95, 0.0, 0.01)),
            MixtureComponent(0.3, GaussianParams(2.0, 0.01)),
            MixtureComponent(0.1, AldParams(0.5, -1.0, 2.0)),
        )
    ),
    # the weights sum to 1 - 1e-13: the last component takes the remainder
    "short": NoiseModel(
        (
            MixtureComponent(0.5, AldParams(0.95, 0.0, 0.01)),
            MixtureComponent(0.3, GaussianParams(0.0, 2.0)),
            MixtureComponent(0.2 - 1e-13, AldParams(0.85, 2.0, 0.01)),
        )
    ),
}


class ScalarTopOfUnitRng:
    """Stub scalar generator: every uniform is the largest float below 1, every exponential and normal 1.5."""

    def random(self):
        return float(np.nextafter(1.0, 0.0))

    def exponential(self, scale):
        return scale * 1.5

    def standard_exponential(self):
        return 1.5

    def standard_normal(self, size=None):
        return 1.5


class TestBoundSampler:
    @pytest.mark.parametrize("name", SCALAR_MIXTURES)
    def test_draws_equal_the_reference_loop_bit_for_bit(self, name):
        # 10^5 draws reach the ziggurat's rare branch of the exponential and normal draws
        m, n = SCALAR_MIXTURES[name], 100_000
        ours, ref = np.random.default_rng(31), np.random.default_rng(31)
        draw = _sampler(m, ours)
        got = np.array([draw() for _ in range(n)])
        assert got.tobytes() == np.array([reference_draw(m, ref) for _ in range(n)]).tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
        # the public scalar draw takes the same path
        assert [mixture_sample(m, ours) for _ in range(1000)] == [reference_draw(m, ref) for _ in range(1000)]

    def test_component_draws_equal_the_reference_loop(self):
        ours, ref = np.random.default_rng(37), np.random.default_rng(37)
        for c in SCALAR_MIXTURES["three"].components:
            alone = NoiseModel((MixtureComponent(1.0, c.dist),))
            sample = ald_sample if isinstance(c.dist, AldParams) else gaussian_sample
            for _ in range(1000):
                ours.random()  # the reference's pick of its only component
                assert sample(c.dist, ours) == reference_draw(alone, ref)

    def test_draw_above_a_rounded_total_weight_uses_the_last_component(self):
        m = SCALAR_MIXTURES["short"]
        last = m.components[-1].dist
        expected = last.mu + 1.5 * last.sigma / last.tau  # above the location, since the uniform exceeds tau
        assert _sampler(m, ScalarTopOfUnitRng())() == reference_draw(m, ScalarTopOfUnitRng()) == expected

    def test_one_value_draws_are_python_floats(self):
        rng, m = np.random.default_rng(43), SCALAR_MIXTURES["three"]
        assert type(mixture_sample(m, rng)) is float
        for c in m.components:
            sample = ald_sample if isinstance(c.dist, AldParams) else gaussian_sample
            assert type(sample(c.dist, rng)) is float


BLOCK_SIZES = [0, 1, 7, (3, 4), 100_000]


def assert_same_block(got, want, ours, ref):
    assert got.shape == want.shape and got.dtype == want.dtype == float
    assert got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == ref.bit_generator.state


COMPONENT = st.one_of(
    st.builds(AldParams, st.floats(0.01, 0.99), st.floats(-5.0, 5.0), st.floats(1e-3, 10.0)),
    st.builds(GaussianParams, st.floats(-5.0, 5.0), st.floats(1e-3, 10.0)),
)


class TestBlockDraws:
    @pytest.mark.parametrize("size", BLOCK_SIZES, ids=str)
    @pytest.mark.parametrize("name", SCALAR_MIXTURES)
    def test_mixture_blocks_equal_the_reference_bit_for_bit(self, name, size):
        m = SCALAR_MIXTURES[name]
        ours, ref = np.random.default_rng(47), np.random.default_rng(47)
        assert_same_block(mixture_sample(m, ours, size), reference_block(m, ref, size), ours, ref)

    @pytest.mark.parametrize("size", BLOCK_SIZES, ids=str)
    def test_component_blocks_equal_the_reference_bit_for_bit(self, size):
        ours, ref = np.random.default_rng(53), np.random.default_rng(53)
        for c in SCALAR_MIXTURES["three"].components:
            alone = NoiseModel((MixtureComponent(1.0, c.dist),))
            sample = ald_sample if isinstance(c.dist, AldParams) else gaussian_sample
            ours.random(size)  # the reference's pick of its only component
            assert_same_block(sample(c.dist, ours, size), reference_block(alone, ref, size), ours, ref)

    @settings(max_examples=100, deadline=None)
    @given(
        dists=st.lists(COMPONENT, min_size=1, max_size=5),
        data=st.data(),
        size=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_mixture_blocks_equal_the_reference(self, dists, data, size, seed):
        raw = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(dists), max_size=len(dists)))
        total = math.fsum(raw)
        m = NoiseModel(tuple(MixtureComponent(w / total, d) for w, d in zip(raw, dists)))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_block(mixture_sample(m, ours, size), reference_block(m, ref, size), ours, ref)
