import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from aldcontrol import (
    AldParams,
    ArxParams,
    MixtureComponent,
    NoiseModel,
    TrajectorySpec,
    bind_ensemble_law,
    bind_plant,
    mixture_sample,
    parameter_vector,
    preset_config,
    reference_trajectory,
    run_episode,
)
from reference import ald_pdf

PLANT = ArxParams(a=np.array([-1.41, 0.9]), b=np.array([0.5]))


class TestArxParams:
    def test_orders_and_parameter_vector(self):
        assert (PLANT.n, PLANT.m, PLANT.d) == (2, 1, 3)
        assert np.allclose(parameter_vector(PLANT), [0.5, -1.41, 0.9])

    def test_leading_coefficient_must_be_nonzero(self):
        with pytest.raises(ValueError):
            ArxParams(a=np.array([0.1]), b=np.array([0.0]))
        with pytest.raises(ValueError):
            ArxParams(a=np.array([0.1]), b=np.array([]))

    @pytest.mark.parametrize(
        "a, b",
        [
            # a (1, 2) a was accepted and broadcast through the plant's vecdot
            ([[-1.41, 0.9]], [0.5]),
            # a (1, 2) b failed on numpy's "truth value ... is ambiguous"
            ([-1.41, 0.9], [[0.5, 0.1]]),
        ],
    )
    def test_coefficients_must_be_one_dimensional(self, a, b):
        with pytest.raises(ValueError, match="plant coefficients a and b must be one-dimensional"):
            ArxParams(a=a, b=b)

    def test_coefficients_are_read_only_copies(self):
        a, b = np.array([-1.41, 0.9]), np.array([0.5])
        p = ArxParams(a=a, b=b)
        a[0] = 5.0
        b[0] = 2.0
        assert p.a == (-1.41, 0.9) and p.b == (0.5,)
        assert all(type(v) is float for v in p.a + p.b)
        with pytest.raises(TypeError):
            p.a[0] = 1.0
        with pytest.raises(TypeError):
            p.b[0] = 1.0

    def test_value_equality_and_hash(self):
        twin = ArxParams(a=[-1.41, 0.9], b=(0.5,))
        assert twin == PLANT and hash(twin) == hash(PLANT)
        assert ArxParams(a=[-1.41, 0.8], b=[0.5]) != PLANT
        assert ArxParams(a=[-1.41], b=[0.5, 0.9]) != PLANT
        assert PLANT != (PLANT.a, PLANT.b)
        assert len({PLANT, twin}) == 1


class TestPlantStep:
    def test_zero_state_zero_input(self):
        assert bind_plant(PLANT, np.zeros(1), np.zeros(2))() == 0.0

    def test_input_gain_from_rest(self):
        y_hist = np.zeros(2)
        y = bind_plant(PLANT, np.array([2.0]), y_hist)()
        assert y == pytest.approx(1.0)
        assert y_hist.tolist() == [0.0, 0.0]  # the history is the caller's to shift

    def test_autoregressive_response(self):
        y = bind_plant(PLANT, np.zeros(1), np.array([1.0, 0.0]))()
        assert y == pytest.approx(-1.41)

    def test_superposition(self):
        rng = np.random.default_rng(5)
        u1, u2 = rng.normal(size=20), rng.normal(size=20)

        def response(us):
            # one plant bound for the run: it reads each input and output written in place
            u_now, y_hist = np.zeros(1), np.zeros(2)
            step = bind_plant(PLANT, u_now, y_hist)
            ys = []
            for u in us:
                u_now[0] = u
                ys.append(step())
                y_hist[1:] = y_hist[:-1].copy()
                y_hist[0] = ys[-1]
            return np.array(ys)

        assert np.allclose(response(u1 + u2), response(u1) + response(u2), atol=1e-12)

    def test_measurement_history_shifts(self):
        # under measurement feedback the oracle's regressor at step k is
        # [z(k), z(k-1)], so each input pins the shifted measurement history
        cfg = replace(preset_config("base"), controller="oracle", feedback="measurement", steps=60)
        tr = run_episode(cfg)
        # the certainty-equivalence law: the ensemble law of one subsystem at posterior 1.0
        W = parameter_vector(cfg.plant)[None, :]
        for i in range(1, cfg.steps - 1):
            assert tr.u[i] == bind_ensemble_law(np.ones(1), W, np.array([tr.z[i], tr.z[i - 1]]))(tr.y_r[i + 1])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 3), m=st.integers(1, 3), rows=st.integers(1, 3), data=st.data())
    def test_out_receives_the_same_bits_and_is_returned(self, n, m, rows, data):
        # the episode loop passes the step's column of its (rows, steps) output record;
        # the step writes nothing else, so its histories keep their bytes
        values = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats(-1e3, 1e3))
        p = ArxParams(data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0))), np.ones(m))
        u_now = data.draw(arrays(float, (rows, m), elements=values))
        y_hist = data.draw(arrays(float, (rows, n), elements=values))
        u_bytes, y_bytes, record = u_now.tobytes(), y_hist.tobytes(), np.empty((rows, 4))
        step = bind_plant(p, u_now, y_hist)
        for out in record.T:
            with np.errstate(all="ignore"):
                y, y_out = step(), step(out)
            assert y_out is out and y.tobytes() == out.tobytes()
            assert u_now.tobytes() == u_bytes and y_hist.tobytes() == y_bytes

    def test_open_loop_is_unstable(self):
        companion = np.array([[PLANT.a[0], PLANT.a[1]], [1.0, 0.0]])
        assert np.max(np.abs(np.linalg.eigvals(companion))) > 1.0


class TestMeasure:
    """Measurements z = y + e with e one mixture draw, as the episode loop forms them."""

    def test_vanishing_noise(self):
        tiny = NoiseModel((MixtureComponent(1.0, AldParams(0.5, 0.0, 1e-9)),))
        rng = np.random.default_rng(6)
        for y in (0.0, 3.2, -1.7):
            assert y + mixture_sample(tiny, rng) == pytest.approx(y, abs=1e-7)

    def test_repeated_measurement_mean(self):
        base = NoiseModel(
            (
                MixtureComponent(0.8, AldParams(0.95, 0.0, 0.01)),
                MixtureComponent(0.2, AldParams(0.85, 0.0, 0.01)),
            )
        )
        rng = np.random.default_rng(8)
        draws = np.array([mixture_sample(base, rng) for _ in range(100_000)])
        expected = sum(
            c.weight
            * (
                quad(lambda x: x * ald_pdf(c.dist, x), -np.inf, c.dist.mu)[0]
                + quad(lambda x: x * ald_pdf(c.dist, x), c.dist.mu, np.inf)[0]
            )
            for c in base.components
        )
        assert np.mean(draws) == pytest.approx(expected, abs=0.01)

    def test_wide_outlier_tail_fraction(self):
        noise2 = NoiseModel(
            (
                MixtureComponent(0.99, AldParams(0.95, 0.0, 0.01)),
                MixtureComponent(0.01, AldParams(0.85, 0.0, 2.0)),
            )
        )
        rng = np.random.default_rng(9)
        z = np.array([mixture_sample(noise2, rng) for _ in range(100_000)])
        # analytic tails of both mixture components beyond |e| = 1
        tail_main = 0.95 * math.exp(-0.05 / 0.01) + 0.05 * math.exp(-0.95 / 0.01)
        tail_wide = 0.85 * math.exp(-0.15 / 2.0) + 0.15 * math.exp(-0.85 / 2.0)
        expected = 0.99 * tail_main + 0.01 * tail_wide
        assert np.mean(np.abs(z) > 1.0) == pytest.approx(expected, abs=0.003)


class TestReference:
    def test_sine_starts_at_zero(self):
        spec = TrajectorySpec("sine", 0.01, 1.0, 1.0)
        assert reference_trajectory(spec, 1)[0] == 0.0

    def test_triangle_quarter_period_peak(self):
        spec = TrajectorySpec("triangle", 0.01, 1.0, 1.0)
        r = reference_trajectory(spec, 76)
        assert r[25] == pytest.approx(1.0)
        assert r[75] == pytest.approx(-1.0)
        assert r[50] == pytest.approx(0.0)

    def test_filtered_square_first_half_period_step_response(self):
        spec = TrajectorySpec("filtered_square", 0.01, 1.0, 1.0)
        r = reference_trajectory(spec, 50)
        expected = 1.0 - np.exp(-np.arange(50, dtype=float))
        assert np.allclose(r, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["sine", "triangle"])
    def test_periodicity(self, kind):
        spec = TrajectorySpec(kind, 0.01, 1.0, 1.0)
        period = round(1.0 / (spec.frequency_hz * spec.sample_period_s))
        r = reference_trajectory(spec, 3 * period)
        assert np.allclose(r[:period], r[period : 2 * period], atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        frequency=st.floats(1e-4, 1.0),
        amplitude=st.floats(-1e3, 1e3),
        period=st.floats(1e-3, 10.0),
        count=st.integers(0, 400),
    )
    def test_filtered_square_equals_the_numpy_scalar_recursion(self, frequency, amplitude, period, count):
        spec = TrajectorySpec("filtered_square", frequency, amplitude, period)
        k = np.arange(count, dtype=float)
        square = np.where(np.mod(k * period * frequency, 1.0) < 0.5, amplitude, -amplitude)
        decay = math.exp(-period)
        expected = np.zeros(count)
        for i in range(count - 1):
            expected[i + 1] = decay * expected[i] + (1.0 - decay) * square[i]
        got = reference_trajectory(spec, count)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_filtered_square_reaches_periodic_steady_state(self):
        spec = TrajectorySpec("filtered_square", 0.01, 1.0, 1.0)
        period = 100
        r = reference_trajectory(spec, 8 * period)
        assert np.max(np.abs(r[5 * period : 6 * period] - r[6 * period : 7 * period])) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectorySpec("sawtooth", 0.01, 1.0, 1.0)
        with pytest.raises(ValueError):
            TrajectorySpec("sine", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            reference_trajectory(TrajectorySpec("sine", 0.01, 1.0, 1.0), -1)

    @pytest.mark.parametrize("kind", ["sine", "triangle", "filtered_square"])
    @pytest.mark.parametrize(
        "count, message",
        [
            (2.5, "count must be an integer, got 2.5"),
            (True, "count must be an integer, got True"),
            (np.float64(3.0), "count must be an integer"),
            ("3", "count must be an integer, got '3'"),
            (-1, "count must be at least 0, got -1"),
        ],
        ids=["float", "bool", "numpy-float", "str", "negative"],
    )
    def test_count_is_an_integer_by_the_integer_rule(self, kind, count, message):
        # sine and triangle took 2.5 as 3 values and True as 1, and filtered_square raised numpy's slice TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            reference_trajectory(TrajectorySpec(kind, 0.01, 1.0, 1.0), count)
        spec = TrajectorySpec(kind, 0.01, 1.0, 1.0)
        assert reference_trajectory(spec, np.int64(7)).tobytes() == reference_trajectory(spec, 7).tobytes()
