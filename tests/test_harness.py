import json
import math
import re
import tracemalloc
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import aldcontrol.harness as harness
from aldcontrol import (
    FEEDBACK_KINDS,
    POSTERIOR_FLOOR,
    PRESETS,
    AldParams,
    ArxParams,
    ConfigError,
    EpisodeTrace,
    McSummary,
    MixtureComponent,
    NoiseModel,
    accumulated_error,
    config_from_dict,
    export_summary_csv,
    export_trace_csv,
    load_config,
    max_tracking_error,
    monte_carlo,
    parse_controller,
    compare_controllers,
    preset_config,
    read_summary_csv,
    read_trace_csv,
    run_episode,
)
from reference import ald_pdf

ZERO_NOISE = NoiseModel((MixtureComponent(1.0, AldParams(0.5, 0.0, 1e-12)),))


def short(cfg, **kw):
    return replace(cfg, **kw)


@pytest.fixture(scope="module")
def base():
    return preset_config("base")


class TestRunEpisode:
    def test_zero_noise_oracle_tracks_exactly(self, base):
        cfg = short(base, noise=ZERO_NOISE, controller="oracle", steps=200)
        tr = run_episode(cfg)
        assert not tr.failed
        assert np.max(np.abs(tr.y - tr.y_r)) < 1e-9

    def test_trace_structure(self, base):
        tr = run_episode(short(base, steps=250))
        assert tr.steps == 250
        assert np.array_equal(tr.k, np.arange(1, 251))
        assert tr.posteriors.shape == (250, 2)
        assert tr.w_hat.shape == (250, 2, 3)
        assert np.allclose(tr.posteriors.sum(axis=1), 1.0, atol=1e-9)

    def test_identical_seeds_identical_traces(self, base):
        cfg = short(base, steps=120, seed=99)
        a, b = run_episode(cfg), run_episode(cfg)
        for field in ("y_r", "y", "z", "u", "posteriors", "w_hat"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_paired_noise_across_controllers(self, base):
        cfg = short(base, steps=150, seed=5)
        traces = [run_episode(short(cfg, controller=c)) for c in ("ensemble", "rls", "oracle", "single-ald:1")]
        for tr in traces[1:]:
            assert np.array_equal(tr.noise, traces[0].noise)

    def test_single_subsystem_trace_for_baselines(self, base):
        tr = run_episode(short(base, steps=50, controller="rls"))
        assert tr.posteriors.shape == (50, 1)
        assert np.all(tr.posteriors == 1.0)
        tr_o = run_episode(short(base, steps=50, controller="oracle"))
        assert np.allclose(tr_o.w_hat[:, 0, :], [0.5, -1.41, 0.9])

    def test_divergent_episode_is_diagnosed_not_raised(self, base):
        cfg = short(base, steps=1400, controller="rls", u_max=1e-12)
        tr = run_episode(cfg)
        assert tr.failed
        assert tr.fail_step is not None
        # row fail_step - 1 holds step fail_step, the first failed one: from it on every column is NaN
        for name in ("y_r", "y", "z", "u", "noise", "posteriors", "w_hat"):
            column = getattr(tr, name)
            assert np.all(np.isnan(column[tr.fail_step - 1 :])), name
            assert np.all(np.isfinite(column[tr.fail_step - 2])), name
        assert math.isnan(accumulated_error(tr, (100, 1400)))
        assert max_tracking_error(tr, (100, 1400)) == math.inf

    def test_nan_posteriors_fail_the_episode_instead_of_raising(self, base):
        # every subsystem's log-likelihood reaches -inf, so the posteriors turn
        # NaN while W and eta are still finite; the control is then NaN
        cfg = short(
            base,
            plant=ArxParams([-0.52, 1.91], [0.51]),
            controller="ensemble",
            steps=1500,
            u_max=1e300,
            trajectory=replace(base.trajectory, amplitude=1e200),
        )
        tr = run_episode(cfg)
        assert (tr.failed, tr.fail_step) == (True, 423)
        assert np.all(np.isnan(tr.u[tr.fail_step - 1 :]))
        summary = monte_carlo(cfg, 1, (10, 1500))
        assert summary.runs_failed == 1

    def test_programming_error_propagates(self, base, monkeypatch):
        # every controller's loop steps the plant: a bug raised there at step 5 must surface, not fail the episode
        bound = harness.bind_plant

        def broken(*args, **kwargs):
            step, calls = bound(*args, **kwargs), []

            def plant(*a):
                calls.append(None)
                if len(calls) == 5:
                    raise ValueError("bug")
                return step(*a)

            return plant

        monkeypatch.setattr(harness, "bind_plant", broken)
        for token in ("ensemble", "rls", "oracle"):
            with pytest.raises(ValueError, match="bug"):
                run_episode(short(base, steps=20, controller=token))


def assert_same_trace(a, b):
    """Every field equal, arrays bit for bit."""
    for f in fields(EpisodeTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def run_batch(cfg, controllers, seeds):
    """Traces of ``cfg`` under every controller for ``seeds`` from one core call, one list per controller."""
    return harness._traces(cfg, controllers, seeds)


def count_core_rows(monkeypatch) -> list[int]:
    """Spy on the core: the (controller, seed) row count of every later ``_run_batch`` call, in call order."""
    rows, batch = [], harness._run_batch

    def spy(*args, **kwargs):
        controllers, seeds = args[1:3]
        rows.append(len(controllers) * len(seeds))
        return batch(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_batch", spy)
    return rows


def count_sampler_binds(monkeypatch) -> list[tuple]:
    """Spy on the noise draw: the arguments of every later bind of ``_sampler``, one per seed's row drawn."""
    binds, bind = [], harness._sampler
    monkeypatch.setattr(harness, "_sampler", lambda *args: binds.append(args) or bind(*args))
    return binds


def assert_prefix(part, whole):
    """``part``, the same run cut short, is ``whole``'s first rows bit for bit and fails only where ``whole`` does."""
    steps = part.steps
    for f in fields(EpisodeTrace):
        x, y = getattr(part, f.name), getattr(whole, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y[:steps].shape and x.tobytes() == y[:steps].tobytes(), f.name
    fail_step = whole.fail_step if whole.failed and whole.fail_step <= steps else None
    assert (part.controller, part.seed) == (whole.controller, whole.seed)
    assert (part.failed, part.fail_step) == (fail_step is not None, fail_step)


# a rare component whose draws reach 1e300 makes some runs diverge, at steps set by the noise
RARE_HUGE = NoiseModel(
    (MixtureComponent(0.998, AldParams(0.95, 0.0, 0.01)), MixtureComponent(0.002, AldParams(0.5, 0.0, 1e300)))
)

# the same with outliers ten times as often: most runs of 150 steps fail
OFTEN_HUGE = NoiseModel(
    (MixtureComponent(0.98, AldParams(0.95, 0.0, 0.01)), MixtureComponent(0.02, AldParams(0.5, 0.0, 1e300)))
)

TOKENS = ["ensemble", "rls", "oracle", "single-ald:0", "single-ald:1"]
HYPOTHESES = st.builds(AldParams, st.floats(0.05, 0.95), st.floats(-0.5, 0.5), st.floats(0.01, 2.0))
PLANTS = [None, ArxParams([0.5], [1.0, 0.3]), ArxParams([], [0.8]), ArxParams([0.3, -0.2, 0.1], [0.6])]


def with_plant(cfg, plant):
    return cfg if plant is None else replace(cfg, plant=plant, w0=None)


def many_hypotheses(cfg, n_hyp: int):
    """``cfg`` at 300 steps with ``n_hyp`` hypotheses, tau from 0.1 to 0.9 and sigma from 0.01 to 2.0."""
    taus, sigmas = np.linspace(0.1, 0.9, n_hyp), np.geomspace(0.01, 2.0, n_hyp)
    return short(cfg, hypotheses=[AldParams(t, 0.0, s) for t, s in zip(taus, sigmas)], steps=300)


class TestBatchedCore:
    @settings(max_examples=40, deadline=None)
    @given(
        preset=st.sampled_from(PRESETS),
        plant=st.sampled_from(PLANTS),
        feedback=st.sampled_from(FEEDBACK_KINDS),
        token=st.sampled_from(TOKENS),
        steps=st.integers(2, 150),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
        hypotheses=st.none() | st.lists(HYPOTHESES, min_size=2, max_size=9),
        data=st.data(),
    )
    def test_rows_equal_single_runs_and_follow_the_seeds(
        self, preset, plant, feedback, token, steps, seeds, hypotheses, data
    ):
        # up to 9 hypotheses: run_episode's one-row steps sum on Python floats and a batch's on arrays
        cfg = with_plant(replace(preset_config(preset), steps=steps, feedback=feedback, controller=token), plant)
        if hypotheses is not None:
            cfg = replace(cfg, hypotheses=hypotheses)
        [traces] = run_batch(cfg, [token], seeds)
        for seed, trace in zip(seeds, traces):
            assert_same_trace(trace, run_episode(replace(cfg, seed=seed)))
        order = data.draw(st.permutations(range(len(seeds))))
        for i, trace in zip(order, run_batch(cfg, [token], [seeds[i] for i in order])[0]):
            assert_same_trace(trace, traces[i])
        cut = data.draw(st.integers(2, steps))
        for trace, whole in zip(run_batch(replace(cfg, steps=cut), [token], seeds)[0], traces):
            assert_prefix(trace, whole)

    @pytest.mark.parametrize("n_hyp", [7, 8, 9, 12])
    def test_ensemble_rows_equal_single_runs_for_seven_to_twelve_hypotheses(self, base, n_hyp):
        # run_episode's posterior and ensemble steps sum on Python floats and a batch's on arrays,
        # both left to right, so they agree below 8 terms, where np.add.reduce would too, and from 8 on
        cfg = many_hypotheses(base, n_hyp)
        [traces] = run_batch(cfg, ["ensemble"], [3, 4])
        for seed, trace in zip([3, 4], traces):
            assert_same_trace(trace, run_episode(replace(cfg, seed=seed)))

    def test_an_episode_of_nine_hypotheses_takes_the_one_row_step(self, base, monkeypatch):
        # the one-row step is picked by the row count alone, whatever S is
        binds = []
        bind = harness._bind_one_row
        monkeypatch.setattr(harness, "_bind_one_row", lambda *args: binds.append(args[1].shape) or bind(*args))
        trace = run_episode(many_hypotheses(base, 9))
        assert binds == [(1, 9)] and trace.posteriors.shape == (300, 9)

    @settings(max_examples=30, deadline=None)
    @given(
        preset=st.sampled_from(PRESETS),
        plant=st.sampled_from(PLANTS),
        feedback=st.sampled_from(FEEDBACK_KINDS),
        tokens=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5),
        steps=st.integers(2, 150),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
    )
    def test_every_controller_of_a_stack_equals_its_single_runs(self, preset, plant, feedback, tokens, steps, seeds):
        # padded subsystems, rows sorted by controller kind and repeated tokens must not leak into any trace
        cfg = with_plant(replace(preset_config(preset), steps=steps, feedback=feedback), plant)
        stack = run_batch(cfg, tokens, seeds)
        assert len(stack) == len(tokens)
        for token, traces in zip(tokens, stack):
            assert len(traces) == len(seeds)
            for seed, trace in zip(seeds, traces):
                assert_same_trace(trace, run_episode(replace(cfg, controller=token, seed=seed)))

    @pytest.mark.parametrize("feedback", FEEDBACK_KINDS)
    @pytest.mark.parametrize("plant", PLANTS, ids=lambda p: "preset" if p is None else f"n{p.n}m{p.m}")
    def test_every_trace_follows_the_arx_recursion_bit_for_bit(self, base, plant, feedback):
        # the plant reads the true outputs y, never the measurements z, under either feedback
        for token in ("rls", "oracle", "ensemble"):
            cfg = with_plant(short(base, steps=120, feedback=feedback, controller=token), plant)
            p, tr = cfg.plant, run_episode(cfg)
            assert not tr.failed

            def y_of(j):
                return tr.y[j - 1] if j >= 1 else 0.0  # the plant starts at rest: y = 0 before k = 1

            for k in range(p.m, cfg.steps):
                u_hist = np.array([tr.u[k - i - 1] for i in range(p.m)])  # u(k)..u(k-m+1)
                y_hist = np.array([y_of(k - i) for i in range(p.n)])  # y(k)..y(k-n+1)
                expected = np.add(np.vecdot(u_hist, p.b), np.vecdot(y_hist, p.a))
                assert tr.y[k].tobytes() == expected.tobytes(), (token, k)

    @pytest.mark.parametrize("token,fail_steps", [("rls", {53, 279}), ("ensemble", {118, 222})])
    def test_rows_fail_at_their_own_steps_beside_healthy_rows(self, base, token, fail_steps):
        cfg = short(base, noise=RARE_HUGE, steps=300)
        seeds = [0, 3, 5, 8, 10]
        # the token's rows lead one stack with the other learning controller's rows and an oracle's
        tokens = (token, "oracle", "ensemble" if token == "rls" else "rls")
        stack = run_batch(cfg, tokens, seeds)
        assert {t.fail_step for t in stack[0]} == fail_steps | {None}
        assert not any(t.failed for t in stack[1])
        for t, traces in zip(tokens, stack):
            for seed, trace in zip(seeds, traces):
                assert_same_trace(trace, run_episode(replace(cfg, controller=t, seed=seed)))
                if trace.failed:
                    dead = slice(trace.fail_step - 1, None)
                    for name in ("y_r", "y", "z", "u", "noise", "posteriors", "w_hat"):
                        assert np.all(np.isnan(getattr(trace, name)[dead])), name
                    assert np.all(np.isfinite(trace.y[: trace.fail_step - 1]))
                else:
                    assert np.all(np.isfinite(trace.y)) and np.all(np.isfinite(trace.w_hat))

    @settings(max_examples=30, deadline=None)
    @given(
        preset=st.sampled_from(PRESETS),
        # every run on this plant overflows within a few steps, the oracle's too
        plant=st.sampled_from([*PLANTS, ArxParams([1e100], [1.0])]),
        feedback=st.sampled_from(FEEDBACK_KINDS),
        noise=st.sampled_from([None, OFTEN_HUGE, ZERO_NOISE]),
        tokens=st.lists(st.sampled_from(["rls", "oracle", "single-ald:0"]), min_size=1, max_size=3, unique=True),
        steps=st.integers(2, 150),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
    )
    def test_batch_shortcuts_equal_the_rows_of_a_stacked_batch(self, preset, plant, feedback, noise, tokens, steps, seeds):
        # Without an ensemble a batch is unscored, and its posteriors are
        # written once after the loop; an rls batch alone has the unit rule,
        # and an oracle batch alone is frozen, its W written once after the
        # loop.  Beside an ensemble every row takes the general path: a
        # stacked weight rule and records copied every step.  OFTEN_HUGE's 1e300 draws make runs fail.
        cfg = with_plant(replace(preset_config(preset), steps=steps, feedback=feedback), plant)
        cfg = cfg if noise is None else replace(cfg, noise=noise)
        stacked = run_batch(cfg, ["ensemble", *tokens], seeds)[1:]
        for token, general, unscored in zip(tokens, stacked, run_batch(cfg, tokens, seeds)):
            for trace, other, alone in zip(general, unscored, run_batch(cfg, [token], seeds)[0]):
                assert_same_trace(other, trace)
                assert_same_trace(alone, trace)

    def test_one_subsystem_bank_is_not_scored(self, base):
        # A one-subsystem bank has nothing to weigh: its posterior is the
        # constant 1.0 even where scoring it would overflow (an outlier under
        # a hypothesis so narrow that its log-likelihood is -inf while the
        # residual stays finite), so such an outlier fails no run by itself.
        narrow = (AldParams(0.95, 0.0, 1e-12), *base.hypotheses[1:])
        cfg = short(base, noise=RARE_HUGE, hypotheses=narrow, controller="single-ald:0", steps=300)
        seeds = [0, 3, 5, 8, 9, 10]
        alone = run_batch(cfg, ["single-ald:0"], seeds)[0]
        padded = run_batch(cfg, ["single-ald:0", "ensemble"], seeds)[0]
        # an ensemble of one hypothesis is the same bank
        one = run_batch(replace(cfg, hypotheses=narrow[:1]), ["ensemble"], seeds)[0]
        for a, b, c in zip(alone, padded, one):
            assert_same_trace(a, b)
            assert_same_trace(a, replace(c, controller=a.controller))
            assert np.all(a.posteriors[: a.fail_step - 1 if a.failed else None] == 1.0)
        nine = alone[seeds.index(9)]
        assert not nine.failed and np.all(nine.posteriors == 1.0)
        assert np.all(np.isfinite(nine.y)) and np.all(np.isfinite(nine.w_hat))

    def test_scored_rows_are_scored_at_each_hypothesis_location(self, monkeypatch):
        # a hypothesis located at noise1's outlier component (mu = 2.0): each
        # Bayes step weighs the posteriors by the ALD densities of the filter's residuals
        hyps = (AldParams(0.9, 0.0, 0.5), AldParams(0.5, 2.0, 1.0))
        residuals, posteriors = [], []
        bind_filter, bind_posterior = harness.bind_filter, harness.bind_posterior

        def keeping(*args):
            step = bind_filter(*args)

            def filter_kept(z):
                r = step(z)
                residuals.append(r.copy())
                return r

            return filter_kept

        def keeping_posteriors(batch_hyps, post):
            bayes = bind_posterior(batch_hyps, post)

            def bayes_kept(residual):
                bayes(residual)
                posteriors.append(post.copy())

            return bayes_kept

        monkeypatch.setattr(harness, "bind_filter", keeping)
        monkeypatch.setattr(harness, "bind_posterior", keeping_posteriors)
        cfg = replace(preset_config("noise1"), steps=200, hypotheses=hyps)
        run_batch(cfg, ["ensemble", "rls"], [0, 1, 2])
        assert len(posteriors) == len(residuals) == 200
        # the scored rows, the ensemble's, come first
        r = np.array(residuals)[:, :3]
        likelihood = np.stack([ald_pdf(h, r[..., j]) for j, h in enumerate(hyps)], axis=-1)
        assert np.isfinite(np.log(likelihood)).all()
        # the reference Bayes update of each step from the posteriors before it, renormalized and floored twice
        expected = np.concatenate([np.full((1, 3, 2), 0.5), posteriors[:-1]]) * likelihood
        for _ in range(2):
            expected = np.maximum(expected / expected.sum(axis=-1, keepdims=True), POSTERIOR_FLOOR)
        np.testing.assert_allclose(np.array(posteriors), expected, rtol=1e-12, atol=1e-12)

    def test_a_run_does_not_depend_on_its_length(self, base):
        # a fail step is caused by that step's state: a shorter run is the
        # longer one's first rows, failing at the same step if it reaches it
        narrow = (AldParams(0.95, 0.0, 1e-12), *base.hypotheses[1:])
        cfg = short(base, noise=RARE_HUGE, hypotheses=narrow, steps=300)
        seeds = [3, 5, 8, 9, 10]
        whole = run_batch(cfg, TOKENS, seeds)
        fail_steps = sorted(trace.fail_step for traces in whole for trace in traces if trace.failed)
        assert fail_steps[0] <= 57 and fail_steps[-1] > 150  # runs that fail before a cut and after it
        for steps in (2, 57, 150, 299):
            for token, traces in zip(TOKENS, whole):
                for seed, trace in zip(seeds, traces):
                    assert_prefix(run_episode(replace(cfg, controller=token, steps=steps, seed=seed)), trace)

    def test_returned_trace_keeps_its_bytes_after_later_runs(self, base):
        # no array of a returned trace may be a work array that a later call reuses
        cfg = short(base, steps=60)
        trace = run_episode(cfg)
        arrays = {f.name: getattr(trace, f.name) for f in fields(EpisodeTrace)}
        saved = {name: a.tobytes() for name, a in arrays.items() if isinstance(a, np.ndarray)}
        run_episode(replace(cfg, seed=7))
        run_episode(replace(cfg, controller="rls", seed=3))
        compare_controllers(replace(cfg, seed=5), ["ensemble", "rls", "single-ald:0", "oracle"], 3, (1, 60))
        # the same seed again, reading the kept noise row, and a batch that ends on it
        run_episode(replace(cfg, controller="rls"))
        compare_controllers(cfg, ["rls", "oracle"], 1, (1, 60))
        for name, data in saved.items():
            assert arrays[name].tobytes() == data, name
        assert_same_trace(trace, run_episode(cfg))

    def test_compare_controllers_draws_the_noise_once(self, base, monkeypatch):
        calls = []
        bind = harness._sampler

        def counting(*args):
            draw = bind(*args)
            return lambda: calls.append(1) or draw()

        monkeypatch.setattr(harness, "_sampler", counting)
        compare_controllers(short(base, steps=20), ["ensemble", "rls", "single-ald:0", "oracle"], 3, (1, 20))
        assert len(calls) == 3 * 21

    def test_paired_episodes_draw_the_noise_once(self, monkeypatch):
        binds = count_sampler_binds(monkeypatch)
        cfg = short(preset_config("noise1"), steps=50, seed=4)
        ensemble, rls = run_episode(cfg), run_episode(replace(cfg, controller="rls"))
        assert len(binds) == 1
        assert ensemble.noise.tobytes() == rls.noise.tobytes()
        # a fresh draw of the same seed gives the same traces
        harness._noise_row.cache_clear()
        assert_same_trace(run_episode(replace(cfg, controller="rls")), rls)
        assert_same_trace(run_episode(cfg), ensemble)
        assert len(binds) == 2

    def test_noise_models_equal_but_for_a_signed_zero_share_one_row(self, base, monkeypatch):
        # the number rule stores mu = -0.0 as +0.0, so the two models hold the same floats and draw one row
        plus, minus = (NoiseModel((MixtureComponent(1.0, AldParams(0.5, mu, 0.1)),)) for mu in (0.0, -0.0))
        assert repr(plus) == repr(minus) and plus == minus
        binds = count_sampler_binds(monkeypatch)
        cfg = short(base, steps=20, seed=2)
        assert_same_trace(run_episode(replace(cfg, noise=plus)), run_episode(replace(cfg, noise=minus)))
        assert len(binds) == 1

    def test_at_most_one_noise_row_is_kept_and_it_is_read_only(self, base, monkeypatch):
        binds = count_sampler_binds(monkeypatch)
        cfg = short(base, steps=30)
        for seed, steps in ((1, 30), (2, 30), (2, 31), (1, 30)):
            run_episode(replace(cfg, seed=seed, steps=steps))
            assert harness._noise_row.cache_info().currsize == 1
        compare_controllers(cfg, ["ensemble", "rls"], 5, (1, 30))
        info = harness._noise_row.cache_info()
        assert info.maxsize == info.currsize == 1
        # the batch's last seed is the kept row, keyed by value: an equal model reads it without a draw
        row = harness._noise_row(replace(cfg.noise), cfg.seed + 4, 30)
        assert row.shape == (31,) and not row.flags.writeable
        # each (seed, steps) changed from the one before it, and so did every seed of the batch
        assert len(binds) == 4 + 5

    @pytest.mark.parametrize("tokens", [["ensemble", "rls", "single-ald:0", "oracle"], ["oracle", "ensemble", "rls"]])
    def test_compare_controllers_makes_one_core_call_per_chunk(self, base, monkeypatch, tokens):
        rows = count_core_rows(monkeypatch)
        per_chunk = harness._BATCH_RUNS // len(tokens)
        cfg = short(base, steps=20)
        for runs, chunks in ((1, 1), (per_chunk, 1), (per_chunk + 1, 2), (2 * per_chunk + 1, 3)):
            rows.clear()
            compare_controllers(cfg, tokens, runs, (1, 20))
            assert len(rows) == chunks and sum(rows) == runs * len(tokens)
            assert max(rows) <= harness._BATCH_RUNS

    def test_a_chunk_holds_one_seed_of_every_controller_beyond_the_row_bound(self, base, monkeypatch):
        # with more controllers C than _BATCH_RUNS rows, a chunk is one seed of C rows
        cfg, tokens = short(base, steps=20), ["ensemble", "rls", "oracle"]
        expected = compare_controllers(cfg, tokens, 3, (1, 20))
        monkeypatch.setattr(harness, "_BATCH_RUNS", 2)
        rows = count_core_rows(monkeypatch)
        summaries = compare_controllers(cfg, tokens, 3, (1, 20))
        assert rows == [3, 3, 3]
        for s, e in zip(summaries, expected):
            assert s.j_runs.tobytes() == e.j_runs.tobytes()


def recording(factory, outputs: list):
    """``factory`` whose bound step also appends a copy of each result to ``outputs``."""

    def bind(*args, **kwargs):
        step = factory(*args, **kwargs)

        def recorded(*a):
            out = step(*a)
            outputs.append(np.array(out))
            return out

        return recorded

    return bind


def traced_j_runs(cfg, token, runs, window):
    """compare_controllers' j_runs from full traces: each run's accumulated_error, NaN if it failed or is not finite."""
    traces = [run_episode(replace(cfg, controller=token, seed=cfg.seed + i)) for i in range(runs)]
    j = np.array([np.nan if t.failed else accumulated_error(t, window) for t in traces])
    j[~np.isfinite(j)] = np.nan
    return j


class TestSummaryConsumer:
    """compare_controllers keeps y and u per step and no trace; its errors and failures are the full traces'."""

    @settings(max_examples=25, deadline=None)
    @given(
        preset=st.sampled_from(PRESETS),
        # every run on the last plant overflows within a few steps, the oracle's too
        plant=st.sampled_from([*PLANTS, ArxParams([1e100], [1.0])]),
        feedback=st.sampled_from(FEEDBACK_KINDS),
        noise=st.sampled_from([None, OFTEN_HUGE, ZERO_NOISE]),
        # a hypothesis so narrow that an outlier's log-likelihood is -inf: the ensemble's posterior turns NaN
        narrow=st.booleans(),
        u_max=st.sampled_from([None, 1e-12]),
        tokens=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4),
        steps=st.integers(2, 120),
        seed=st.integers(0, 1000),
        runs=st.integers(1, 4),
        batch_runs=st.integers(1, 6),
        bounds=st.tuples(st.integers(1, 1400), st.integers(1, 1400)),
    )
    # rls under u_max = 1e-12 drifts off and fails at step 1160
    @example("base", None, "output", None, False, 1e-12, ["rls", "ensemble"], 1400, 0, 2, 512, (100, 1400))
    def test_errors_and_failures_equal_the_full_traces(
        self, preset, plant, feedback, noise, narrow, u_max, tokens, steps, seed, runs, batch_runs, bounds
    ):
        cfg = with_plant(replace(preset_config(preset), steps=steps, feedback=feedback, seed=seed), plant)
        if noise is not None:
            cfg = replace(cfg, noise=noise)
        if narrow:
            cfg = replace(cfg, hypotheses=(AldParams(0.95, 0.0, 1e-12), *cfg.hypotheses[1:]))
        if u_max is not None:
            cfg = replace(cfg, u_max=u_max)
        window = tuple(sorted(min(b, steps) for b in bounds))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_BATCH_RUNS", batch_runs)
            summaries = compare_controllers(cfg, tokens, runs, window)
        for token, s in zip(tokens, summaries):
            j = traced_j_runs(cfg, token, runs, window)
            assert s.j_runs.tobytes() == j.tobytes(), token
            assert s.runs_failed == int(np.isnan(j).sum()), token

    @pytest.mark.parametrize("token", ["rls", "ensemble"])
    @pytest.mark.parametrize("k", [17, 40])
    def test_estimate_alone_turning_non_finite_fails_the_run_in_both_paths(self, base, monkeypatch, token, k):
        # At step k the filter step sets run 0's b1 estimates to inf.  The
        # law's divisor is then inf, so u(k) = 0: y, z and u stay finite at
        # step k, and at the last step (k = 40) only W says the run failed.
        cfg = short(base, steps=40, controller=token)
        clean = compare_controllers(cfg, [token], 2, (1, 40))[0]
        assert clean.runs_failed == 0
        noise = run_episode(cfg).noise
        bind = harness.bind_filter

        def injecting(W, *args):
            step, calls = bind(W, *args), []

            def filter_k(z):
                out = step(z)
                calls.append(None)
                if len(calls) == k:
                    W[0, :, 0] = np.inf
                return out

            return filter_k

        ys, us = [], []
        monkeypatch.setattr(harness, "bind_filter", injecting)
        monkeypatch.setattr(harness, "bind_plant", recording(harness.bind_plant, ys))
        monkeypatch.setattr(harness, "bind_ensemble_law", recording(harness.bind_ensemble_law, us))
        one_row = harness._bind_one_row

        def recording_one_row(*args):
            # run_episode's control is the one-row step's law
            bayes, law = one_row(*args)
            return bayes, recording(lambda: law, us)()

        monkeypatch.setattr(harness, "_bind_one_row", recording_one_row)
        trace = run_episode(cfg)
        assert (trace.failed, trace.fail_step) == (True, k)
        # ys[k - 1] is y(k) and us[k] is u(k), after u(0)
        assert np.isfinite(ys[k - 1] + noise[k - 1]).all() and np.isfinite(us[k]).all()
        [summary] = compare_controllers(cfg, [token], 2, (1, 40))
        assert np.isnan(summary.j_runs[0]) and summary.runs_failed == 1
        assert summary.j_runs[1] == clean.j_runs[1]

    def test_monte_carlo_builds_no_trace(self, base, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("a Monte Carlo summary built an EpisodeTrace")

        cfg = short(base, steps=30)
        expected = [traced_j_runs(cfg, token, 3, (5, 30)) for token in TOKENS]
        monkeypatch.setattr(harness, "EpisodeTrace", no_trace)
        assert monte_carlo(cfg, 3, (5, 30)).j_runs.tobytes() == expected[0].tobytes()
        for s, j in zip(compare_controllers(cfg, TOKENS, 3, (5, 30)), expected):
            assert s.j_runs.tobytes() == j.tobytes()

    def test_monte_carlo_keeps_no_per_step_state(self):
        # one full chunk of the four default controllers on noise1 (S = 3):
        # a per-step copy of W alone would be a (rows, steps, S, d) record
        cfg = replace(preset_config("noise1"), steps=200)
        tokens = ["ensemble", "rls", "single-ald:0", "oracle"]
        runs = harness._BATCH_RUNS // len(tokens)
        record = 8 * runs * len(tokens) * cfg.steps * len(cfg.hypotheses) * cfg.plant.d  # float64 bytes
        tracemalloc.start()
        try:
            compare_controllers(cfg, tokens, runs, (10, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < record


class TestMetrics:
    def test_zero_error_gives_zero(self, base):
        tr = run_episode(short(base, noise=ZERO_NOISE, controller="oracle", steps=60))
        assert accumulated_error(tr, (1, 60)) == pytest.approx(0.0, abs=1e-24)

    def test_constant_error_mean_square(self, base):
        tr = run_episode(short(base, noise=ZERO_NOISE, controller="oracle", steps=40))
        shifted = replace(tr, y=tr.y_r + 0.1)
        assert accumulated_error(shifted, (5, 30)) == pytest.approx(0.01)

    def test_window_validation(self, base):
        tr = run_episode(short(base, steps=40))
        with pytest.raises(ValueError):
            accumulated_error(tr, (20, 10))
        with pytest.raises(ValueError):
            accumulated_error(tr, (0, 10))
        with pytest.raises(ValueError):
            accumulated_error(tr, (1, 41))

    # a bool is not a step number, though Python reads True as 1
    @pytest.mark.parametrize("window", [(1.5, 20), (1, 20.5), (True, 20), (1, np.True_)])
    def test_non_integral_window_rejected(self, base, window):
        cfg = short(base, steps=40)
        tr = run_episode(cfg)
        for call in (accumulated_error, max_tracking_error):
            with pytest.raises(ValueError, match=re.escape(repr(window))):
                call(tr, window)
        with pytest.raises(ValueError, match=re.escape(repr(window))):
            compare_controllers(cfg, ["rls"], 1, window)

    @pytest.mark.parametrize("window", [(1, 2, 3), (5,), ()])
    def test_window_that_is_not_a_pair_is_named(self, base, window):
        cfg = short(base, steps=40)
        tr = run_episode(cfg)
        message = re.escape(f"window {window!r} must be a (k_lo, k_hi) pair")
        for call in (accumulated_error, max_tracking_error):
            with pytest.raises(ValueError, match=message):
                call(tr, window)
        with pytest.raises(ValueError, match=message):
            compare_controllers(cfg, ["rls"], 1, window)

    def test_numpy_integer_window_accepted(self, base):
        cfg = short(base, steps=40, controller="rls")
        window = (np.int64(5), np.int32(40))
        [summary] = compare_controllers(cfg, ["rls"], 2, window)
        assert summary.window == (5, 40) and all(type(v) is int for v in summary.window)
        tr = run_episode(cfg)
        assert accumulated_error(tr, window) == accumulated_error(tr, (5, 40)) == summary.j_runs[0]
        assert max_tracking_error(tr, window) == max_tracking_error(tr, (5, 40))

    def test_monte_carlo_single_run(self, base):
        cfg = short(base, steps=80)
        summary = monte_carlo(cfg, 1, (10, 80))
        tr = run_episode(cfg)
        assert summary.j_bar_mean == accumulated_error(tr, (10, 80))
        assert summary.runs_ok == 1 and summary.runs_failed == 0

    def test_monte_carlo_mean_is_exact_mean_of_runs(self, base):
        cfg = short(base, steps=60, seed=11)
        summary = monte_carlo(cfg, 7, (10, 60))
        finite = summary.j_runs[np.isfinite(summary.j_runs)]
        assert summary.j_bar_mean == float(np.mean(finite))
        assert np.array_equal(summary.seeds, 11 + np.arange(7))

    def test_monte_carlo_checks_window_before_any_episode(self, base, monkeypatch):
        calls = []
        batch = harness._run_batch
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args) or batch(*args))
        with pytest.raises(ValueError, match="outside trace steps"):
            monte_carlo(short(base, steps=100), 50, (10, 2000))
        with pytest.raises(ValueError, match="empty window"):
            monte_carlo(short(base, steps=100), 50, (60, 20))
        assert calls == []

    def test_monte_carlo_counts_failures(self, base):
        cfg = short(base, steps=1400, controller="rls", u_max=1e-12)
        summary = monte_carlo(cfg, 2, (10, 100))
        assert summary.runs_failed == 2
        assert math.isnan(summary.j_bar_mean)

    @pytest.mark.parametrize(
        "controllers, error, message",
        [
            (["ensemble", "rls", "pid"], ConfigError, r"run\.controller"),
            (["ensemble", "rls", "single-ald:2"], ConfigError, r"run\.controller"),
            # a token that is not a string is rejected by the sequence rule before any token is parsed
            (["ensemble", "rls", 3], ValueError, r"^controllers entries must be str, got 3$"),
            # a string was read as the tokens 'r', 'l' and 's'
            ("rls", ValueError, r"^controllers must be a sequence of str, got 'rls'$"),
            (None, ValueError, r"^controllers must be a sequence of str, got None$"),
            ({"rls": 1}, ValueError, r"^controllers must be a sequence of str, got \{'rls': 1\}$"),
        ],
        ids=["pid", "single-ald:2", "3", "a-string", "none", "a-mapping"],
    )
    def test_compare_controllers_checks_every_token_before_any_episode(
        self, base, monkeypatch, controllers, error, message
    ):
        calls = []
        batch = harness._run_batch
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args) or batch(*args))
        with pytest.raises(error, match=message):
            compare_controllers(short(base, steps=20), controllers, 2, (1, 20))
        assert calls == []

    # an empty iterator passed the emptiness check, then divided the batch bound by zero
    @pytest.mark.parametrize("controllers", [[], (), iter([])], ids=["list", "tuple", "iterator"])
    def test_compare_controllers_rejects_an_empty_controller_list(self, base, monkeypatch, controllers):
        calls = []
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="no controllers"):
            compare_controllers(short(base, steps=20), controllers, 3, (1, 20))
        assert calls == []

    @pytest.mark.parametrize("runs", [0, -3])
    def test_compare_controllers_rejects_no_runs_before_any_episode(self, base, monkeypatch, runs):
        calls = []
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"runs must be at least 1, got {runs}"):
            monte_carlo(short(base, steps=20), runs, (1, 20))
        assert calls == []

    def test_compare_controllers_fails_on_a_run_count_too_large_for_memory_before_any_episode(self, base, monkeypatch):
        # the seeds were a list as long as the run count, built before the errors' array; 10**15 runs of one
        # controller need 8 PB, beyond any address space, so numpy refuses the array without allocating it
        calls = []
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args))
        with pytest.raises(MemoryError, match="Unable to allocate"):
            monte_carlo(short(base, steps=20), 10**15, (1, 20))
        assert calls == []

    def test_a_step_count_too_large_for_memory_fails_before_any_draw(self, base, draws_limited):
        # the noise row was a list of steps + 1 draws, grown until memory ran out; 10**15 + 1 floats need 8 PB,
        # beyond any address space, so numpy refuses the row without allocating it
        cfg = short(base, steps=10**15)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            run_episode(cfg)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            compare_controllers(cfg, ["ensemble", "rls"], 2, (1, 5))

    @pytest.mark.parametrize("runs", [2.0, True, np.float64(2), "2"], ids=["float", "bool", "numpy-float", "str"])
    def test_compare_controllers_rejects_a_run_count_that_is_not_an_integer(self, base, monkeypatch, runs):
        calls = []
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="runs must be an integer"):
            compare_controllers(short(base, steps=20), ["ensemble", "rls"], runs, (1, 20))
        assert calls == []

    def test_compare_controllers_accepts_a_numpy_run_count(self, base):
        cfg = short(base, steps=20)
        a = monte_carlo(cfg, np.int64(2), (1, 20))
        assert a.j_runs.tobytes() == monte_carlo(cfg, 2, (1, 20)).j_runs.tobytes()

    def test_compare_controllers_reuses_seeds(self, base):
        cfg = short(base, steps=60, seed=3)
        s1, s2 = compare_controllers(cfg, ["ensemble", "rls"], 3, (10, 60))
        assert np.array_equal(s1.seeds, s2.seeds)
        assert s1.seeds.dtype == np.int64

    @pytest.mark.parametrize("seed", [2**63 - 1, np.int64(2**63 - 1), 2**63, 2**70])
    def test_compare_controllers_runs_every_seed_run_episode_takes(self, base, seed):
        # run i's seed is seed + i, past int64 too: no overflow and no wrap to a negative seed
        cfg = short(base, steps=20, seed=seed, controller="rls")
        [summary] = compare_controllers(cfg, ["rls"], 2, (1, 5))
        assert summary.seeds.tolist() == [int(seed), int(seed) + 1]
        for i, j in enumerate(summary.j_runs):
            assert j == accumulated_error(run_episode(short(cfg, seed=int(seed) + i)), (1, 5))

    def test_ensemble_clearly_beats_rls_on_transient_window(self, base):
        cfg = short(base, steps=100)
        en, rls = compare_controllers(cfg, ["ensemble", "rls"], 30, (10, 100))
        assert rls.j_bar_mean / en.j_bar_mean > 2.0

    @pytest.mark.parametrize("kind", ["sine", "filtered_square"])
    def test_controller_ordering_on_means(self, base, kind):
        cfg = short(base, steps=100, trajectory=replace(base.trajectory, kind=kind))
        tokens = ["oracle", "ensemble", "single-ald:0", "rls"]
        means = [s.j_bar_mean for s in compare_controllers(cfg, tokens, 30, (10, 100))]
        assert means == sorted(means)


# signed zeros, the smallest subnormal and normal, and the largest finite float
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]


def trace_of(y_r, y, z, u, posteriors, w_hat):
    steps = y_r.size
    return EpisodeTrace("ensemble", 0, y_r, y, z, u, posteriors, w_hat, np.zeros(steps))


@st.composite
def extreme_traces(draw):
    steps, n_sub, dim = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))

    def column(*shape):
        return draw(arrays(np.float64, shape, elements=values))

    return trace_of(*(column(steps) for _ in range(4)), column(steps, n_sub), column(steps, n_sub, dim))


NOT_INTEGERS = ("1.5", "nan", "inf", "-inf", "1e19")
# (the k fields of the first data rows, the line named, its message): data row j has k = j
K_COLUMNS = [
    *((["1", "2", "3", k], 5, f"expected k = 4, got {k!r}") for k in NOT_INTEGERS),
    # integers that the writer never writes were read as they stood
    (["2", "1"], 2, "expected k = 1, got '2'"),
    (["1", "1"], 3, "expected k = 2, got '1'"),
    (["0", "1", "2"], 2, "expected k = 1, got '0'"),
    (["1", "2", "3", "5"], 5, "expected k = 4, got '5'"),
]
K_COLUMN_IDS = [*NOT_INTEGERS, "reordered", "duplicated", "from-0", "skipping"]


class TestTraceCsv:
    def test_round_trip_and_row_count(self, base, tmp_path):
        tr = run_episode(short(base, steps=35))
        path = tmp_path / "trace.csv"
        export_trace_csv(tr, path)
        text = path.read_text().splitlines()
        assert len(text) == 36
        assert text[0] == "k,y_r,y,z,u,pi_1,pi_2," + ",".join(
            f"w_hat_{i}_{j}" for i in (1, 2) for j in (1, 2, 3)
        )
        back = read_trace_csv(path)
        assert np.array_equal(back["k"], tr.k)
        for name in ("y_r", "y", "z", "u"):
            assert np.array_equal(back[name], getattr(tr, name))
        assert np.array_equal(back["posteriors"], tr.posteriors)
        assert np.array_equal(back["w_hat"], tr.w_hat)

    def test_overwrite_needs_force(self, base, tmp_path):
        tr = run_episode(short(base, steps=10))
        path = tmp_path / "trace.csv"
        export_trace_csv(tr, path)
        with pytest.raises(FileExistsError):
            export_trace_csv(tr, path)
        export_trace_csv(tr, path, force=True)

    def test_identical_config_identical_bytes(self, base, tmp_path):
        cfg = short(base, steps=45, seed=21)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace_csv(run_episode(cfg), p1)
        export_trace_csv(run_episode(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_or_headerless_file_rejected_with_path(self, base, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            read_trace_csv(empty)
        export_trace_csv(run_episode(short(base, steps=10)), tmp_path / "trace.csv")
        headerless = tmp_path / "headerless.csv"
        headerless.write_text("\n".join((tmp_path / "trace.csv").read_text().splitlines()[1:]))
        with pytest.raises(ValueError, match="headerless.csv"):
            read_trace_csv(headerless)
        # two pi_ columns but five w_hat_ columns
        ragged = tmp_path / "ragged.csv"
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        ragged.write_text("\n".join(text.rsplit(",", 1)[0] for text in lines))
        with pytest.raises(ValueError, match="ragged.csv: not a trace CSV"):
            read_trace_csv(ragged)

    @pytest.mark.parametrize(
        "header",
        [
            "k,y_r,y,z,u",
            # no estimate columns: d = 0, which no plant has
            "k,y_r,y,z,u,pi_1",
            "k,y_r,y,z,u,w_hat_1_1,pi_1",
            "k,y_r,y,z,u,pi_2,w_hat_2_1",
            "k,y_r,y,z,u,pi_1,w_hat_1_2",
            "k,y,y_r,z,u,pi_1,w_hat_1_1",
        ],
    )
    def test_header_the_writer_never_writes_is_rejected(self, tmp_path, header):
        path = tmp_path / "odd.csv"
        path.write_text(header + "\n" + ",".join(["1"] + ["0.5"] * header.count(",")) + "\n")
        with pytest.raises(ValueError, match="odd.csv: not a trace CSV"):
            read_trace_csv(path)

    def test_header_only_file_reads_as_no_rows(self, base, tmp_path):
        path = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        back = read_trace_csv(path)
        assert back["k"].size == 0
        assert back["posteriors"].shape == (0, 2)
        assert back["w_hat"].shape == (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(extreme_traces())
    @example(trace_of(*[np.array(EXTREMES)] * 4, np.array(EXTREMES)[:, None], np.array(EXTREMES)[:, None, None]))
    def test_round_trip_is_exact_at_extreme_finite_values(self, tmp_path_factory, tr):
        path = tmp_path_factory.mktemp("round_trip") / "trace.csv"
        export_trace_csv(tr, path)
        back = read_trace_csv(path)
        assert np.array_equal(back["k"], tr.k)
        for name in ("y_r", "y", "z", "u", "posteriors", "w_hat"):
            assert back[name].shape == getattr(tr, name).shape
            assert back[name].tobytes() == getattr(tr, name).tobytes()

    def test_exported_text_is_pinned(self, tmp_path):
        row = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.0])
        table = np.array([row, row[::-1]])
        path = tmp_path / "trace.csv"
        export_trace_csv(trace_of(*table[:, :4].T, table[:, 4:5], table[:, None, 5:]), path)
        assert path.read_bytes() == (
            b"k,y_r,y,z,u,pi_1,w_hat_1_1,w_hat_1_2,w_hat_1_3\r\n"
            b"1,nan,inf,-inf,-0,4.9406564584124654e-324,1.7976931348623157e+308,-1.7976931348623157e+308,1\r\n"
            b"2,1,-1.7976931348623157e+308,1.7976931348623157e+308,4.9406564584124654e-324,-0,-inf,inf,nan\r\n"
        )
        empty = np.empty(0)
        export_trace_csv(trace_of(empty, empty, empty, empty, np.empty((0, 2)), np.empty((0, 2, 1))), path, force=True)
        assert path.read_bytes() == b"k,y_r,y,z,u,pi_1,pi_2,w_hat_1_1,w_hat_2_1\r\n"

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:], 4, "expected 13 fields, got 12"),
            (lambda lines: lines[:2] + [lines[2] + ",0"] + lines[3:], 3, "expected 13 fields, got 14"),
            (lambda lines: lines[:5] + [lines[5].replace(",", ",x", 1)] + lines[6:], 6, "could not convert"),
            (lambda lines: lines + [""], 12, "expected 13 fields, got 0"),
        ],
        ids=["short row", "long row", "non-number", "trailing blank line"],
    )
    def test_malformed_row_rejected_with_path_and_line(self, base, tmp_path, edit, line, message):
        path = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=f"trace.csv: line {line}: {message}"):
            read_trace_csv(path)

    @pytest.mark.parametrize("short_line, bad_line", [(4, 6), (6, 4)])
    def test_first_malformed_row_in_file_order_is_named(self, base, tmp_path, short_line, bad_line):
        path = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), path)
        lines = path.read_text().splitlines()
        lines[short_line - 1] = lines[short_line - 1].rsplit(",", 1)[0]
        lines[bad_line - 1] = lines[bad_line - 1].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        first = min(short_line, bad_line)
        message = "expected 13 fields, got 12" if first == short_line else "could not convert"
        with pytest.raises(ValueError, match=f"trace.csv: line {first}: {message}"):
            read_trace_csv(path)

    def test_lf_line_ends_and_quoted_fields_read_back_the_same(self, base, tmp_path):
        path = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), path)
        crlf = path.read_bytes()
        assert crlf.count(b"\r\n") == 11
        lines = crlf.decode().split("\r\n")[:-1]
        lf = tmp_path / "lf.csv"
        lf.write_bytes(crlf.replace(b"\r\n", b"\n"))
        quoted = tmp_path / "quoted.csv"
        fields = lines[3].split(",")
        fields[2] = f'"{fields[2]}"'
        quoted.write_text("\r\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\r\n", newline="")
        expected = read_trace_csv(path)
        for copy in (lf, quoted):
            back = read_trace_csv(copy)
            assert back.keys() == expected.keys()
            for name, values in expected.items():
                assert back[name].tobytes() == values.tobytes()

    @pytest.mark.parametrize("ks, line, message", K_COLUMNS, ids=K_COLUMN_IDS)
    def test_k_that_is_not_an_integer_rejected_with_path_and_line(self, base, tmp_path, ks, line, message):
        path = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), path)
        lines = path.read_text().splitlines()
        for i, k in enumerate(ks, 1):
            lines[i] = k + lines[i][lines[i].index(",") :]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"trace.csv: line {line}: {message}"):
            read_trace_csv(path)

    def test_file_that_is_not_utf8_rejected_with_path(self, base, tmp_path):
        path = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), path)
        path.write_bytes(path.read_bytes() + b"\xff\r\n")
        with pytest.raises(ValueError, match="trace.csv: not a text file"):
            read_trace_csv(path)

    def test_field_past_the_csv_size_limit_rejected_with_path_and_line(self, base, tmp_path):
        # the csv module's own error escaped: "_csv.Error: field larger than field limit (131072)"
        path = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",", "," + "1" * 200_000, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"trace.csv: line 4: field larger than field limit \(131072\)"):
            read_trace_csv(path)

    def test_io_error_mentions_path(self, base, tmp_path):
        tr = run_episode(short(base, steps=10))
        missing = tmp_path / "no_such_dir" / "trace.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            export_trace_csv(tr, missing)


# seed bases from 0 to past 2**64, crowded around 2**63, where the seeds leave int64
SEED_BASES = st.integers(0, 2**65) | st.integers(2**63 - 8, 2**63 + 8)
# a run's error: every float that round-trips through text (a NaN's payload does not), and the extremes
J_VALUES = st.floats(allow_nan=False) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]
)
SUMMARY_TOKENS = st.sampled_from(["ensemble", "rls", "oracle"]) | st.integers(0, 12).map(lambda i: f"single-ald:{i}")
SUMMARIES = st.lists(
    st.builds(McSummary, SUMMARY_TOKENS, st.just((1, 5)), SEED_BASES, st.lists(J_VALUES, min_size=1, max_size=6)),
    min_size=1,
    max_size=4,
)


class TestResultIdentity:
    # the generated __eq__ compared the array fields: == raised ValueError "The truth value of an
    # array with more than one element is ambiguous", and hash() TypeError "unhashable type"
    def test_traces_compare_and_hash_by_identity(self, base):
        cfg = short(base, steps=20)
        one, two = run_episode(cfg), run_episode(cfg)
        assert one == one and one != two and one in [one] and one not in [two]
        assert hash(one) == hash(one) and len({one, two, replace(one)}) == 3
        assert all(np.array_equal(getattr(one, f.name), getattr(two, f.name)) for f in fields(one))

    def test_summaries_compare_and_hash_by_identity(self):
        [s] = compare_controllers(short(preset_config("noise1"), steps=20), ["ensemble"], 3, (1, 20))
        again = replace(s)
        assert s == s and s != again and s not in [again] and {s: 1}[s] == 1 and hash(s) != hash(again)
        assert np.array_equal(s.j_runs, again.j_runs)


class TestSummaryFields:
    @pytest.mark.parametrize(
        "seed_base, window, message",
        [
            # each was stored: 1.5 and True gave the seeds [1 2], -5 gave [-5 -4]
            (1.5, (1, 10), r"^seed_base must be an integer, got 1\.5$"),
            (True, (1, 10), r"^seed_base must be an integer, got True$"),
            (-5, (1, 10), r"^seed_base must be at least 0, got -5$"),
            (0, (10, 1), r"^empty window \(10, 1\)$"),
            (0, (0, 10), r"^window \(0, 10\) starts before trace step 1$"),
            (0, (1, 2.5), r"^window \(1, 2\.5\) bound must be an integer, got 2\.5$"),
            (0, (1,), r"^window \(1,\) must be a \(k_lo, k_hi\) pair$"),
        ],
    )
    def test_seed_base_and_window_are_checked(self, seed_base, window, message):
        with pytest.raises(ValueError, match=message):
            McSummary("ensemble", window, seed_base, np.zeros(2))

    def test_seed_base_and_window_are_stored_as_python_ints(self):
        s = McSummary("ensemble", (np.int64(1), np.int32(10)), np.int64(3), np.zeros(2))
        assert (s.window, s.seed_base) == ((1, 10), 3)
        assert all(type(v) is int for v in (*s.window, s.seed_base))

    def test_a_list_of_runs_is_stored_as_an_array(self):
        # a list was stored: .seeds raised AttributeError "'list' object has no attribute 'size'"
        s = McSummary("ensemble", (1, 10), 0, [0.1, 0.2, math.nan])
        assert s.seeds.tolist() == [0, 1, 2] and (s.runs_ok, s.runs_failed) == (2, 1)
        assert s.j_runs.dtype == np.float64 and s.j_runs.tolist()[:2] == [0.1, 0.2]

    @pytest.mark.parametrize(
        "j_runs, message",
        [
            # a (1, 2) array was stored, and its seeds were [0 1]
            (np.zeros((1, 2)), r"^j_runs must be one-dimensional, got shape \(1, 2\)$"),
            (np.float64(0.5), r"^j_runs must be one-dimensional, got shape \(\)$"),
            ([[0.1], [0.2, 0.3]], r"^j_runs must be one-dimensional, got nested sequences of unequal lengths$"),
            ([True, False], r"^j_runs entries must be real numbers, got dtype bool$"),
            (["0.5"], r"^j_runs entries must be real numbers, got dtype <U3$"),
        ],
        ids=["two-dimensional", "scalar", "ragged", "bools", "strings"],
    )
    def test_runs_that_are_not_a_row_of_numbers_are_rejected(self, j_runs, message):
        with pytest.raises(ValueError, match=message):
            McSummary("ensemble", (1, 10), 0, j_runs)

    def test_an_unknown_controller_is_rejected(self):
        # "pid" was stored, and only export_summary_csv parsed it
        with pytest.raises(ConfigError, match=r"unknown controller 'pid'"):
            McSummary("pid", (1, 10), 0, np.zeros(2))

    def test_the_runs_are_a_read_only_copy(self):
        # a later write into the caller's array changed runs_ok
        j_runs = np.array([0.1, 0.2])
        s = McSummary("rls", (1, 10), 0, j_runs)
        j_runs[0] = np.nan
        assert s.runs_ok == 2 and s.j_runs.tolist() == [0.1, 0.2]
        with pytest.raises(ValueError, match="read-only"):
            s.j_runs[0] = np.nan

    def test_two_dimensional_runs_never_reach_a_file(self, tmp_path):
        # export_summary_csv wrote the header, then raised TypeError on the (2, 1) array's rows
        path = tmp_path / "summary.csv"
        with pytest.raises(ValueError, match="one-dimensional"):
            export_summary_csv([McSummary("rls", (1, 10), 0, np.zeros((2, 1)))], path)
        assert not path.exists()


class TestSummaryCsv:
    def test_round_trip(self, base, tmp_path):
        cfg = short(base, steps=60)
        summaries = compare_controllers(cfg, ["ensemble", "rls"], 3, (10, 60))
        path = tmp_path / "summary.csv"
        export_summary_csv(summaries, path)
        # an iterator was used up by the check of its summaries, which left a file of two headers
        export_summary_csv(iter(summaries), tmp_path / "from_iterator.csv")
        assert (tmp_path / "from_iterator.csv").read_bytes() == path.read_bytes()
        per_run, aggregate = read_summary_csv(path)
        assert len(per_run) == 6
        assert [row["controller"] for row in aggregate] == ["ensemble", "rls"]
        for s in summaries:
            rows = [r for r in per_run if r["controller"] == s.controller]
            assert [r["j_bar_run"] for r in rows] == list(s.j_runs)
            agg = next(r for r in aggregate if r["controller"] == s.controller)
            assert agg["j_bar_mean"] == s.j_bar_mean
            assert agg["runs_ok"] == s.runs_ok

    @settings(max_examples=100, deadline=None)
    @given(
        j_runs=arrays(
            np.float64,
            st.integers(1, 6),
            elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([np.nan, np.inf, -np.inf]),
        ),
        seed_base=st.one_of(SEED_BASES, SEED_BASES.filter(lambda s: s < 2**63).map(np.int64)),
    )
    @example(j_runs=np.array([np.nan, np.inf]), seed_base=np.int64(2**63 - 1))
    @example(j_runs=np.array([1.7976931348623157e308] * 2), seed_base=0)
    def test_derived_values_follow_the_runs_and_round_trip(self, tmp_path_factory, j_runs, seed_base):
        s = McSummary("ensemble", (1, 10), seed_base, j_runs)
        expected_seeds = [int(seed_base) + i for i in range(j_runs.size)]
        assert s.seeds.tolist() == expected_seeds
        assert s.seeds.dtype == (np.int64 if expected_seeds[-1] < 2**63 else object)
        finite = j_runs[np.isfinite(j_runs)]
        assert (s.runs_ok, s.runs_failed) == (finite.size, j_runs.size - finite.size)
        with np.errstate(over="ignore"):
            mean = float(np.mean(finite)) if finite.size else math.nan
        assert s.j_bar_mean == mean or math.isnan(s.j_bar_mean) and math.isnan(mean)

        path = tmp_path_factory.mktemp("summary") / "summary.csv"
        export_summary_csv([s], path)
        per_run, [aggregate] = read_summary_csv(path)
        assert [(r["controller"], r["run"], r["seed"]) for r in per_run] == [
            ("ensemble", i + 1, seed) for i, seed in enumerate(expected_seeds)
        ]
        assert np.array([r["j_bar_run"] for r in per_run]).tobytes() == j_runs.tobytes()
        assert aggregate["controller"] == "ensemble"
        assert (aggregate["runs_ok"], aggregate["runs_failed"]) == (s.runs_ok, s.runs_failed)
        assert np.float64(aggregate["j_bar_mean"]).tobytes() == np.float64(s.j_bar_mean).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(summaries=SUMMARIES)
    @example(summaries=[McSummary("rls", (1, 5), 2**63 - 1, [-0.0, math.nan]), McSummary("rls", (1, 5), 0, [0.0])])
    def test_what_is_written_reads_back_bit_for_bit(self, tmp_path_factory, summaries):
        path = tmp_path_factory.mktemp("summary") / "summary.csv"
        export_summary_csv(summaries, path)
        per_run, aggregate = read_summary_csv(path)
        assert [(r["controller"], r["run"], r["seed"]) for r in per_run] == [
            (s.controller, i, seed) for s in summaries for i, seed in enumerate(s.seeds.tolist(), 1)
        ]
        j_runs = np.concatenate([s.j_runs for s in summaries])
        assert np.array([r["j_bar_run"] for r in per_run]).tobytes() == j_runs.tobytes()
        assert [(r["controller"], r["runs_ok"], r["runs_failed"]) for r in aggregate] == [
            (s.controller, s.runs_ok, s.runs_failed) for s in summaries
        ]
        means = np.array([s.j_bar_mean for s in summaries])
        assert np.array([r["j_bar_mean"] for r in aggregate]).tobytes() == means.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(summaries=SUMMARIES, data=st.data())
    def test_an_edited_derived_field_is_rejected_with_path_and_line(self, tmp_path_factory, summaries, data):
        # the per-run block's run and seed numbers, and every aggregate line, follow from the summaries;
        # runs numbered 1 and 7 beside the aggregate row "ensemble,5,3,0.125" read back without error
        path = tmp_path_factory.mktemp("summary") / "summary.csv"
        export_summary_csv(summaries, path)
        lines = path.read_text().splitlines()
        runs = range(1, len(lines) - 1 - len(summaries))
        aggregate = range(runs.stop + 1, len(lines))
        edits = ["run", "seed", "controller", "runs_ok", "runs_failed", "j_bar_mean", "drop", "duplicate", "swap"]
        edit = data.draw(st.sampled_from(edits))
        # a run-1 row's seed is its summary's seed_base, which no other field follows
        rows = {"run": runs, "seed": [n for n in runs if lines[n].split(",")[1] != "1"]}.get(edit, aggregate)
        assume(len(rows) > (edit == "swap"))
        n = data.draw(st.sampled_from(rows))
        fields = lines[n].split(",")
        if edit == "controller":
            fields[0] = data.draw(SUMMARY_TOKENS.filter(lambda token: token != fields[0]))
        elif edit == "j_bar_mean":
            fields[3] = "%.17g" % data.draw(J_VALUES.filter(lambda j: "%.17g" % j != fields[3]))
        elif edit in ("run", "seed", "runs_ok", "runs_failed"):
            i = {"run": 1, "seed": 2, "runs_ok": 1, "runs_failed": 2}[edit]
            fields[i] = str(int(fields[i]) + data.draw(st.integers(-3, 3).filter(bool)))
        lines[n] = ",".join(fields)
        if edit == "drop":
            del lines[n]
        elif edit == "duplicate":
            lines.insert(n, lines[n])
        elif edit == "swap":
            others = [m for m in aggregate if lines[m] != lines[n]]
            assume(others)
            m = data.draw(st.sampled_from(others))
            lines[n], lines[m] = lines[m], lines[n]
        path.write_text("\r\n".join(lines) + "\r\n", newline="")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line ") + r"\d+: "):
            read_summary_csv(path)

    def test_empty_or_trace_file_rejected_with_path(self, base, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty.csv: not a summary CSV"):
            read_summary_csv(empty)
        trace = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), trace)
        with pytest.raises(ValueError, match="trace.csv: not a summary CSV"):
            read_summary_csv(trace)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("controller,run,seed,j_bar_run\nensemble,1,0\n", 2, "expected 4 fields, got 3"),
            ("controller,run,seed,j_bar_run\nensemble,1,0,0.5\n\n", 3, "expected 4 fields, got 0"),
            ("controller,run,seed,j_bar_run\nensemble,1,x,0.5\n", 2, "invalid literal"),
            (
                "controller,run,seed,j_bar_run\nensemble,1,0,0.5\ncontroller,runs_ok,runs_failed,j_bar_mean\n"
                "ensemble,1,0,0.5,7\n",
                4,
                "expected 4 fields, got 5",
            ),
            (
                "controller,run,seed,j_bar_run\nensemble,1,0,0.5\ncontroller,runs_ok,runs_failed,j_bar_mean\n"
                "ensemble,1,0,half\n",
                4,
                "could not convert",
            ),
        ],
        ids=["short row", "trailing blank line", "non-number", "long aggregate row", "non-number aggregate"],
    )
    def test_malformed_row_rejected_with_path_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "summary.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"summary.csv: line {line}: {message}"):
            read_summary_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("pid,1,0,0.5", "run.controller: unknown controller 'pid'"),
            ("rls,1,-2,0.5", "seed_base must be at least 0, got -2"),
        ],
        ids=["unknown-controller", "negative-seed"],
    )
    def test_a_block_start_that_mcsummary_rejects_names_path_and_line(self, tmp_path, row, message):
        # both read back without error: the reader checked neither field of a per-run row
        path = tmp_path / "summary.csv"
        path.write_text(f"controller,run,seed,j_bar_run\nensemble,1,0,0.5\n{row}\ncontroller,runs_ok,runs_failed,j_bar_mean\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line 3: {message}")):
            read_summary_csv(path)

    def test_a_file_of_the_two_headers_alone_is_rejected_with_path(self, tmp_path):
        # it read back as ([], []), though export_summary_csv refuses to write a file without summaries
        path = tmp_path / "summary.csv"
        path.write_text("controller,run,seed,j_bar_run\ncontroller,runs_ok,runs_failed,j_bar_mean\n")
        message = r"line 2: expected a per-run row with run 1, got 'controller,runs_ok,runs_failed,j_bar_mean\r\n'"
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            read_summary_csv(path)

    # lines 1-5 the per-run block of ensemble and oracle, 6 the aggregate header, 7-8 the aggregate rows
    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (lambda lines: lines[:5], None, "no aggregate block"),
            (lambda lines: lines[:1], None, "no aggregate block"),
            (
                lambda lines: lines[:3] + [lines[5]] + lines[3:5] + lines[6:],
                5,
                r"expected 'ensemble,2,0,0.375\r\n', got 'oracle,1,0,0.125\r\n'",
            ),
            (lambda lines: lines + [lines[5]], 9, r"expected end of file, got 'controller,runs_ok,runs_failed,j_bar_mean\r\n'"),
            (lambda lines: lines[:6] + lines[7:5:-1], 7, r"expected 'ensemble,2,0,0.375\r\n', got 'oracle,1,1,0.125\r\n'"),
            (lambda lines: lines + [lines[7]], 9, r"expected end of file, got 'oracle,1,1,0.125\r\n'"),
            (lambda lines: lines[:7], 8, r"expected 'oracle,1,1,0.125\r\n', got end of file"),
        ],
        ids=["cut-after-the-runs", "header-only", "header-above-a-block", "second-header", "swapped", "extra", "short"],
    )
    def test_block_structure_rejected_with_path_and_line(self, tmp_path, edit, line, message):
        # a file cut after its per-run rows read back with no aggregate rows, and per-run rows below a misplaced
        # aggregate header were read as aggregate rows ("oracle,1,0,..." as runs_ok=1, runs_failed=0)
        path = tmp_path / "summary.csv"
        summaries = [McSummary("ensemble", (1, 5), 0, [0.5, 0.25]), McSummary("oracle", (1, 5), 0, [0.125, np.nan])]
        export_summary_csv(summaries, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 8 and lines[5] == "controller,runs_ok,runs_failed,j_bar_mean"
        path.write_text("\n".join(edit(lines)) + "\n")
        where = "" if line is None else f"line {line}: "
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {where}{message}")):
            read_summary_csv(path)

    def test_a_repeated_controller_round_trips(self, tmp_path):
        # the block check took the expected order from the distinct controllers, so the second rls row failed
        path = tmp_path / "summary.csv"
        summaries = [
            McSummary("rls", (1, 5), 0, [0.5, 0.25]),
            McSummary("oracle", (1, 5), 0, [0.125]),
            McSummary("rls", (1, 5), 3, [np.nan, 2.0, 4.0]),
        ]
        export_summary_csv(summaries, path)
        per_run, aggregate = read_summary_csv(path)
        assert [(r["controller"], r["run"], r["seed"]) for r in per_run] == [
            ("rls", 1, 0), ("rls", 2, 1), ("oracle", 1, 0), ("rls", 1, 3), ("rls", 2, 4), ("rls", 3, 5)
        ]
        assert [(r["controller"], r["runs_ok"], r["runs_failed"]) for r in aggregate] == [
            ("rls", 2, 0), ("oracle", 1, 0), ("rls", 2, 1)
        ]

    def test_file_that_is_not_utf8_rejected_with_path(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_bytes(b"controller,run,seed,j_bar_run\r\nensemble,1,0,\xff\r\n")
        with pytest.raises(ValueError, match="summary.csv: not a text file"):
            read_summary_csv(path)

    def test_field_past_the_csv_size_limit_rejected_with_path_and_line(self, tmp_path):
        # the csv module's own error escaped: "_csv.Error: field larger than field limit (131072)"
        path = tmp_path / "summary.csv"
        path.write_text("controller,run,seed,j_bar_run\nensemble,1,0,0.5\nensemble,2,1," + "1" * 200_000 + "\n")
        with pytest.raises(ValueError, match=r"summary.csv: line 3: field larger than field limit \(131072\)"):
            read_summary_csv(path)

    def test_empty_rejected_before_write(self, base, tmp_path):
        path = tmp_path / "summary.csv"
        with pytest.raises(ValueError):
            export_summary_csv([], path)
        # an empty iterator passed the emptiness check and wrote both headers
        with pytest.raises(ValueError, match="nothing to export: no summaries"):
            export_summary_csv(iter([]), path)
        assert not path.exists()
        [summary] = compare_controllers(short(base, steps=20), ["rls"], 2, (1, 20))
        with pytest.raises(ValueError, match=r"^summaries entries must be McSummary, got 'rls'$"):
            export_summary_csv([summary, "rls"], path)
        assert not path.exists()
        empty = replace(summary, controller="oracle", j_runs=summary.j_runs[:0])
        with pytest.raises(ValueError, match="summary for 'oracle' has no runs"):
            export_summary_csv([summary, empty], path)
        assert not path.exists()

    @pytest.mark.parametrize("token", ["a,b", 'rls"', "rls\n", ""])
    def test_invalid_controller_rejected_before_write(self, base, tmp_path, token):
        # no field is quoted, so a controller that would need quoting must never reach the file
        path = tmp_path / "summary.csv"
        [summary] = compare_controllers(short(base, steps=20), ["rls"], 2, (1, 20))
        with pytest.raises(ConfigError, match="run.controller"):
            export_summary_csv([summary, replace(summary, controller=token)], path)
        assert not path.exists()


def minimal_doc(**overrides):
    doc = {
        "plant": {"a": [-1.41, 0.9], "b": [0.5]},
        "noise": {
            "components": [
                {"weight": 0.8, "kind": "ald", "tau": 0.95, "mu": 0.0, "sigma": 0.01},
                {"weight": 0.2, "kind": "ald", "tau": 0.85, "mu": 0.0, "sigma": 0.01},
            ]
        },
        "hypotheses": [{"tau": 0.95, "mu": 0.0, "sigma": 0.01}],
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_defaults_applied(self):
        cfg = config_from_dict(minimal_doc())
        assert cfg.steps == 1000
        assert cfg.seed == 0
        assert cfg.controller == "ensemble"
        assert cfg.feedback == "output"
        assert cfg.p0_scale == 100.0
        assert cfg.trajectory.kind == "sine"
        assert np.allclose(cfg.initial_w(), 0.1)

    def test_unknown_key_rejected_with_path(self):
        doc = minimal_doc()
        doc["noise"]["components"][1]["taus"] = 0.5
        with pytest.raises(ConfigError, match=r"noise\.components\[1\]\.taus"):
            config_from_dict(doc)

    def test_weight_sum_violation(self):
        doc = minimal_doc()
        doc["noise"]["components"][0]["weight"] = 0.7999
        with pytest.raises(ConfigError, match="sum to 1"):
            config_from_dict(doc)

    def test_component_kind_fields_are_exclusive(self):
        doc = minimal_doc()
        doc["noise"]["components"][0]["mean"] = 1.0
        with pytest.raises(ConfigError, match="not valid for an ald component"):
            config_from_dict(doc)

    def test_single_ald_index_checked(self):
        with pytest.raises(ConfigError, match="out of range"):
            config_from_dict(minimal_doc(run={"controller": "single-ald:4"}))

    def test_steps_minimum(self):
        with pytest.raises(ConfigError, match="steps"):
            config_from_dict(minimal_doc(run={"steps": 1}))

    def test_w0_length_checked(self):
        with pytest.raises(ConfigError, match="w0"):
            config_from_dict(minimal_doc(estimator={"w0": [0.1, 0.1]}))

    @pytest.mark.parametrize("field", ["steps", "seed"])
    @pytest.mark.parametrize(
        "value", [100.0, 3.0, True, np.float64(100.0), "100"], ids=["float", "float-3", "bool", "numpy-float", "str"]
    )
    def test_non_integer_steps_or_seed_rejected(self, base, field, value):
        with pytest.raises(ConfigError, match=rf"run\.{field} must be an integer"):
            replace(base, **{field: value})

    def test_numpy_integer_steps_and_seed_accepted(self, base):
        cfg = replace(base, steps=np.int64(20), seed=np.int32(3))
        assert_same_trace(run_episode(cfg), run_episode(replace(base, steps=20, seed=3)))

    @pytest.mark.parametrize(
        "token", ["single-ald:+1", "single-ald: 1", "single-ald:0_1", "single-ald:1 ", "single-ald:\u0661",
                  "single-ald:\u00b9", "single-ald:-1", "single-ald:", "single-ald:1.0", "single-ald:0x1"]
    )
    def test_single_ald_index_is_ascii_digits_only(self, token):
        with pytest.raises(ConfigError, match="bad single-ald index"):
            parse_controller(token)

    @pytest.mark.parametrize("token,index", [("single-ald:0", 0), ("single-ald:12", 12), ("single-ald:01", 1)])
    def test_single_ald_index_parsed(self, token, index):
        assert parse_controller(token) == ("single_ald", index)

    def test_bad_controller_token(self):
        with pytest.raises(ConfigError, match="unknown controller"):
            config_from_dict(minimal_doc(run={"controller": "pid"}))

    def test_load_config_file(self, tmp_path):
        import json

        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal_doc(run={"steps": 77, "seed": 4})))
        cfg = load_config(path)
        assert cfg.steps == 77 and cfg.seed == 4

    def test_independent_loads_compare_by_value(self):
        first, second = config_from_dict(minimal_doc()), config_from_dict(minimal_doc())
        assert first.plant is not second.plant
        assert first == second and hash(first) == hash(second)
        assert config_from_dict(minimal_doc(plant={"a": [-1.41, 0.91], "b": [0.5]})) != first
        assert config_from_dict(minimal_doc(plant={"a": [-1.41, 0.9], "b": [0.6]})) != first

    def test_load_config_reports_path_on_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="missing.json"):
            load_config(tmp_path / "missing.json")

    def test_load_config_reports_path_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="broken.json"):
            load_config(path)

    def test_load_config_reports_path_on_an_integer_over_the_digit_limit(self, tmp_path):
        # json.loads raises a plain ValueError for it, which escaped without the path
        path = tmp_path / "huge.json"
        path.write_text('{"plant": {"a": [1' + "0" * 5000 + '], "b": [0.5]}}')
        with pytest.raises(ConfigError, match="huge.json: invalid JSON"):
            load_config(path)

    def test_load_config_reports_path_on_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"run": {"controller": "\xff"}}')
        with pytest.raises(ConfigError, match="latin.json: not a text file"):
            load_config(path)


def base_doc():
    return json.loads(resources.files("aldcontrol").joinpath("presets", "base.json").read_text())


# (key path into the base preset, new value, the start of the error message);
# the message must name the source and the dotted key path of the bad key
PRESET_EDITS = [
    # wrong type
    (("plant",), [], r"preset:base\.plant: expected a mapping"),
    (("plant", "a"), [-1.41, "0.9"], r"preset:base\.plant: plant coefficients a and b entries must be a number"),
    (("noise", "components"), {}, r"preset:base\.noise\.components: expected a list"),
    (("noise", "components", 0, "tau"), "0.95", r"preset:base\.noise\.components\[0\]: tau must be a number"),
    (("noise", "components", 1, "kind"), "cauchy", r"preset:base\.noise\.components\[1\]\.kind: expected 'ald'"),
    (("hypotheses",), {}, r"preset:base\.hypotheses: expected a list"),
    (("hypotheses", 1, "sigma"), [0.01], r"preset:base\.hypotheses\[1\]: sigma must be a number"),
    (("trajectory", "kind"), 3, r"preset:base\.trajectory: trajectory kind must be one of"),
    (("run", "steps"), 10.5, r"preset:base: run\.steps must be an integer"),
    (("run", "seed"), True, r"preset:base: run\.seed must be an integer"),
    (("run", "controller"), ["ensemble"], r"preset:base: run\.controller: unknown controller"),
    (("estimator", "w0"), 0.1, r"preset:base: estimator\.w0 must be one-dimensional"),
    (("controller", "u_max"), "1000", r"preset:base: controller\.u_max must be a number"),
    (("noise", "components", 0), 0.8, r"preset:base\.noise\.components\[0\]: expected a mapping"),
    (("noise", "components", 0, "kind"), ["ald"], r"preset:base\.noise\.components\[0\]\.kind: expected 'ald'"),
    (("estimator", "w0"), None, r"preset:base\.estimator\.w0: expected a value, got null"),
    # out of range
    (("plant", "b"), [0.0], r"preset:base\.plant: .*\bb\[0\]"),
    (("plant", "a"), [-1.41, math.inf], r"preset:base\.plant: .*\bfinite\b"),
    (
        ("noise", "components", 1),
        {"weight": 0.2, "kind": "gaussian", "mean": 0.0, "variance": 0.0},
        r"preset:base\.noise\.components\[1\]: .*\bvariance\b",
    ),
    (("hypotheses",), [], r"preset:base: run\.controller 'ensemble' requires at least one hypothesis"),
    (("noise", "components", 0, "weight"), -0.8, r"preset:base\.noise\.components\[0\]: .*\bweight\b"),
    (("noise", "components", 1, "sigma"), 0.0, r"preset:base\.noise\.components\[1\]: .*\bsigma\b"),
    (("hypotheses", 0, "tau"), 1.5, r"preset:base\.hypotheses\[0\]: .*\btau\b"),
    (("trajectory", "kind"), "zigzag", r"preset:base\.trajectory: .*\bkind\b"),
    (("trajectory", "frequency_hz"), -0.01, r"preset:base\.trajectory: .*\bfrequency_hz\b"),
    (("trajectory", "sample_period_s"), 0.0, r"preset:base\.trajectory: .*\bsample_period_s\b"),
    (("trajectory", "amplitude"), math.nan, r"preset:base\.trajectory: .*\bamplitude\b"),
    (("run", "steps"), 1, r"preset:base: run\.steps\b"),
    (("run", "seed"), -1, r"preset:base: run\.seed must be at least 0, got -1"),
    (("run", "controller"), "pid", r"preset:base: run\.controller\b"),
    (("run", "controller"), "single-ald:2", r"preset:base: run\.controller\b"),
    (("run", "controller"), "single-ald:x", r"preset:base: run\.controller: bad single-ald index"),
    (("run", "controller"), "single-ald:-1", r"preset:base: run\.controller: bad single-ald index"),
    (("run", "feedback"), "open", r"preset:base: run\.feedback\b"),
    (("estimator", "w0"), [0.1, 0.1], r"preset:base: estimator\.w0\b"),
    (("estimator", "w0"), [0.1, math.nan, 0.1], r"preset:base: estimator\.w0 entries must be finite"),
    (("estimator", "w0"), [0.1, 0.1, -math.inf], r"preset:base: estimator\.w0 entries must be finite"),
    (("estimator", "p0_scale"), 0.0, r"preset:base: estimator\.p0_scale\b"),
    (("controller", "eps_b"), -1e-6, r"preset:base: controller\.eps_b\b"),
    (("controller", "u_max"), math.inf, r"preset:base: controller\.u_max\b"),
    (("hypotheses", 0, "sigma"), 10**400, r"preset:base\.hypotheses\[0\]: sigma must be finite, got an int too large"),
    # unknown key
    (("seed",), 0, r"preset:base\.seed: unknown key"),
    (("plant", "c"), [1.0], r"preset:base\.plant\.c: unknown key"),
    (("noise", "weights"), [1.0], r"preset:base\.noise\.weights: unknown key"),
    (("noise", "components", 1, "taus"), 0.5, r"preset:base\.noise\.components\[1\]\.taus: unknown key"),
    (("noise", "components", 0, "mean"), 0.0, r"preset:base\.noise\.components\[0\]\.mean: not valid for an ald"),
    (("hypotheses", 0, "weight"), 0.5, r"preset:base\.hypotheses\[0\]\.weight: unknown key"),
    (("trajectory", "phase"), 0.0, r"preset:base\.trajectory\.phase: unknown key"),
    (("run", "runs"), 10, r"preset:base\.run\.runs: unknown key"),
    (("estimator", "w_0"), [0.1, 0.1, 0.1], r"preset:base\.estimator\.w_0: unknown key"),
    (("controller", "likelihood_sigma_scaling"), True, r"preset:base\.controller\.likelihood_sigma_scaling: unknown key"),
]


DELETED = object()


def edited_base_doc(keys, value=DELETED):
    """The base preset document with the key at path ``keys`` set to ``value``, or deleted without one."""
    doc = base_doc()
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value is DELETED:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


@pytest.mark.parametrize(
    "keys,value,message",
    PRESET_EDITS,
    ids=[".".join(map(str, keys)) + f"={value!r}" for keys, value, _ in PRESET_EDITS],
)
def test_one_bad_key_is_reported_with_its_path(keys, value, message):
    config_from_dict(base_doc(), "preset:base")
    with pytest.raises(ConfigError, match="^" + message):
        config_from_dict(edited_base_doc(keys, value), "preset:base")


@pytest.mark.parametrize(
    "keys", [("plant",), ("noise",), ("plant", "b"), ("noise", "components", 1, "sigma"), ("hypotheses", 0, "tau")]
)
def test_missing_key_is_reported_with_its_path(keys):
    parent = "preset:base" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys[:-1])
    with pytest.raises(ConfigError, match=f"^{re.escape(parent)}\\.{keys[-1]}: missing required key"):
        config_from_dict(edited_base_doc(keys), "preset:base")


class TestPresets:
    @pytest.mark.parametrize("name", ["base", "noise1", "noise2", "noise3", "noise4"])
    def test_all_presets_load(self, name):
        cfg = preset_config(name)
        assert cfg.steps == 1000
        assert len(cfg.hypotheses) >= 2

    def test_base_hypotheses(self):
        cfg = preset_config("base")
        assert cfg.hypotheses[0] == AldParams(0.95, 0.0, 0.01)
        assert cfg.hypotheses[1] == AldParams(0.85, 0.0, 0.01)
        assert [c.weight for c in cfg.noise.components] == [0.8, 0.2]

    def test_noise2_second_component(self):
        cfg = preset_config("noise2")
        second = cfg.noise.components[1]
        assert second.weight == 0.01
        assert second.dist == AldParams(0.85, 0.0, 2.0)

    def test_gaussian_outlier_presets(self):
        for name, mean, var in (("noise3", 2.0, 0.01), ("noise4", 0.0, 2.0)):
            second = preset_config(name).noise.components[1].dist
            assert (second.mean, second.variance) == (mean, var)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("noise9")
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config(["base"])

    @pytest.mark.parametrize("name", PRESETS)
    def test_each_preset_is_parsed_once_and_shared(self, name):
        assert preset_config(name) is preset_config(name)
        assert preset_config(name) == config_from_dict(
            json.loads(resources.files("aldcontrol").joinpath("presets", f"{name}.json").read_text())
        )

    def test_shared_preset_is_read_only(self):
        cfg = preset_config("base")
        with pytest.raises(TypeError):
            cfg.plant.a[0] = 1.0
        with pytest.raises(TypeError):
            cfg.plant.b[0] = 1.0
        assert cfg.plant.a == (-1.41, 0.9)
        variant = replace(cfg, steps=50)
        assert variant.steps == 50 and preset_config("base").steps == 1000

    def test_load_config_rereads_its_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal_doc(run={"steps": 77})))
        assert load_config(path).steps == 77
        path.write_text(json.dumps(minimal_doc(run={"steps": 78})))
        assert load_config(path).steps == 78
