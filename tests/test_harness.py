import json
import math
import re
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import aldcontrol.harness as harness
from aldcontrol import (
    FEEDBACK_KINDS,
    PRESETS,
    AldParams,
    ArxParams,
    ConfigError,
    EpisodeTrace,
    MixtureComponent,
    NoiseModel,
    accumulated_error,
    config_from_dict,
    export_summary_csv,
    export_trace_csv,
    load_config,
    max_tracking_error,
    monte_carlo,
    compare_controllers,
    preset_config,
    read_summary_csv,
    read_trace_csv,
    run_episode,
)

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
        assert np.all(np.isnan(tr.y[tr.fail_step :]))
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
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(harness, "ensemble_control", broken)
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


def run_batch(cfgs, seeds):
    """Traces of every config for ``seeds`` from one core call, one list per config."""
    return harness._run_batch(cfgs, seeds, harness._noise_tape(cfgs[0].noise, seeds, cfgs[0].steps))


# a rare component whose draws reach 1e300 makes some runs diverge, at steps set by the noise
RARE_HUGE = NoiseModel(
    (MixtureComponent(0.998, AldParams(0.95, 0.0, 0.01)), MixtureComponent(0.002, AldParams(0.5, 0.0, 1e300)))
)


TOKENS = ["ensemble", "rls", "oracle", "single-ald:0", "single-ald:1"]
PLANTS = [None, ArxParams([0.5], [1.0, 0.3]), ArxParams([], [0.8]), ArxParams([0.3, -0.2, 0.1], [0.6])]


def with_plant(cfg, plant):
    return cfg if plant is None else replace(cfg, plant=plant, w0=None)


class TestBatchedCore:
    @settings(max_examples=40, deadline=None)
    @given(
        preset=st.sampled_from(PRESETS),
        plant=st.sampled_from(PLANTS),
        feedback=st.sampled_from(FEEDBACK_KINDS),
        token=st.sampled_from(TOKENS),
        steps=st.integers(2, 150),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_rows_equal_single_runs_and_follow_the_seeds(self, preset, plant, feedback, token, steps, seeds, data):
        cfg = with_plant(replace(preset_config(preset), steps=steps, feedback=feedback, controller=token), plant)
        [traces] = run_batch([cfg], seeds)
        for seed, trace in zip(seeds, traces):
            assert_same_trace(trace, run_episode(replace(cfg, seed=seed)))
        order = data.draw(st.permutations(range(len(seeds))))
        for i, trace in zip(order, run_batch([cfg], [seeds[i] for i in order])[0]):
            assert_same_trace(trace, traces[i])

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
        cfgs = [replace(cfg, controller=token) for token in tokens]
        stack = run_batch(cfgs, seeds)
        assert len(stack) == len(cfgs)
        for c, traces in zip(cfgs, stack):
            assert len(traces) == len(seeds)
            for seed, trace in zip(seeds, traces):
                assert_same_trace(trace, run_episode(replace(c, seed=seed)))

    @pytest.mark.parametrize("token,fail_steps", [("rls", {53, 279}), ("ensemble", {118, 222})])
    def test_rows_fail_at_their_own_steps_beside_healthy_rows(self, base, token, fail_steps):
        cfg = short(base, noise=RARE_HUGE, steps=300)
        seeds = [0, 3, 5, 8, 10]
        # the token's rows lead one stack with the other learning controller's rows and an oracle's
        cfgs = [replace(cfg, controller=t) for t in (token, "oracle", "ensemble" if token == "rls" else "rls")]
        stack = run_batch(cfgs, seeds)
        assert {t.fail_step for t in stack[0]} == fail_steps | {None}
        assert not any(t.failed for t in stack[1])
        for c, traces in zip(cfgs, stack):
            for seed, trace in zip(seeds, traces):
                assert_same_trace(trace, run_episode(replace(c, seed=seed)))
                if trace.failed:
                    dead = slice(trace.fail_step - 1, None)
                    for name in ("y_r", "y", "z", "u", "noise", "posteriors", "w_hat"):
                        assert np.all(np.isnan(getattr(trace, name)[dead])), name
                    assert np.all(np.isfinite(trace.y[: trace.fail_step - 1]))
                else:
                    assert np.all(np.isfinite(trace.y)) and np.all(np.isfinite(trace.w_hat))

    def test_compare_controllers_draws_the_noise_once(self, base, monkeypatch):
        calls = []
        draw = harness.mixture_sample
        monkeypatch.setattr(harness, "mixture_sample", lambda *args: calls.append(1) or draw(*args))
        compare_controllers(short(base, steps=20), ["ensemble", "rls", "single-ald:0", "oracle"], 3, (1, 20))
        assert len(calls) == 3 * 21

    @pytest.mark.parametrize("tokens", [["ensemble", "rls", "single-ald:0", "oracle"], ["oracle", "ensemble", "rls"]])
    def test_compare_controllers_makes_one_core_call_per_chunk(self, base, monkeypatch, tokens):
        rows = []
        batch = harness._run_batch
        monkeypatch.setattr(
            harness, "_run_batch", lambda cfgs, seeds, tape: rows.append(len(cfgs) * len(seeds)) or batch(cfgs, seeds, tape)
        )
        per_chunk = harness._BATCH_RUNS // len(tokens)
        cfg = short(base, steps=20)
        for runs, chunks in ((1, 1), (per_chunk, 1), (per_chunk + 1, 2), (2 * per_chunk + 1, 3)):
            rows.clear()
            compare_controllers(cfg, tokens, runs, (1, 20))
            assert len(rows) == chunks and sum(rows) == runs * len(tokens)
            assert max(rows) <= harness._BATCH_RUNS


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

    @pytest.mark.parametrize("token", ["pid", "single-ald:2"])
    def test_compare_controllers_checks_every_token_before_any_episode(self, base, monkeypatch, token):
        calls = []
        batch = harness._run_batch
        monkeypatch.setattr(harness, "_run_batch", lambda *args: calls.append(args) or batch(*args))
        with pytest.raises(ConfigError, match="run.controller"):
            compare_controllers(short(base, steps=20), ["ensemble", "rls", token], 2, (1, 20))
        assert calls == []

    def test_compare_controllers_reuses_seeds(self, base):
        cfg = short(base, steps=60, seed=3)
        s1, s2 = compare_controllers(cfg, ["ensemble", "rls"], 3, (10, 60))
        assert np.array_equal(s1.seeds, s2.seeds)

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
    return EpisodeTrace("ensemble", 0, np.arange(1, steps + 1), y_r, y, z, u, posteriors, w_hat, np.zeros(steps))


@st.composite
def extreme_traces(draw):
    steps, n_sub, dim = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))

    def column(*shape):
        return draw(arrays(np.float64, shape, elements=values))

    return trace_of(*(column(steps) for _ in range(4)), column(steps, n_sub), column(steps, n_sub, dim))


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

    def test_io_error_mentions_path(self, base, tmp_path):
        tr = run_episode(short(base, steps=10))
        missing = tmp_path / "no_such_dir" / "trace.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            export_trace_csv(tr, missing)


class TestSummaryCsv:
    def test_round_trip(self, base, tmp_path):
        cfg = short(base, steps=60)
        summaries = compare_controllers(cfg, ["ensemble", "rls"], 3, (10, 60))
        path = tmp_path / "summary.csv"
        export_summary_csv(summaries, path)
        per_run, aggregate = read_summary_csv(path)
        assert len(per_run) == 6
        assert [row["controller"] for row in aggregate] == ["ensemble", "rls"]
        for s in summaries:
            rows = [r for r in per_run if r["controller"] == s.controller]
            assert [r["j_bar_run"] for r in rows] == list(s.j_runs)
            agg = next(r for r in aggregate if r["controller"] == s.controller)
            assert agg["j_bar_mean"] == s.j_bar_mean
            assert agg["runs_ok"] == s.runs_ok

    def test_empty_or_trace_file_rejected_with_path(self, base, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty.csv: not a summary CSV"):
            read_summary_csv(empty)
        trace = tmp_path / "trace.csv"
        export_trace_csv(run_episode(short(base, steps=10)), trace)
        with pytest.raises(ValueError, match="trace.csv: not a summary CSV"):
            read_summary_csv(trace)

    def test_empty_rejected_before_write(self, tmp_path):
        path = tmp_path / "summary.csv"
        with pytest.raises(ValueError):
            export_summary_csv([], path)
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

    def test_bad_controller_token(self):
        with pytest.raises(ConfigError, match="unknown controller"):
            config_from_dict(minimal_doc(run={"controller": "pid"}))

    def test_load_config_file(self, tmp_path):
        import json

        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal_doc(run={"steps": 77, "seed": 4})))
        cfg = load_config(path)
        assert cfg.steps == 77 and cfg.seed == 4

    def test_load_config_reports_path_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="broken.json"):
            load_config(path)


def base_doc():
    return json.loads(resources.files("aldcontrol").joinpath("presets", "base.json").read_text())


# (key path into the base preset, new value, the start of the error message);
# the message must name the source and the dotted key path of the bad key
PRESET_EDITS = [
    # wrong type
    (("plant",), [], r"preset:base\.plant: expected a mapping"),
    (("plant", "a"), [-1.41, "0.9"], r"preset:base\.plant\.a: expected a list of numbers"),
    (("noise", "components"), {}, r"preset:base\.noise\.components: expected a list"),
    (("noise", "components", 0, "tau"), "0.95", r"preset:base\.noise\.components\[0\]\.tau: expected a number"),
    (("noise", "components", 1, "kind"), "cauchy", r"preset:base\.noise\.components\[1\]\.kind: expected 'ald'"),
    (("hypotheses",), {}, r"preset:base\.hypotheses: expected a list"),
    (("hypotheses", 1, "sigma"), [0.01], r"preset:base\.hypotheses\[1\]\.sigma: expected a number"),
    (("trajectory", "kind"), 3, r"preset:base\.trajectory\.kind: expected a string"),
    (("run", "steps"), 10.5, r"preset:base\.run\.steps: expected an integer"),
    (("run", "seed"), True, r"preset:base\.run\.seed: expected an integer"),
    (("run", "controller"), ["ensemble"], r"preset:base\.run\.controller: expected a string"),
    (("estimator", "w0"), 0.1, r"preset:base\.estimator\.w0: expected a list of numbers"),
    (("controller", "u_max"), "1000", r"preset:base\.controller\.u_max: expected a number"),
    # out of range
    (("plant", "b"), [0.0], r"preset:base\.plant: .*\bb\[0\]"),
    (("noise", "components", 0, "weight"), -0.8, r"preset:base\.noise\.components\[0\]: .*\bweight\b"),
    (("noise", "components", 1, "sigma"), 0.0, r"preset:base\.noise\.components\[1\]: .*\bsigma\b"),
    (("hypotheses", 0, "tau"), 1.5, r"preset:base\.hypotheses\[0\]: .*\btau\b"),
    (("trajectory", "kind"), "zigzag", r"preset:base\.trajectory: .*\bkind\b"),
    (("trajectory", "frequency_hz"), -0.01, r"preset:base\.trajectory: .*\bfrequency_hz\b"),
    (("run", "steps"), 1, r"preset:base: run\.steps\b"),
    (("run", "seed"), -1, r"preset:base: run\.seed must be nonnegative"),
    (("run", "controller"), "pid", r"preset:base: run\.controller\b"),
    (("run", "controller"), "single-ald:2", r"preset:base: run\.controller\b"),
    (("run", "feedback"), "open", r"preset:base: run\.feedback\b"),
    (("estimator", "w0"), [0.1, 0.1], r"preset:base: estimator\.w0\b"),
    (("estimator", "w0"), [0.1, math.nan, 0.1], r"preset:base: estimator\.w0 entries must be finite"),
    (("estimator", "w0"), [0.1, 0.1, -math.inf], r"preset:base: estimator\.w0 entries must be finite"),
    (("estimator", "p0_scale"), 0.0, r"preset:base: estimator\.p0_scale\b"),
    (("controller", "eps_b"), -1e-6, r"preset:base: controller\.eps_b\b"),
    (("controller", "u_max"), math.inf, r"preset:base: controller\.u_max\b"),
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


def edited_base_doc(keys, value=None):
    """The base preset document with the key at path ``keys`` set to ``value``, or deleted for None."""
    doc = base_doc()
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value is None:
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
