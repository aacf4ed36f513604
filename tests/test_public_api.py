import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import aldcontrol


def submodules():
    return [importlib.import_module(f"aldcontrol.{info.name}") for info in pkgutil.iter_modules(aldcontrol.__path__)]


def test_package_reexports_exactly_the_modules_public_names():
    declared = set().union(*(getattr(module, "__all__", ()) for module in submodules()))
    exported = {
        name for name, value in vars(aldcontrol).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == declared


def test_every_declared_name_exists():
    for module in submodules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


# The step API's binders, each with its parameter names in order: a new knob on a step is a reviewed edit here.
BINDER_PARAMETERS = {
    "bind_plant": ["p", "u_now", "y_hist"],
    "bind_filter": ["W", "P", "x", "rule"],
    "bind_posterior": ["hyps", "post"],
    "bind_ensemble_law": ["post", "W", "eta", "eps_b", "u_max"],
}


def test_binder_signatures_are_pinned():
    actual = {name: list(inspect.signature(getattr(aldcontrol, name)).parameters) for name in BINDER_PARAMETERS}
    assert actual == BINDER_PARAMETERS


# The parameters, in order, of the step each binder returns and of the one-row binder's two steps:
# a parameter added back to a step, such as an ``out`` on a law, is a reviewed edit here.
STEP_PARAMETERS = {
    "bind_plant": ["out"],
    "bind_filter": ["z"],
    "bind_posterior": ["residual"],
    "bind_ensemble_law": ["y_r_next"],
    "_bind_one_row.bayes": ["residual"],
    "_bind_one_row.law": ["y_r"],
}


def test_step_signatures_are_pinned():
    rows, hyps = 2, (aldcontrol.AldParams(0.9, 0.0, 0.5), aldcontrol.AldParams(0.3, 0.1, 2.0))
    post, W, x = np.full((rows, 2), 0.5), np.zeros((rows, 2, 3)), np.ones((rows, 1, 3))
    P = np.tile(np.eye(3), (rows, 2, 1, 1))
    plant = aldcontrol.preset_config("base").plant
    bayes, law = aldcontrol.controller._bind_one_row(hyps, post[:1], W[:1], x[:1, 0, 1:], 1e-6, 1e3)
    steps = {
        "bind_plant": aldcontrol.bind_plant(plant, np.zeros((rows, plant.m)), np.zeros((rows, plant.n))),
        "bind_filter": aldcontrol.bind_filter(W, P, x, aldcontrol.quantile_rule(hyps)),
        "bind_posterior": aldcontrol.bind_posterior(hyps, post),
        "bind_ensemble_law": aldcontrol.bind_ensemble_law(post, W, x[:, 0, 1:]),
        "_bind_one_row.bayes": bayes,
        "_bind_one_row.law": law,
    }
    assert {name: list(inspect.signature(step).parameters) for name, step in steps.items()} == STEP_PARAMETERS


# The results' stored fields in order, the rest being derived: a new stored result field is a reviewed edit.
RESULT_FIELDS = {
    "EpisodeTrace": ["controller", "seed", "y_r", "y", "z", "u", "posteriors", "w_hat", "noise", "fail_step"],
    "McSummary": ["controller", "window", "seed_base", "j_runs"],
}


def test_result_fields_are_pinned():
    actual = {name: [field.name for field in dataclasses.fields(getattr(aldcontrol, name))] for name in RESULT_FIELDS}
    assert actual == RESULT_FIELDS


def test_every_exported_binder_is_pinned():
    assert {name for name in dir(aldcontrol) if name.startswith("bind_")} == set(BINDER_PARAMETERS)


def test_the_core_binds_every_exported_binder():
    # the public step API is the set of steps the core binds: a binder that _run_batch stops calling leaves it
    tree = ast.parse(inspect.getsource(aldcontrol.harness))
    run_batch = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_run_batch")
    bound = {ast.unparse(call.func) for call in calls_in(run_batch)}
    assert {name for name in bound if name.startswith("bind_")} == {
        name for name in dir(aldcontrol) if name.startswith("bind_")
    }


def test_the_filter_step_returns_the_residuals_and_the_scoring_step_reads_them_alone():
    # the posterior of a subsystem is updated from its residual alone: the filter step hands over one
    # (rows, S) array, which the Bayes step takes as its one argument, scoring it and updating the posteriors
    rows, hyps = 4, (aldcontrol.AldParams(0.9, 0.0, 0.5), aldcontrol.AldParams(0.3, 0.1, 2.0))
    W, P, x = np.zeros((rows, 2, 3)), np.tile(np.eye(3), (rows, 2, 1, 1)), np.ones((rows, 1, 3))
    r = aldcontrol.bind_filter(W, P, x, aldcontrol.quantile_rule(hyps))(np.ones((rows, 1)))
    assert type(r) is np.ndarray and r.shape == (rows, 2)
    post = np.full((rows, 2), 0.5)
    bayes = aldcontrol.bind_posterior(hyps, post)
    assert list(inspect.signature(bayes).parameters) == ["residual"]
    assert bayes(r) is None
    assert post.shape == (rows, 2) and not np.all(post == 0.5)


def test_readme_names_every_exported_binder_and_no_other():
    # the README's list of phases follows the step API: a binder added, renamed or removed is a README edit too
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    # a name that follows a word character is private (``_bind_one_row``), and the wildcard ``bind_*`` names none
    named = set(re.findall(r"(?<!\w)bind_[a-z_]+", readme))
    assert named == {name for name in dir(aldcontrol) if name.startswith("bind_")}


def assert_python_values(value, path: str) -> None:
    """``value`` is an int, float, str or None, a tuple of such values, or a frozen dataclass of them."""
    if dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, path
        for field in dataclasses.fields(value):
            assert_python_values(getattr(value, field.name), f"{path}.{field.name}")
    elif isinstance(value, tuple):
        for i, entry in enumerate(value):
            assert_python_values(entry, f"{path}[{i}]")
    else:
        assert value is None or type(value) in (int, float, str), f"{path}: {type(value).__name__}"


def rls_y_bytes(cfg) -> bytes:
    return aldcontrol.run_episode(replace(cfg, steps=50, controller="rls")).y.tobytes()


@pytest.mark.parametrize("name", aldcontrol.PRESETS)
def test_every_preset_is_python_values_and_hashable(name):
    cfg = aldcontrol.preset_config(name)
    assert_python_values(cfg, name)
    assert hash(cfg) == hash(replace(cfg))


def test_weight_rules_are_python_values():
    hyps = aldcontrol.preset_config("noise1").hypotheses
    for rule in (aldcontrol.RLS_RULE, aldcontrol.quantile_rule(hyps)):
        assert_python_values(rule, "rule")
        assert [len(entry) for entry in rule] == [len(rule[0])] * 3


def test_shared_values_cannot_be_written_through():
    # numpy lets any caller make a read-only array writeable again; a tuple has no such switch
    base = aldcontrol.preset_config("base")
    before, key = rls_y_bytes(base), hash(base)
    for entry in (aldcontrol.RLS_RULE[0], base.plant.a):
        with pytest.raises(AttributeError):
            entry.flags.writeable = True
        with pytest.raises(TypeError):
            entry[0] = 0.5
    assert rls_y_bytes(base) == before and hash(aldcontrol.preset_config("base")) == key


def test_a_w0_list_changed_after_the_config_is_built_changes_nothing():
    base = aldcontrol.preset_config("base")
    w0 = [0.1] * base.plant.d
    cfg = replace(base, w0=w0)
    w0[0] = np.nan
    assert rls_y_bytes(cfg) == rls_y_bytes(base) and cfg.w0 == base.w0


def test_a_hypotheses_list_changed_after_the_config_is_built_changes_nothing():
    base = aldcontrol.preset_config("base")
    hyps = list(base.hypotheses)
    cfg = replace(base, hypotheses=hyps, controller="single-ald:1", steps=50)
    hyps.pop()
    assert aldcontrol.run_episode(cfg).fail_step is None and cfg.hypotheses == base.hypotheses


def test_a_components_list_changed_after_the_model_is_built_changes_nothing():
    components = [aldcontrol.MixtureComponent(0.5, aldcontrol.GaussianParams(0.0, 1.0))] * 2
    noise = aldcontrol.NoiseModel(components)
    components.append(components[0])
    assert [c.weight for c in noise.components] == [0.5, 0.5]


def test_an_array_w0_is_stored_as_python_values():
    base = aldcontrol.preset_config("base")
    cfg = replace(base, w0=np.array([0.1] * 3))
    assert cfg == base and hash(cfg) == hash(base)
    assert_python_values(cfg, "base")


def test_numpy_strings_are_stored_as_python_values():
    # a numpy.str_ passed every string check and was kept as given
    base = aldcontrol.preset_config("base")
    trajectory = replace(base.trajectory, kind=np.str_("sine"))
    cfg = replace(base, trajectory=trajectory, controller=np.str_("rls"), feedback=np.str_("output"))
    assert cfg == replace(base, controller="rls")
    assert_python_values(cfg, "base")
    summaries = aldcontrol.compare_controllers(replace(base, steps=10), np.array(["rls", "oracle"]), 2, (1, 5))
    summaries.append(aldcontrol.McSummary(np.str_("single-ald:1"), (1, 5), 0, [0.5]))
    for s in summaries:
        assert_python_values((s.controller, s.window, s.seed_base), s.controller)


# test oracles that no run executes: they live in the tests' reference module
MOVED_TO_TESTS = (
    "pinball_loss",
    "ald_pdf",
    "gaussian_pdf",
    "mixture_pdf",
    "ald_sample",
    "gaussian_sample",
    "batch_weighted_ls",
)


@pytest.mark.parametrize("module", [aldcontrol, aldcontrol.noise, aldcontrol.estimator], ids=lambda m: m.__name__)
def test_the_test_oracles_are_not_in_the_package(module):
    assert [name for name in MOVED_TO_TESTS if hasattr(module, name)] == []


@pytest.mark.parametrize(
    "w0",
    [np.zeros((3, 1)), np.zeros((1, 3)), [[0.1, 0.1, 0.1]]],
    ids=["column", "row", "nested-list"],
)
def test_a_two_dimensional_w0_is_rejected_with_its_key_path(w0):
    # a (3, 1) array raised numpy's TypeError, and the others "must have length 3, got 1"
    message = r"^estimator\.w0 must be one-dimensional, got shape \((3, 1|1, 3)\)$"
    with pytest.raises(aldcontrol.ConfigError, match=message):
        replace(aldcontrol.preset_config("base"), w0=w0)


COMPONENT = aldcontrol.MixtureComponent(1.0, aldcontrol.GaussianParams(0.0, 1.0))
HYPOTHESIS = aldcontrol.AldParams(0.5, 0.0, 1.0)


def build(ctor, field, value):
    """``ctor`` built from valid values with ``field`` set to ``value``.

    A RunConfig is the base preset's with one plant coefficient, so a
    one-entry ``w0`` has the right length.
    """
    if ctor is aldcontrol.RunConfig:
        plant = aldcontrol.ArxParams(a=(), b=(0.5,))
        return replace(aldcontrol.preset_config("base"), **{"plant": plant, "w0": (0.1,), field: value})
    valid = {
        aldcontrol.AldParams: {"tau": 0.5, "mu": 0.0, "sigma": 1.0},
        aldcontrol.GaussianParams: {"mean": 0.0, "variance": 1.0},
        aldcontrol.MixtureComponent: {"weight": 1.0, "dist": aldcontrol.GaussianParams(0.0, 1.0)},
        aldcontrol.TrajectorySpec: {"kind": "sine", "frequency_hz": 0.01, "amplitude": 1.0, "sample_period_s": 1.0},
        aldcontrol.ArxParams: {"a": (-1.41, 0.9), "b": (0.5,)},
        aldcontrol.NoiseModel: {"components": (COMPONENT,)},
    }[ctor]
    return ctor(**valid | {field: value})


# (constructor, field, the name its errors give)
SCALAR_FIELDS = [
    (aldcontrol.AldParams, "tau", "tau"),
    (aldcontrol.AldParams, "mu", "mu"),
    (aldcontrol.AldParams, "sigma", "sigma"),
    (aldcontrol.GaussianParams, "mean", "mean"),
    (aldcontrol.GaussianParams, "variance", "variance"),
    (aldcontrol.MixtureComponent, "weight", "weight"),
    (aldcontrol.TrajectorySpec, "frequency_hz", "frequency_hz"),
    (aldcontrol.TrajectorySpec, "sample_period_s", "sample_period_s"),
    (aldcontrol.TrajectorySpec, "amplitude", "amplitude"),
    (aldcontrol.RunConfig, "p0_scale", "estimator.p0_scale"),
    (aldcontrol.RunConfig, "eps_b", "controller.eps_b"),
    (aldcontrol.RunConfig, "u_max", "controller.u_max"),
]
TUPLE_FIELDS = [
    (aldcontrol.ArxParams, "a", "plant coefficients a and b"),
    (aldcontrol.ArxParams, "b", "plant coefficients a and b"),
    (aldcontrol.RunConfig, "w0", "estimator.w0"),
]
# (constructor, field, name, bad value): a new numeric field is one more row
BAD_NUMBERS = [
    *((*row, value) for row in SCALAR_FIELDS for value in ("1", None, True, np.nan, np.inf, 10**400)),
    *(
        (*row, value)
        for row in TUPLE_FIELDS
        for value in ("abc", [[1], [2, 3]], ["0.5"], [True], 0.5, [np.zeros((2, 2)), np.zeros((2, 3))])
    ),
]


@pytest.mark.parametrize(
    "ctor,field,name,value",
    BAD_NUMBERS,
    ids=[f"{ctor.__name__}.{field}={value!r}" for ctor, field, _, value in BAD_NUMBERS],
)
def test_every_numeric_field_rejects_what_is_not_a_finite_number_by_name(ctor, field, name, value):
    # a numeric string or a bool was converted or accepted, and other strings raised errors naming no field;
    # 10**400 raised OverflowError, a scalar tuple field was read as one entry, ragged arrays raised numpy's error
    error = aldcontrol.ConfigError if ctor is aldcontrol.RunConfig else ValueError
    with pytest.raises(error, match=rf"^{re.escape(name)}\b"):
        build(ctor, field, value)


# (constructor, field, a valid value that a float32 holds exactly): each numeric field once
EXACT_VALUES = [
    (aldcontrol.AldParams, "tau", 0.75),
    (aldcontrol.AldParams, "mu", 0.0),
    (aldcontrol.AldParams, "sigma", 0.015625),
    (aldcontrol.GaussianParams, "mean", 1.0),
    (aldcontrol.GaussianParams, "variance", 2.0),
    (aldcontrol.MixtureComponent, "weight", 1.0),
    (aldcontrol.TrajectorySpec, "frequency_hz", 0.0078125),
    (aldcontrol.TrajectorySpec, "sample_period_s", 1.0),
    (aldcontrol.TrajectorySpec, "amplitude", 2.0),
    (aldcontrol.ArxParams, "a", (-1.40625, 0.90625)),
    (aldcontrol.ArxParams, "b", (1.0,)),
    (aldcontrol.RunConfig, "p0_scale", 64.0),
    (aldcontrol.RunConfig, "eps_b", 2.0**-20),
    (aldcontrol.RunConfig, "u_max", 1000.0),
    (aldcontrol.RunConfig, "w0", (0.0, 1.0, 0.0)),
    (aldcontrol.RunConfig, "steps", 40),
    (aldcontrol.RunConfig, "seed", 3),
]
# (constructor, field, a valid value holding a 0.0, the reference kind), met as its -0.0 twin too (``same_values``).
# Before the number rule stored +0.0, the twins of the sine amplitude and of w0 ran other episodes.
ZERO_VALUES = [
    (aldcontrol.TrajectorySpec, "amplitude", 0.0, "sine"),
    (aldcontrol.TrajectorySpec, "amplitude", 0.0, "filtered_square"),
    (aldcontrol.ArxParams, "a", (-1.40625, 0.0), "filtered_square"),
    (aldcontrol.GaussianParams, "mean", 0.0, "filtered_square"),
    (aldcontrol.RunConfig, "w0", (1.0, 0.0, 0.0), "filtered_square"),
]
# where each constructor's part sits in a RunConfig: attribute names and tuple indices
PARTS = {
    aldcontrol.AldParams: ("hypotheses", 0),
    aldcontrol.GaussianParams: ("noise", "components", 0, "dist"),
    aldcontrol.MixtureComponent: ("noise", "components", 0),
    aldcontrol.TrajectorySpec: ("trajectory",),
    aldcontrol.ArxParams: ("plant",),
    aldcontrol.RunConfig: (),
}


def with_field(obj, path, field, value):
    """``obj`` rebuilt with ``field`` of its part at ``path`` set to ``value``, every dataclass on the way by replace."""
    if not path:
        return replace(obj, **{field: value})
    head, *rest = path
    if isinstance(head, int):
        return (*obj[:head], with_field(obj[head], rest, field, value), *obj[head + 1 :])
    return replace(obj, **{head: with_field(getattr(obj, head), rest, field, value)})


def stored(cfg, ctor, field):
    part = cfg
    for key in PARTS[ctor]:
        part = part[key] if isinstance(key, int) else getattr(part, key)
    return getattr(part, field)


def signed_zero_twin(entry: float) -> float:
    return -0.0 if entry == 0.0 else entry


def same_values(value):
    """``value`` as numpy ints for an int; else as float32 entries, as int and np.int64 entries too where every
    entry is whole, and with -0.0 for each 0.0 entry where there is one."""
    if isinstance(value, int):
        return [np.int64(value), np.int32(value), np.uint8(value)]
    entries = value if isinstance(value, tuple) else (value,)
    kinds = [
        np.float32,
        *((int, np.int64) if all(v.is_integer() for v in entries) else ()),
        *((signed_zero_twin,) if 0.0 in entries else ()),
    ]
    return [tuple(map(kind, value)) if isinstance(value, tuple) else kind(value) for kind in kinds]


# each exact value under the preset's own filtered_square reference, then the values holding a 0.0
EQUAL_VALUES = [(*row, "filtered_square") for row in EXACT_VALUES] + ZERO_VALUES
EQUAL_IDS = [f"{ctor.__name__}.{field}" for ctor, field, _ in EXACT_VALUES] + [
    f"{ctor.__name__}.{field}-zero-{reference}" for ctor, field, _, reference in ZERO_VALUES
]


@pytest.mark.parametrize("ctor,field,value,reference", EQUAL_VALUES, ids=EQUAL_IDS)
def test_a_config_that_compares_equal_runs_the_same_episode(ctor, field, value, reference):
    # the dataclasses stored the caller's object, so a float32 field drew float32 noise or posteriors,
    # and an np.int64 steps or seed was kept as one; a -0.0 was kept as -0.0, though it equals 0.0
    noise = aldcontrol.NoiseModel((aldcontrol.MixtureComponent(1.0, aldcontrol.GaussianParams(0.0, 1e-4)),))
    preset = aldcontrol.preset_config("noise4")
    trajectory = replace(preset.trajectory, kind=reference)
    base = replace(preset, steps=40, noise=noise, trajectory=trajectory)
    expected = with_field(base, PARTS[ctor], field, value)
    trace = aldcontrol.run_episode(expected)
    kind = int if isinstance(value, int) else float
    arrays = [name for name, v in vars(trace).items() if isinstance(v, np.ndarray)]
    for same in same_values(value):
        cfg = with_field(base, PARTS[ctor], field, same)
        kept = stored(cfg, ctor, field)
        assert {type(v) for v in (kept if isinstance(kept, tuple) else (kept,))} == {kind}
        assert repr(kept) == repr(stored(expected, ctor, field))  # the same bits: repr tells -0.0 from 0.0
        assert cfg == expected and hash(cfg) == hash(expected)
        other = aldcontrol.run_episode(cfg)
        assert [name for name in arrays if getattr(other, name).tobytes() != getattr(trace, name).tobytes()] == []


def test_a_float32_sigma_is_not_the_float_it_rounds():
    # np.float32(0.01) compared equal to 0.01, yet its episode drew a float32 noise tape
    assert aldcontrol.AldParams(0.95, 0.0, np.float32(0.01)) != aldcontrol.AldParams(0.95, 0.0, 0.01)
    assert aldcontrol.AldParams(0.95, 0.0, np.float32(0.01)).sigma == float(np.float32(0.01))


def test_an_int_over_the_digit_limit_is_rejected_by_name():
    # its repr raises ValueError past 4300 digits, so the message does not quote it
    with pytest.raises(ValueError, match=r"^sigma must be finite, got an int too large for a float$"):
        aldcontrol.AldParams(0.5, 0.0, 10**5000)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cfg: replace(cfg, seed=-(10**5000)), r"^run\.seed must be at least 0, got <int too long to print>$"),
        (
            lambda cfg: aldcontrol.compare_controllers(cfg, ["rls"], -(10**5000), (1, 10)),
            r"^runs must be at least 1, got <int too long to print>$",
        ),
        (
            lambda cfg: aldcontrol.accumulated_error(aldcontrol.run_episode(cfg), (1, 10**5000)),
            r"^window <tuple too long to print> outside trace steps 1\.\.10$",
        ),
    ],
)
def test_an_integer_over_the_digit_limit_is_named_by_its_field(call, message):
    # the integer rule and the window check print the value with repr, which raises ValueError past 4300 digits
    with pytest.raises(ValueError, match=message):
        call(replace(aldcontrol.preset_config("base"), steps=10))


@pytest.mark.parametrize(
    "ctor,field,value,error",
    [
        (aldcontrol.MixtureComponent, "dist", "x", ValueError),
        (aldcontrol.RunConfig, "hypotheses", [0.5], aldcontrol.ConfigError),
        (aldcontrol.RunConfig, "hypotheses", None, aldcontrol.ConfigError),
        (aldcontrol.NoiseModel, "components", None, ValueError),
        (aldcontrol.NoiseModel, "components", [1], ValueError),
        (aldcontrol.NoiseModel, "components", {COMPONENT: 1.0}, ValueError),
        # a 0-d array passes the Iterable test but numpy will not iterate it
        (aldcontrol.NoiseModel, "components", np.array(COMPONENT, dtype=object), ValueError),
        (aldcontrol.RunConfig, "hypotheses", np.array(HYPOTHESIS, dtype=object), aldcontrol.ConfigError),
        (aldcontrol.RunConfig, "controller", 3, aldcontrol.ConfigError),
        (aldcontrol.RunConfig, "plant", (1, 2), aldcontrol.ConfigError),
        (aldcontrol.RunConfig, "noise", None, aldcontrol.ConfigError),
        (aldcontrol.RunConfig, "trajectory", "sine", aldcontrol.ConfigError),
    ],
)
def test_a_part_of_the_wrong_type_is_rejected_by_name(ctor, field, value, error):
    # each was accepted, then raised AttributeError inside the episode or the token parser; a None raised
    # TypeError, an int component AttributeError, and a mapping's keys were read as the components
    with pytest.raises(error, match=rf"\b{field}\b"):
        build(ctor, field, value)


def calls_in(node) -> list[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)]


def is_finite_check(call: ast.Call) -> bool:
    return ast.unparse(call.func) in ("math.isfinite", "np.isfinite")


def is_float_array(call: ast.Call) -> bool:
    dtype = [ast.unparse(k.value) for k in call.keywords if k.arg == "dtype"]
    return ast.unparse(call.func) in ("np.array", "np.asarray") and dtype == ["float"]


def is_integer_check(node) -> bool:
    """``np.integer`` anywhere, or an ``isinstance`` whose classes name ``int``."""
    if isinstance(node, ast.Attribute):
        return ast.unparse(node) == "np.integer"
    classes = node.args[1:] if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" else []
    return any(ast.unparse(n) in ("int", "numbers.Integral") for arg in classes for n in ast.walk(arg))


@pytest.mark.parametrize("module", submodules(), ids=lambda m: m.__name__)
def test_the_number_rule_has_one_home(module):
    # a numeric field is checked by plant._number, and an integer is told by plant._is_integer alone, the
    # predicate of plant._integer: a second idiom beside either is a reviewed edit here
    tree = ast.parse(inspect.getsource(module))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    rule = [f for f in functions if f.name == "_is_integer" and module is aldcontrol.plant]
    in_integer_rule = {id(node) for f in rule for node in ast.walk(f)}
    checks = [node for node in ast.walk(tree) if is_integer_check(node) and id(node) not in in_integer_rule]
    assert [ast.unparse(node) for node in checks] == []
    predicates = {"_is_integer", "_integer"} if module is aldcontrol.plant else set()
    assert {f.name for f in functions if "integer" in f.name} == predicates
    if module not in (aldcontrol.noise, aldcontrol.plant, aldcontrol.config):
        return
    in_rule = {id(call) for f in functions if f.name == "_number" for call in calls_in(f)}
    assert [ast.unparse(call) for call in calls_in(tree) if is_finite_check(call) and id(call) not in in_rule] == []
    for function in (f for f in functions if f.name == "__post_init__"):
        assert [ast.unparse(call) for call in calls_in(function) if is_float_array(call)] == []
    if module is aldcontrol.config:
        # the reader passes every value unconverted: only RunConfig checks and converts its own values
        run_config = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
        own = {id(call) for f in run_config.body if getattr(f, "name", "") == "__post_init__" for call in calls_in(f)}
        rules = ("float", "_number", "_integer", "_items")
        converting = [call for call in calls_in(tree) if ast.unparse(call.func) in rules]
        assert [ast.unparse(call) for call in converting if id(call) not in own] == []


@pytest.mark.parametrize("module", submodules(), ids=lambda m: m.__name__)
def test_no_module_keys_by_identity(module):
    # the kept noise row was keyed by id(model) beside a value key everywhere else: a cache keyed by identity
    # is a reviewed edit here
    tree = ast.parse(inspect.getsource(module))
    assert [ast.unparse(call) for call in calls_in(tree) if ast.unparse(call.func) == "id"] == []
