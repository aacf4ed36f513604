import importlib
import inspect
import pkgutil

import numpy as np

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
    "bind_log_likelihood": ["hyps", "rows"],
    "bind_posterior": ["post"],
    "bind_ce_law": ["w", "eta", "eps_b", "u_max", "frozen"],
    "bind_ensemble_law": ["post", "W", "eta", "eps_b", "u_max"],
}


def test_binder_signatures_are_pinned():
    actual = {name: list(inspect.signature(getattr(aldcontrol, name)).parameters) for name in BINDER_PARAMETERS}
    assert actual == BINDER_PARAMETERS


def test_every_exported_binder_is_pinned():
    assert {name for name in dir(aldcontrol) if name.startswith("bind_")} == set(BINDER_PARAMETERS)


def test_the_filter_step_returns_the_residuals_and_the_scoring_step_reads_them_alone():
    # the posterior of a subsystem is updated from its residual alone: the
    # filter step hands over one (rows, S) array, which the scoring step takes as its one argument
    rows, hyps = 4, (aldcontrol.AldParams(0.9, 0.0, 0.5), aldcontrol.AldParams(0.3, 0.1, 2.0))
    W, P, x = np.zeros((rows, 2, 3)), np.tile(np.eye(3), (rows, 2, 1, 1)), np.ones((rows, 1, 3))
    r = aldcontrol.bind_filter(W, P, x, aldcontrol.quantile_rule(hyps))(np.ones((rows, 1)))
    assert type(r) is np.ndarray and r.shape == (rows, 2)
    log_likelihood = aldcontrol.bind_log_likelihood(hyps, rows)
    assert list(inspect.signature(log_likelihood).parameters) == ["residual"]
    assert log_likelihood(r).shape == (rows, 2)
