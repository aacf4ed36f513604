import importlib
import inspect
import pkgutil

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
