"""Run configuration: schema, JSON reader, and shipped presets.

A config document is JSON with the key paths

    plant.a, plant.b
    noise.components[].{weight, kind, tau, mu, sigma, mean, variance}
    hypotheses[].{tau, mu, sigma}
    trajectory.{kind, frequency_hz, amplitude, sample_period_s}
    run.{steps, seed, controller, feedback}
    estimator.{w0, p0_scale}
    controller.{eps_b, u_max}

The reader checks only the shape of the document: every section is a mapping
or a list, unknown or missing keys and null values are rejected with their
path, and a component's ``kind`` picks its distribution.  The keys of the
plant, hypothesis, component and trajectory sections are the fields of the
dataclass each builds; those of ``run``, ``estimator`` and ``controller`` are
``RunConfig`` fields.  Every value goes unconverted to its dataclass, which
checks and converts it once; a dataclass error comes back as a
:class:`ConfigError` carrying the key path.  ``RunConfig`` checks its own
values by the rules of ``plant`` (``_number``, ``_integer`` for ``steps`` and
``seed``, ``_items`` for ``hypotheses``) and raises :class:`ConfigError`
naming the key path, also for a Python caller of :func:`dataclasses.replace`;
its parts must be of their classes, and its controller token and feedback
are stored as Python strings.
Presets ``base`` and ``noise1``..``noise4`` ship with the package; each is
read once per process and shared.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import DEFAULT_EPS_B, DEFAULT_U_MAX
from .noise import AldParams, GaussianParams, MixtureComponent, NoiseModel
from .plant import ArxParams, TrajectorySpec, _float_tuple, _integer, _items, _number, _store

__all__ = [
    "ConfigError",
    "RunConfig",
    "FEEDBACK_KINDS",
    "PRESETS",
    "parse_controller",
    "load_config",
    "config_from_dict",
    "preset_config",
]

FEEDBACK_KINDS = ("output", "measurement")
PRESETS = ("base", "noise1", "noise2", "noise3", "noise4")

DEFAULT_STEPS = 1000
DEFAULT_P0_SCALE = 100.0
DEFAULT_W0_ENTRY = 0.1


class ConfigError(ValueError):
    """Configuration schema violation, tagged with the field path."""


def parse_controller(token: str) -> tuple[str, int]:
    """Split a controller token into (kind, subsystem index).

    Tokens: ``ensemble``, ``rls``, ``oracle``, ``single-ald:<i>``.
    """
    if token in ("ensemble", "rls", "oracle"):
        return token, 0
    if isinstance(token, str) and token.startswith("single-ald:"):
        digits = token[len("single-ald:") :]
        # int() would also take a sign, spaces, underscores and other scripts' digits
        if not (digits.isascii() and digits.isdigit()):
            raise ConfigError(f"run.controller: bad single-ald index in {token!r}; expected ASCII digits")
        return "single_ald", int(digits)
    raise ConfigError(
        f"run.controller: unknown controller {token!r}; expected ensemble, rls, oracle, or single-ald:<i>"
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything one closed-loop episode needs, fully deterministic given ``seed``."""

    plant: ArxParams
    noise: NoiseModel
    hypotheses: tuple[AldParams, ...]
    trajectory: TrajectorySpec
    steps: int = DEFAULT_STEPS
    seed: int = 0
    controller: str = "ensemble"
    feedback: str = "output"
    w0: tuple[float, ...] | None = None
    p0_scale: float = DEFAULT_P0_SCALE
    eps_b: float = DEFAULT_EPS_B
    u_max: float = DEFAULT_U_MAX

    def __post_init__(self) -> None:
        for name, cls in (("plant", ArxParams), ("noise", NoiseModel), ("trajectory", TrajectorySpec)):
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be {cls.__name__}, got {getattr(self, name)!r}")
        # each value is kept as its rule returns it: a caller's list or iterator of hypotheses as a
        # tuple, so changing the list later cannot bypass these checks
        _store(
            self,
            hypotheses=_items(self.hypotheses, "hypotheses", AldParams, ConfigError),
            steps=_integer(self.steps, "run.steps", ConfigError, least=2),
            seed=_integer(self.seed, "run.seed", ConfigError, least=0),
            p0_scale=_number(self.p0_scale, "estimator.p0_scale", ConfigError, positive=True),
            eps_b=_number(self.eps_b, "controller.eps_b", ConfigError, positive=True),
            u_max=_number(self.u_max, "controller.u_max", ConfigError, positive=True),
        )
        if self.feedback not in FEEDBACK_KINDS:
            raise ConfigError(f"run.feedback must be one of {FEEDBACK_KINDS}, got {self.feedback!r}")
        kind, index = parse_controller(self.controller)
        _store(self, feedback=str(self.feedback), controller=str(self.controller))
        if kind in ("ensemble", "single_ald") and len(self.hypotheses) == 0:
            raise ConfigError(f"run.controller {self.controller!r} requires at least one hypothesis")
        if kind == "single_ald" and index >= len(self.hypotheses):
            raise ConfigError(
                f"run.controller: single-ald index {index} out of range for {len(self.hypotheses)} hypotheses"
            )
        if self.w0 is not None:
            _store(self, w0=_float_tuple(self.w0, "estimator.w0", ConfigError))
            if len(self.w0) != self.plant.d:
                raise ConfigError(f"estimator.w0 must have length {self.plant.d}, got {len(self.w0)}")

    def initial_w(self) -> np.ndarray:
        if self.w0 is None:
            return np.full(self.plant.d, DEFAULT_W0_ENTRY)
        return np.array(self.w0, dtype=float)

    def initial_P(self) -> np.ndarray:
        return self.p0_scale * np.eye(self.plant.d)


# the document's sections: the first four build the parts, and the keys of
# the other three are the RunConfig fields of the same names
_RUN_SECTIONS = {
    "run": ("steps", "seed", "controller", "feedback"),
    "estimator": ("w0", "p0_scale"),
    "controller": ("eps_b", "u_max"),
}
_SECTIONS = ("plant", "noise", "hypotheses", "trajectory", *_RUN_SECTIONS)
# noise component kinds: the distribution, and how errors name it
_DISTRIBUTIONS = {"ald": (AldParams, "an ald component"), "gaussian": (GaussianParams, "a gaussian component")}


def _fields(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list")
    return obj


def _section(obj, path: str, keys, required=(), unknown: str = "unknown key") -> dict:
    """A copy of the mapping ``obj``, checked for its shape alone.

    A key outside ``keys`` is rejected as ``unknown``, and a null value or a
    missing ``required`` key is rejected too; no value is converted.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key, value in obj.items():
        if key not in keys:
            raise ConfigError(f"{path}.{key}: {unknown}")
        if value is None:
            raise ConfigError(f"{path}.{key}: expected a value, got null")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")
    return dict(obj)


def _build(path: str, ctor, *args, **kwargs):
    """``ctor(*args, **kwargs)``, with its ValueError re-raised as a ConfigError at ``path``."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _record(cls, obj, path: str, unknown: str = "unknown key"):
    """The dataclass ``cls`` read from the mapping ``obj``, whose keys are exactly its fields."""
    keys = _fields(cls)
    return _build(path, cls, **_section(obj, path, keys, keys, unknown))


def _component(obj, path: str) -> MixtureComponent:
    """A noise component: its ``kind`` picks the distribution, whose fields are the keys beside ``weight``."""
    keys = {"weight", "kind"}.union(*(_fields(ctor) for ctor, _ in _DISTRIBUTIONS.values()))
    fields = _section(obj, path, keys, ("weight", "kind"))
    weight, kind = fields.pop("weight"), fields.pop("kind")
    # a kind that is not a string, a list say, is not looked up: it may be unhashable
    if not (isinstance(kind, str) and kind in _DISTRIBUTIONS):
        raise ConfigError(f"{path}.kind: expected 'ald' or 'gaussian', got {kind!r}")
    ctor, name = _DISTRIBUTIONS[kind]
    return _build(path, MixtureComponent, weight, _record(ctor, fields, path, f"not valid for {name}"))


def config_from_dict(doc: dict, source: str = "config") -> RunConfig:
    """Read a parsed document into a :class:`RunConfig`, naming ``source`` in every error."""
    doc = _section(doc, source, _SECTIONS, ("plant", "noise"))
    plant = _record(ArxParams, doc["plant"], f"{source}.plant")

    path = f"{source}.noise"
    comps = _list(_section(doc["noise"], path, ("components",), ("components",))["components"], f"{path}.components")
    noise = _build(path, NoiseModel, [_component(c, f"{path}.components[{i}]") for i, c in enumerate(comps)])

    path = f"{source}.hypotheses"
    hypotheses = [_record(AldParams, h, f"{path}[{i}]") for i, h in enumerate(_list(doc.get("hypotheses", []), path))]

    path = f"{source}.trajectory"
    traj = {"kind": "sine", **_section(doc.get("trajectory", {}), path, _fields(TrajectorySpec))}
    trajectory = _build(path, TrajectorySpec, **traj)

    options = {}
    for name, keys in _RUN_SECTIONS.items():
        options |= _section(doc.get(name, {}), f"{source}.{name}", keys)
    return _build(
        source, RunConfig, plant=plant, noise=noise, hypotheses=hypotheses, trajectory=trajectory, **options
    )


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal over Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(doc, str(path))


def preset_config(name: str) -> RunConfig:
    """One of the shipped presets (``base``, ``noise1`` .. ``noise4``).

    Each preset is parsed once per process and the same read-only config is
    returned on every call; derive variants with :func:`dataclasses.replace`.
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESETS}")
    return _load_preset(name)


@functools.cache
def _load_preset(name: str) -> RunConfig:
    text = resources.files("aldcontrol").joinpath("presets", f"{name}.json").read_text()
    return config_from_dict(json.loads(text), f"preset:{name}")
