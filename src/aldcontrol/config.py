"""Run configuration: schema, JSON reader, and shipped presets.

A config document is JSON with the key paths

    plant.a, plant.b
    noise.components[].{weight, kind, tau, mu, sigma, mean, variance}
    hypotheses[].{tau, mu, sigma}
    trajectory.{kind, frequency_hz, amplitude, sample_period_s}
    run.{steps, seed, controller, feedback}
    estimator.{w0, p0_scale}
    controller.{eps_b, u_max}

The reader checks only the structure: every section is a mapping, every value
has the right JSON type, and unknown or missing keys are rejected with their
path.  Whether a value is valid is decided once, by the dataclass it builds;
a dataclass error comes back as a :class:`ConfigError` carrying the key path.
Presets ``base`` and ``noise1``..``noise4`` ship with the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import DEFAULT_EPS_B, DEFAULT_U_MAX
from .noise import AldParams, GaussianParams, MixtureComponent, NoiseModel
from .plant import ArxParams, TrajectorySpec

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
    if token.startswith("single-ald:"):
        try:
            index = int(token.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"run.controller: bad single-ald index in {token!r}") from None
        if index < 0:
            raise ConfigError(f"run.controller: single-ald index must be nonnegative, got {index}")
        return "single_ald", index
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
        if self.steps < 2:
            raise ConfigError(f"run.steps must be at least 2, got {self.steps}")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be nonnegative, got {self.seed}")
        if self.feedback not in FEEDBACK_KINDS:
            raise ConfigError(f"run.feedback must be one of {FEEDBACK_KINDS}, got {self.feedback!r}")
        kind, index = parse_controller(self.controller)
        if kind in ("ensemble", "single_ald") and len(self.hypotheses) == 0:
            raise ConfigError(f"run.controller {self.controller!r} requires at least one hypothesis")
        if kind == "single_ald" and index >= len(self.hypotheses):
            raise ConfigError(
                f"run.controller: single-ald index {index} out of range for {len(self.hypotheses)} hypotheses"
            )
        if self.w0 is not None:
            if len(self.w0) != self.plant.d:
                raise ConfigError(f"estimator.w0 must have length {self.plant.d}, got {len(self.w0)}")
            if not all(math.isfinite(v) for v in self.w0):
                raise ConfigError(f"estimator.w0 entries must be finite, got {self.w0!r}")
        if not (math.isfinite(self.p0_scale) and self.p0_scale > 0.0):
            raise ConfigError("estimator.p0_scale must be positive")
        if not (math.isfinite(self.eps_b) and self.eps_b > 0.0):
            raise ConfigError("controller.eps_b must be positive")
        if not (math.isfinite(self.u_max) and self.u_max > 0.0):
            raise ConfigError("controller.u_max must be positive")

    def initial_w(self) -> np.ndarray:
        if self.w0 is None:
            return np.full(self.plant.d, DEFAULT_W0_ENTRY)
        return np.array(self.w0, dtype=float)

    def initial_P(self) -> np.ndarray:
        return self.p0_scale * np.eye(self.plant.d)


# JSON value kinds of the reader: float is any number, tuple a list of numbers
_EXPECTED = {
    float: "a number",
    int: "an integer",
    str: "a string",
    tuple: "a list of numbers",
    list: "a list",
    dict: "a mapping",
}
_SECTIONS = {
    "plant": dict,
    "noise": dict,
    "hypotheses": list,
    "trajectory": dict,
    "run": dict,
    "estimator": dict,
    "controller": dict,
}
# sections whose keys are RunConfig fields of the same name
_RUN_SECTIONS = {
    "run": {"steps": int, "seed": int, "controller": str, "feedback": str},
    "estimator": {"w0": tuple, "p0_scale": float},
    "controller": {"eps_b": float, "u_max": float},
}
# noise component kinds: the distribution, its keys, and how errors name it
_DISTRIBUTIONS = {
    "ald": (AldParams, ("tau", "mu", "sigma"), "an ald component"),
    "gaussian": (GaussianParams, ("mean", "variance"), "a gaussian component"),
}
_COMPONENT_KEYS = {"weight": float, "kind": str} | {
    key: float for _, keys, _ in _DISTRIBUTIONS.values() for key in keys
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _value(value, path: str, kind: type):
    """``value`` checked to have JSON type ``kind``; numbers come back as floats."""
    if kind is float:
        if _is_number(value):
            return float(value)
    elif kind is tuple:
        if isinstance(value, list) and all(map(_is_number, value)):
            return tuple(map(float, value))
    elif isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path}: expected {_EXPECTED[kind]}")


def _section(obj, path: str, kinds: dict, required=(), unknown: str = "unknown key") -> dict:
    """Mapping ``obj`` read key by key with :func:`_value`.

    ``kinds`` maps every allowed key to its kind; any other key is rejected as
    ``unknown``, and so is a missing ``required`` key.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in obj:
        if key not in kinds:
            raise ConfigError(f"{path}.{key}: {unknown}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")
    return {key: _value(value, f"{path}.{key}", kinds[key]) for key, value in obj.items()}


def _build(path: str, ctor, *args, **kwargs):
    """``ctor(*args, **kwargs)``, with its ValueError re-raised as a ConfigError at ``path``."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _distribution(obj, path: str, kind: str = "ald", outer: dict | None = None):
    """The distribution of a hypothesis (an ALD) or of a noise component of ``kind``.

    A component also holds its ``outer`` keys; a key of another kind is
    rejected as not valid for this one.
    """
    ctor, keys, name = _DISTRIBUTIONS[kind]
    kinds = dict.fromkeys(keys, float) | (outer or {})
    fields = _section(obj, path, kinds, keys, f"not valid for {name}" if outer else "unknown key")
    return _build(path, ctor, *(fields[key] for key in keys))


def _component(obj, path: str) -> MixtureComponent:
    head = _section(obj, path, _COMPONENT_KEYS, ("weight", "kind"))
    if head["kind"] not in _DISTRIBUTIONS:
        raise ConfigError(f"{path}.kind: expected 'ald' or 'gaussian', got {head['kind']!r}")
    dist = _distribution(obj, path, head["kind"], {"weight": float, "kind": str})
    return _build(path, MixtureComponent, head["weight"], dist)


def config_from_dict(doc: dict, source: str = "config") -> RunConfig:
    """Read a parsed document into a :class:`RunConfig`, naming ``source`` in every error."""
    doc = _section(doc, source, _SECTIONS, ("plant", "noise"))

    path = f"{source}.plant"
    plant = _build(path, ArxParams, **_section(doc["plant"], path, {"a": tuple, "b": tuple}, ("a", "b")))

    path = f"{source}.noise"
    comps = _section(doc["noise"], path, {"components": list}, ("components",))["components"]
    components = tuple(_component(c, f"{path}.components[{i}]") for i, c in enumerate(comps))
    noise = _build(path, NoiseModel, components)

    hypotheses = tuple(
        _distribution(h, f"{source}.hypotheses[{i}]") for i, h in enumerate(doc.get("hypotheses", []))
    )

    path = f"{source}.trajectory"
    traj_kinds = {"kind": str, "frequency_hz": float, "amplitude": float, "sample_period_s": float}
    traj = {"kind": "sine", **_section(doc.get("trajectory", {}), path, traj_kinds)}
    trajectory = _build(path, TrajectorySpec, **traj)

    options = {}
    for name, kinds in _RUN_SECTIONS.items():
        options |= _section(doc.get(name, {}), f"{source}.{name}", kinds)
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(doc, str(path))


def preset_config(name: str) -> RunConfig:
    """Load one of the shipped presets (``base``, ``noise1`` .. ``noise4``)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESETS}")
    text = resources.files("aldcontrol").joinpath("presets", f"{name}.json").read_text()
    return config_from_dict(json.loads(text), f"preset:{name}")
