"""Discrete ARX plant and reference trajectories.

The plant is

    y(k+1) = b_1 u(k) + ... + b_m u(k-m+1) + a_1 y(k) + ... + a_n y(k-n+1)

with measurements z(k) = y(k) + e(k).  Histories are newest-first arrays owned
by the caller, with any leading (run) dimensions.  :func:`bind_plant` binds
the plant to them once and returns its step, which reads them and writes only
the new outputs: the caller shifts each history itself.

Every value that reaches the package from outside is checked and converted
here, one rule per kind, and each error names its field:

- a number (``_number``): an int or a float, numpy's included, but not a
  bool; finite, and above 0 where the field is a scale, a rate or a weight.
  It is stored as a Python float, with -0.0 turned into +0.0.
  A tuple field (``ArxParams.a`` and ``.b``, ``RunConfig.w0``) must also be
  one-dimensional, each entry passing the same rule (``_float_tuple``);
- an integer (``_integer``): a Python or numpy int, not a bool, at least a
  bound where one is given ("run.seed must be at least 0, got -1");
- a sequence of parts (``_items``): any iterable but a string, bytes, a
  mapping or a 0-d array, read once into a tuple whose entries are all of
  one class ("hypotheses must be a sequence of AldParams, got None").

A message shows the value it rejects by ``_shown``, which names the type
alone of a value holding an int too long for Python to print.

Each dataclass stores the Python values these return (``_store``), and a
string field the ``str`` of the value it checked, so two configs that compare
equal hold the same values bit for bit and run the same episode.  Floats
need the signed-zero rule for that: IEEE 754 holds -0.0 == +0.0, yet the two
can give zeros of different sign downstream (a reference of amplitude -0.0,
an initial estimate of -0.0).  The JSON reader passes every value through
unconverted, so a Python caller and a JSON document get the same errors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArxParams",
    "TrajectorySpec",
    "TRAJECTORY_KINDS",
    "bind_plant",
    "parameter_vector",
    "reference_trajectory",
]

TRAJECTORY_KINDS = ("filtered_square", "triangle", "sine")


def _is_integer(value) -> bool:
    """True for a Python or numpy int; a bool is not one, though Python reads True as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _shown(value) -> str:
    """``repr(value)`` for an error message, or its type's name where Python will not print an int in it.

    Python converts an int of more than 4300 digits (``sys.set_int_max_str_digits``) to a string only by raising
    ValueError, which would name no field.
    """
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _integer(value, name: str, error: type[ValueError] = ValueError, least: int | None = None) -> int:
    """``value`` as an int, the rule of every count, seed and step number: an integer, at least ``least`` if given.

    Any other value raises ``error`` naming ``name``.
    """
    if not _is_integer(value):
        raise error(f"{name} must be an integer, got {_shown(value)}")
    number = int(value)
    if least is not None and number < least:
        raise error(f"{name} must be at least {least}, got {_shown(number)}")
    return number


def _number(value, name: str, error: type[ValueError] = ValueError, positive: bool = False) -> float:
    """``value`` as a float, the rule of every numeric config field: a number, finite, and above 0 if ``positive``.

    The float is ``float(value) + 0.0``, which is ``float(value)`` bit for
    bit but for -0.0, returned as +0.0.  Any other value raises ``error``
    naming ``name``.
    """
    if not (isinstance(value, (float, np.floating)) or _is_integer(value)):
        raise error(f"{name} must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the largest float, whose repr may exceed Python's digit limit
        raise error(f"{name} must be finite, got an int too large for a float") from None
    if not (math.isfinite(number) and (number > 0 or not positive)):
        raise error(f"{name} must be {'finite and positive' if positive else 'finite'}, got {value!r}")
    return number + 0.0


def _float_tuple(values, name: str, error: type[ValueError] = ValueError) -> tuple[float, ...]:
    """``values`` as a tuple of floats, the shape rule of every such field: one dimension, every entry a ``_number``.

    The array is built with ``dtype=object``, so numpy converts no string
    or bool, and each entry meets the rule as the caller gave it.  A scalar
    is not one-dimensional, nor are nested arrays of unequal shapes.
    """
    try:
        array = np.array(values, dtype=object)
    except ValueError:  # numpy's "could not broadcast": nested arrays of unequal shapes
        raise error(f"{name} must be one-dimensional, got nested arrays of unequal shapes") from None
    if array.ndim != 1:
        raise error(f"{name} must be one-dimensional, got shape {array.shape}")
    return tuple(_number(value, f"{name} entries", error) for value in array)


def _items(values, name: str, cls: type, error: type[ValueError] = ValueError) -> tuple:
    """``values`` read once into a tuple, the rule of every sequence of parts: each entry is a ``cls``.

    Any iterable is taken but a string, bytes or a mapping, whose entries
    are characters, integers or keys, and a 0-d array, which numpy calls
    iterable but will not iterate.  Any other value raises ``error`` naming
    ``name``.
    """
    zero_d = isinstance(values, np.ndarray) and values.ndim == 0
    if isinstance(values, (str, bytes, Mapping)) or zero_d or not isinstance(values, Iterable):
        raise error(f"{name} must be a sequence of {cls.__name__}, got {_shown(values)}")
    items = tuple(values)
    for item in items:
        if not isinstance(item, cls):
            raise error(f"{name} entries must be {cls.__name__}, got {_shown(item)}")
    return items


def _store(obj, **values) -> None:
    """Set ``values`` on the frozen dataclass ``obj``: its ``__post_init__`` keeps what it checked and converted."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class ArxParams:
    """Output coefficients ``a`` (length n >= 0) and input coefficients ``b`` (length m >= 1).

    Both are stored as tuples of floats, so a plant never changes after it
    is built and compares and hashes by its coefficient values.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        a, b = (_float_tuple(v, "plant coefficients a and b") for v in (self.a, self.b))
        if not b:
            raise ValueError("need at least one input coefficient")
        if b[0] == 0.0:
            raise ValueError("leading input coefficient b[0] must be nonzero")
        _store(self, a=a, b=b)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def d(self) -> int:
        return len(self.a) + len(self.b)


def parameter_vector(p: ArxParams) -> np.ndarray:
    """True parameters in regressor order [b_1..b_m, a_1..a_n]."""
    return np.array(p.b + p.a)


def bind_plant(p: ArxParams, u_now: np.ndarray, y_hist: np.ndarray):
    """The plant step bound to its history arrays: a function of an optional ``out`` that returns y(k+1).

    Each call forms the next outputs from the inputs u(k)..u(k-m+1) in
    ``u_now`` (..., m) and the outputs y(k)..y(k-n+1) in ``y_hist`` (..., n).
    Both arrays are the caller's: the step only reads them, and the caller
    shifts each new output into ``y_hist`` between calls.  A call may pass
    an array ``out`` of the outputs' shape, which receives y(k+1) and is
    returned; nothing else is written.  The coefficient arrays are built
    from ``p`` once, here.
    """
    add, vecdot = np.add, np.vecdot
    b, a = np.array(p.b), np.array(p.a)

    def step(out=None):
        return add(vecdot(u_now, b), vecdot(y_hist, a), out=out)

    return step


@dataclass(frozen=True)
class TrajectorySpec:
    """Reference waveform: kind, frequency in Hz, amplitude, and seconds per step."""

    kind: str
    frequency_hz: float = 0.01
    amplitude: float = 1.0
    sample_period_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"trajectory kind must be one of {TRAJECTORY_KINDS}, got {self.kind!r}")
        _store(
            self,
            kind=str(self.kind),
            frequency_hz=_number(self.frequency_hz, "frequency_hz", positive=True),
            sample_period_s=_number(self.sample_period_s, "sample_period_s", positive=True),
            amplitude=_number(self.amplitude, "amplitude"),
        )


def reference_trajectory(spec: TrajectorySpec, count: int) -> np.ndarray:
    """Reference values r(0) .. r(count-1); ``count`` must be an integer, at least 0 (``_integer``).

    sine:            A*sin(2*pi*f*k*dt)
    triangle:        symmetric, period 1/f, starts at 0 rising, peak +A at the
                     quarter period
    filtered_square: +-A square wave (first half-period positive) through the
                     exact zero-order-hold discretization of 1/(s+1):
                     r(k+1) = exp(-dt)*r(k) + (1-exp(-dt))*q(k), r(0) = 0
    """
    count = _integer(count, "count", least=0)
    k = np.arange(count, dtype=float)
    phase = np.mod(k * spec.sample_period_s * spec.frequency_hz, 1.0)
    if spec.kind == "sine":
        return spec.amplitude * np.sin(2.0 * math.pi * spec.frequency_hz * k * spec.sample_period_s)
    if spec.kind == "triangle":
        tri = np.where(phase < 0.25, 4.0 * phase, np.where(phase < 0.75, 2.0 - 4.0 * phase, 4.0 * phase - 4.0))
        return spec.amplitude * tri
    square = np.where(phase < 0.5, spec.amplitude, -spec.amplitude)
    decay = math.exp(-spec.sample_period_s)
    gain = 1.0 - decay
    # the recursion on Python floats: the same IEEE operations as on numpy scalars, without their overhead
    out = [0.0]
    for q in square[: count - 1].tolist():
        out.append(decay * out[-1] + gain * q)
    return np.array(out[:count])

