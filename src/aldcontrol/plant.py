"""Discrete ARX plant and reference trajectories.

The plant is

    y(k+1) = b_1 u(k) + ... + b_m u(k-m+1) + a_1 y(k) + ... + a_n y(k-n+1)

with measurements z(k) = y(k) + e(k).  Histories are newest-first arrays owned
by the caller; :func:`plant_step` shifts each new output into the output
history in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArxParams",
    "TrajectorySpec",
    "TRAJECTORY_KINDS",
    "parameter_vector",
    "plant_step",
    "reference_trajectory",
]

TRAJECTORY_KINDS = ("filtered_square", "triangle", "sine")


@dataclass(frozen=True)
class ArxParams:
    """Output coefficients ``a`` (length n >= 0) and input coefficients ``b`` (length m >= 1)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("plant coefficients must be finite")
        if b.size < 1:
            raise ValueError("need at least one input coefficient")
        if b[0] == 0.0:
            raise ValueError("leading input coefficient b[0] must be nonzero")

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def m(self) -> int:
        return self.b.size

    @property
    def d(self) -> int:
        return self.a.size + self.b.size


def parameter_vector(p: ArxParams) -> np.ndarray:
    """True parameters in regressor order [b_1..b_m, a_1..a_n]."""
    return np.concatenate([p.b, p.a])


def plant_step(p: ArxParams, u_now: np.ndarray, y_hist: np.ndarray) -> float:
    """Next output y(k+1) from inputs u(k)..u(k-m+1) and outputs y(k)..y(k-n+1).

    The new output is shifted into ``y_hist`` in place, dropping the oldest.
    """
    if not math.isfinite(u_now[0]):
        raise ValueError(f"control input must be finite, got {u_now[0]!r}")
    y_next = float(p.b @ u_now + p.a @ y_hist)
    y_hist[1:] = y_hist[:-1]
    y_hist[:1] = y_next
    return y_next


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
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0.0):
            raise ValueError("frequency_hz must be positive")
        if not (math.isfinite(self.sample_period_s) and self.sample_period_s > 0.0):
            raise ValueError("sample_period_s must be positive")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")


def reference_trajectory(spec: TrajectorySpec, count: int) -> np.ndarray:
    """Reference values r(0) .. r(count-1).

    sine:            A*sin(2*pi*f*k*dt)
    triangle:        symmetric, period 1/f, starts at 0 rising, peak +A at the
                     quarter period
    filtered_square: +-A square wave (first half-period positive) through the
                     exact zero-order-hold discretization of 1/(s+1):
                     r(k+1) = exp(-dt)*r(k) + (1-exp(-dt))*q(k), r(0) = 0
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    k = np.arange(count, dtype=float)
    phase = np.mod(k * spec.sample_period_s * spec.frequency_hz, 1.0)
    if spec.kind == "sine":
        return spec.amplitude * np.sin(2.0 * math.pi * spec.frequency_hz * k * spec.sample_period_s)
    if spec.kind == "triangle":
        tri = np.where(phase < 0.25, 4.0 * phase, np.where(phase < 0.75, 2.0 - 4.0 * phase, 4.0 * phase - 4.0))
        return spec.amplitude * tri
    square = np.where(phase < 0.5, spec.amplitude, -spec.amplitude)
    decay = math.exp(-spec.sample_period_s)
    out = np.zeros(count)
    for i in range(count - 1):
        out[i + 1] = decay * out[i] + (1.0 - decay) * square[i]
    return out

