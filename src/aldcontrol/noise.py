"""Asymmetric Laplace and Gaussian noise: densities, means, mixtures, sampling.

The asymmetric Laplace (ALD) density used throughout is

    f(x) = tau*(1-tau)/sigma * exp(-(1-tau)*|x-mu|/sigma)   for x <  mu
    f(x) = tau*(1-tau)/sigma * exp(-tau*|x-mu|/sigma)       for x >= mu

so the location ``mu`` is the tau-quantile of the distribution, P(X < mu) = tau.
A skewed component (tau far from 1/2) has one long exponential tail: the side
below mu decays with scale sigma/(1-tau), the side above with scale sigma/tau.
The mean is ``mu + sigma*(1-2*tau)/(tau*(1-tau))``.

Measurement noise is modelled as a finite mixture of ALD and Gaussian
components with strictly positive weights summing to one.  Its scalar draw
(one uniform to pick the component, then the component's draws) is the
stream episodes are simulated on; a loop of such draws binds it to the
generator once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "AldParams",
    "GaussianParams",
    "MixtureComponent",
    "NoiseModel",
    "ald_pdf",
    "ald_mean",
    "ald_sample",
    "gaussian_pdf",
    "gaussian_sample",
    "mixture_pdf",
    "mixture_sample",
    "pinball_loss",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AldParams:
    """One asymmetric Laplace component: skewness tau in (0,1), location mu, scale sigma > 0."""

    tau: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _require_finite("tau", self.tau)
        _require_finite("mu", self.mu)
        _require_finite("sigma", self.sigma)
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class GaussianParams:
    """Gaussian component with the (mean, variance) convention."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        _require_finite("mean", self.mean)
        _require_finite("variance", self.variance)
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    dist: AldParams | GaussianParams

    def __post_init__(self) -> None:
        _require_finite("weight", self.weight)
        if not self.weight > 0.0:
            raise ValueError(f"component weight must be strictly positive, got {self.weight}")


@dataclass(frozen=True)
class NoiseModel:
    """Weighted mixture of ALD and/or Gaussian components.

    Weights must be strictly positive and sum to one within 1e-12.
    """

    components: tuple[MixtureComponent, ...]

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ValueError("noise model needs at least one component")
        total = math.fsum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1 within 1e-12, got {total!r}")


def ald_pdf(p: AldParams, x):
    """Density of the asymmetric Laplace component at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    peak = p.tau * (1.0 - p.tau) / p.sigma
    rate = np.where(x < p.mu, (1.0 - p.tau) / p.sigma, p.tau / p.sigma)
    out = peak * np.exp(-rate * np.abs(x - p.mu))
    return float(out) if out.ndim == 0 else out


def ald_mean(p: AldParams) -> float:
    """Mean mu + sigma*(1-2*tau)/(tau*(1-tau)) of the component."""
    return p.mu + p.sigma * (1.0 - 2.0 * p.tau) / (p.tau * (1.0 - p.tau))


def ald_sample(p: AldParams, rng: np.random.Generator, size: int | None = None):
    """Draw from the component via the two-sided exponential decomposition.

    With probability tau the draw falls below mu (an exponential with rate
    (1-tau)/sigma subtracted from mu), otherwise above it (rate tau/sigma).
    Each sample consumes one uniform and one standard-exponential draw, so the
    sequence is fully determined by the generator state.
    """
    if size is None:
        return _draw(p, rng)()
    u = rng.random(size)
    e = rng.exponential(1.0, size)
    return np.where(u < p.tau, p.mu - e * p.sigma / (1.0 - p.tau), p.mu + e * p.sigma / p.tau)


def gaussian_pdf(g: GaussianParams, x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * (x - g.mean) ** 2 / g.variance) / math.sqrt(2.0 * math.pi * g.variance)
    return float(out) if out.ndim == 0 else out


def gaussian_sample(g: GaussianParams, rng: np.random.Generator, size: int | None = None):
    return _draw(g, rng)(size)


def _component_pdf(dist: AldParams | GaussianParams, x):
    if isinstance(dist, AldParams):
        return ald_pdf(dist, x)
    return gaussian_pdf(dist, x)


def _draw(dist: AldParams | GaussianParams, rng: np.random.Generator):
    """One draw from the component ``dist``, bound to ``rng`` once: a function of no arguments.

    An ALD draw is ``rng.random()`` then ``rng.standard_exponential()``, the
    double that ``rng.exponential(1.0)`` multiplies by 1.0.  A Gaussian draw's
    function also takes a size.
    """
    if isinstance(dist, GaussianParams):
        mean, scale, normal = dist.mean, math.sqrt(dist.variance), rng.standard_normal
        return lambda size=None: mean + scale * normal(size)
    uniform, exponential = rng.random, rng.standard_exponential
    tau, mu, sigma, rest = dist.tau, dist.mu, dist.sigma, 1.0 - dist.tau

    def draw():
        if uniform() < tau:
            return mu - exponential() * sigma / rest
        return mu + exponential() * sigma / tau

    return draw


def _sampler(m: NoiseModel, rng: np.random.Generator):
    """:func:`mixture_sample`'s scalar draw bound to ``rng`` once: a function of no arguments.

    The weights are summed left to right and each component's constants and
    generator methods are taken here, so a draw pays for its arithmetic alone.
    """
    uniform = rng.random
    *picks, (_, last) = zip(accumulate(c.weight for c in m.components), [_draw(c.dist, rng) for c in m.components])

    def sample():
        # the last component also takes the draws above a total weight rounded below 1
        v = uniform()
        for edge, draw in picks:
            if v < edge:
                return draw()
        return last()

    return sample


def _component_sample(dist: AldParams | GaussianParams, rng: np.random.Generator, size=None):
    if isinstance(dist, AldParams):
        return ald_sample(dist, rng, size)
    return gaussian_sample(dist, rng, size)


def mixture_pdf(m: NoiseModel, x):
    """Weighted sum of the component densities."""
    x = np.asarray(x, dtype=float)
    out = sum(c.weight * _component_pdf(c.dist, x) for c in m.components)
    return float(out) if np.ndim(out) == 0 else out


def mixture_sample(m: NoiseModel, rng: np.random.Generator, size: int | None = None):
    """Draw from the mixture: pick a component by weight, then draw from it.

    The scalar path consumes one uniform plus the chosen component's draws:
    the component is the first whose cumulative weight exceeds the uniform,
    or the last.  Episode simulation draws its noise through this path bound
    to a seed's generator once (``_sampler``).  The vectorized path draws
    every component in blocks and selects, so it consumes the stream
    differently.
    """
    if size is None:
        return _sampler(m, rng)()

    sel = rng.random(size)
    edges = np.cumsum([c.weight for c in m.components])
    # the last component also takes the draws above a total weight rounded below 1
    edges[-1] = np.inf
    out = np.empty(size, dtype=float)
    lo = 0.0
    for c, hi in zip(m.components, edges):
        draws = _component_sample(c.dist, rng, size)
        mask = (sel >= lo) & (sel < hi)
        out[mask] = draws[mask]
        lo = hi
    return out


def pinball_loss(tau: float, u):
    """Check loss u*(tau - 1[u<0]); nonnegative, convex, zero only at u = 0."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    u = np.asarray(u, dtype=float)
    out = np.multiply(u, np.where(u < 0.0, tau - 1.0, tau))
    return float(out) if out.ndim == 0 else out
