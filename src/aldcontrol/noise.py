"""Asymmetric Laplace and Gaussian noise: components, means, mixtures, sampling.

The asymmetric Laplace (ALD) density used throughout is

    f(x) = tau*(1-tau)/sigma * exp(-(1-tau)*|x-mu|/sigma)   for x <  mu
    f(x) = tau*(1-tau)/sigma * exp(-tau*|x-mu|/sigma)       for x >= mu

so the location ``mu`` is the tau-quantile of the distribution, P(X < mu) = tau.
A skewed component (tau far from 1/2) has one long exponential tail: the side
below mu decays with scale sigma/(1-tau), the side above with scale sigma/tau.
The mean is ``mu + sigma*(1-2*tau)/(tau*(1-tau))``.

Measurement noise is modelled as a finite mixture of ALD and Gaussian
components with strictly positive weights summing to one.  Every parameter
is checked by the package's one number rule (``plant._number``): an int or a
float, not a bool, finite, and positive for sigma, variance and weight; it is
stored as the Python float that rule returns.  A component's ``dist`` must be
an :class:`AldParams` or a :class:`GaussianParams`.

Every draw is one function bound to the generator once, which returns one
value without a size and an array with one.  One value takes one uniform to
pick the component, then the component's draws; it is the stream episodes
are simulated on.  An array takes all its picking uniforms, then a block
from each component in turn, so it consumes the stream differently.

A run scores residuals with :func:`~aldcontrol.controller.bind_posterior`
alone; the densities and the pinball loss are test oracles (``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .plant import _items, _number, _store

__all__ = [
    "AldParams",
    "GaussianParams",
    "MixtureComponent",
    "NoiseModel",
    "ald_mean",
    "mixture_sample",
]


@dataclass(frozen=True)
class AldParams:
    """One asymmetric Laplace component: skewness tau in (0,1), location mu, scale sigma > 0."""

    tau: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        tau = _number(self.tau, "tau")
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        _store(self, tau=tau, mu=_number(self.mu, "mu"), sigma=_number(self.sigma, "sigma", positive=True))


@dataclass(frozen=True)
class GaussianParams:
    """Gaussian component with the (mean, variance) convention."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        _store(self, mean=_number(self.mean, "mean"), variance=_number(self.variance, "variance", positive=True))


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    dist: AldParams | GaussianParams

    def __post_init__(self) -> None:
        _store(self, weight=_number(self.weight, "weight", positive=True))
        if not isinstance(self.dist, (AldParams, GaussianParams)):
            raise ValueError(f"dist must be an AldParams or a GaussianParams, got {self.dist!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Weighted mixture of ALD and/or Gaussian components.

    Weights must be strictly positive and sum to one within 1e-12.  The
    components may come as any iterable of :class:`MixtureComponent` (the
    sequence rule ``plant._items``); they are stored as a tuple, so the
    checked model never changes.
    """

    components: tuple[MixtureComponent, ...]

    def __post_init__(self) -> None:
        _store(self, components=_items(self.components, "components", MixtureComponent))
        if len(self.components) == 0:
            raise ValueError("noise model needs at least one component")
        total = math.fsum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1 within 1e-12, got {total!r}")


def ald_mean(p: AldParams) -> float:
    """Mean mu + sigma*(1-2*tau)/(tau*(1-tau)) of the component."""
    return p.mu + p.sigma * (1.0 - 2.0 * p.tau) / (p.tau * (1.0 - p.tau))


def _draw(dist: AldParams | GaussianParams, rng: np.random.Generator):
    """A draw from the component ``dist``, bound to ``rng`` once: ``draw(size=None)``.

    Without a size it returns one float, with one an array.  One ALD value
    is ``rng.random()`` then ``rng.standard_exponential()``; an ALD array is
    ``rng.random(size)`` then ``rng.standard_exponential(size)``, the doubles
    that ``rng.exponential(1.0, size)`` multiplies by 1.0.
    """
    if isinstance(dist, GaussianParams):
        mean, scale, normal = dist.mean, math.sqrt(dist.variance), rng.standard_normal
        return lambda size=None: mean + scale * normal(size)
    uniform, exponential = rng.random, rng.standard_exponential
    tau, mu, sigma, rest = dist.tau, dist.mu, dist.sigma, 1.0 - dist.tau

    def draw(size=None):
        if size is None:
            if uniform() < tau:
                return mu - exponential() * sigma / rest
            return mu + exponential() * sigma / tau
        u, e = uniform(size), exponential(size)
        return np.where(u < tau, mu - e * sigma / rest, mu + e * sigma / tau)

    return draw


def _sampler(m: NoiseModel, rng: np.random.Generator):
    """:func:`mixture_sample` bound to ``rng`` once: ``sample(size=None)``.

    The weights are summed left to right and each component's constants and
    generator methods are taken here, so a draw pays for its arithmetic alone.
    A value takes the first component whose running weight sum exceeds its
    uniform, else the last, which also takes the uniforms above a total
    weight rounded below 1.  An array takes its uniforms, then a block from
    each component in turn, and applies that rule entry by entry.
    """
    uniform = rng.random
    draws = [_draw(c.dist, rng) for c in m.components]
    *picks, (_, last) = zip(accumulate(c.weight for c in m.components), draws)

    def sample(size=None):
        if size is None:
            v = uniform()
            for edge, draw in picks:
                if v < edge:
                    return draw()
            return last()
        v = uniform(size)
        blocks = [draw(size) for draw in draws]
        # the first true condition picks; the last component's is always true
        return np.select([*(v < edge for edge, _ in picks), True], blocks)

    return sample


def mixture_sample(m: NoiseModel, rng: np.random.Generator, size: int | None = None):
    """Draw from the mixture: pick a component by weight, then draw from it.

    The component is the first whose cumulative weight exceeds the picking
    uniform, or the last.  One value consumes one uniform plus the chosen
    component's draws; episode simulation draws its noise this way, bound to
    a seed's generator once (``_sampler``).  An array of ``size`` consumes
    all its uniforms, then a block of ``size`` draws from every component in
    turn, and picks per entry, so it consumes the stream differently.
    """
    return _sampler(m, rng)(size)
