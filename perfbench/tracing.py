"""Call tracing from outside the package, and exact counters from episode traces.

Each traced function is wrapped where its caller looks it up: every module of
the package that holds a reference to the function object gets the wrapper in
its place (``aldcontrol.harness.iqf_step``, ``aldcontrol.controller.ce_control``
and so on).  A wrapper records one span per call: name, start, end and the
span that was open when it was called.  Spans stay in flat arrays in memory;
self time is computed from them once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from workloads import POSTERIOR_FLOOR

# (module, function) pairs reported as ``<module>.<function>.*`` metrics.
LAYERS = (
    ("noise", "mixture_sample"),
    ("estimator", "iqf_step"),
    ("estimator", "rls_step"),
    ("controller", "posterior_update"),
    ("controller", "ensemble_control"),
    ("controller", "ce_control"),
    ("controller", "oracle_control"),
    ("plant", "plant_step"),
    ("plant", "record_measurement"),
    ("plant", "reference_trajectory"),
    ("harness", "run_episode"),
    ("harness", "monte_carlo"),
    ("harness", "export_trace_csv"),
    ("harness", "read_trace_csv"),
    ("harness", "export_summary_csv"),
    ("harness", "accumulated_error"),
    ("harness", "max_tracking_error"),
    ("config", "preset_config"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{module}.{function}" for module, function in LAYERS)

# Exact counters derived from returned EpisodeTraces.
COUNTERS = (
    ("controller.posterior_floor_share", "share"),
    ("controller.u_saturated_share", "share"),
    ("controller.b1_clamp_share", "share"),
    ("harness.episodes_diverged", "count"),
)


class Tracer:
    """Wraps the functions in ``LAYERS`` of one imported package while installed."""

    def __init__(self, package):
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        # (cfg, trace) of every run_episode call while ``episodes`` is a list
        self.episodes: list | None = None
        self._patches = []
        prefix = package.__name__
        modules = [m for key, m in list(sys.modules.items()) if key == prefix or key.startswith(prefix + ".")]
        for index, (module_name, function_name) in enumerate(LAYERS):
            module = getattr(package, module_name, None)
            original = getattr(module, function_name, None)
            if not callable(original):
                # removed by a refactor: the layer reports zero calls
                continue
            wrapper = self._wrap(index, original, keep_episode=(module_name, function_name) == ("harness", "run_episode"))
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original, wrapper))

    def _wrap(self, name_id: int, fn, keep_episode: bool):
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep_episode and tracer.episodes is not None:
                tracer.episodes.append((args[0] if args else kwargs["cfg"], result))
            return result

        return traced

    def install(self) -> None:
        for holder, attr, _original, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def remove(self) -> None:
        for holder, attr, original, _wrapper in self._patches:
            setattr(holder, attr, original)

    @property
    def span_count(self) -> int:
        return len(self._name)

    def layer_metrics(self, traced_op_ns: int) -> dict[str, tuple[float, str]]:
        """calls, self µs per call and self share of traced operation time, per layer."""
        names = np.asarray(self._name, dtype=np.int64)
        parents = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end, dtype=np.int64) - np.asarray(self._start, dtype=np.int64)
        child = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_ns = dur - child
        calls = np.bincount(names, minlength=len(LAYERS))
        self_total = np.bincount(names, weights=self_ns, minlength=len(LAYERS))
        out = {}
        for i, name in enumerate(LAYER_NAMES):
            n = int(calls[i])
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_us_per_call"] = (float(self_total[i]) / n / 1e3 if n else 0.0, "us")
            out[f"{name}.self_share"] = (float(self_total[i]) / traced_op_ns if traced_op_ns else 0.0, "share")
        return out


def episode_counters(episodes) -> dict[str, tuple[float, str]]:
    """Exact counters over (cfg, EpisodeTrace) pairs; each repeats for the same inputs."""
    floor_hits = floor_total = 0
    sat_hits = sat_total = 0
    clamp_hits = clamp_total = 0
    diverged = 0
    for cfg, trace in episodes:
        diverged += bool(trace.failed)
        post = np.asarray(trace.posteriors)
        if post.ndim == 2 and post.shape[1] > 1:
            rows = post[np.all(np.isfinite(post), axis=1)]
            floor_hits += int(np.count_nonzero(rows <= POSTERIOR_FLOOR * (1.0 + 1e-9)))
            floor_total += rows.size
        u = np.asarray(trace.u)
        u = u[np.isfinite(u)]
        sat_hits += int(np.count_nonzero(np.abs(u) == cfg.u_max))
        sat_total += u.size
        b1 = np.asarray(trace.w_hat)[..., 0]
        b1 = b1[np.isfinite(b1)]
        clamp_hits += int(np.count_nonzero(np.abs(b1) < cfg.eps_b))
        clamp_total += b1.size
    return {
        "controller.posterior_floor_share": (floor_hits / floor_total if floor_total else 0.0, "share"),
        "controller.u_saturated_share": (sat_hits / sat_total if sat_total else 0.0, "share"),
        "controller.b1_clamp_share": (clamp_hits / clamp_total if clamp_total else 0.0, "share"),
        "harness.episodes_diverged": (diverged, "count"),
    }
