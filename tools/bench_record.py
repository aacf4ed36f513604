"""Record the benchmark numbers of this checkout in ``BENCH_<N>.json`` at the repository root.

    python3 tools/bench_record.py N

runs, from the repository root:

- perfbench's three workloads (``perfbench/run.py --seed 0``) for the
  ``run_seconds`` of ``BENCHMARK.json``, untraced and traced, each in a
  child process.  The last two lines a run prints are JSON: its record
  (versions, machine, host-time metrics and the yardstick), then its result
  (correctness and metrics in reference time);
- the Tier-1 suite, timed as one child process;
- the Monte Carlo comparison of the paper, in this process:
  ``compare_controllers`` on ``base``, 100 runs of ensemble, rls,
  single-ald:0 and oracle with 1000 steps and the window (100, 1000), best
  of 3.  Its noise tape (the 100 rows of ``harness._noise_row``, drawn with
  the kept row cleared) is timed alone, best of 3; the core is the rest.

The file also holds the git sha, the platform, the Python, numpy and BLAS
versions, the OpenBLAS core in use and numpy's SIMD features, since both
choose the kernels that set the bits of a trace.  Nothing is gated.  The
tool refuses to overwrite an existing file, and takes about five minutes.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_base", "outlier_pairs", "cli_simulate")
TIER1 = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors")
CONTROLLERS = ("ensemble", "rls", "single-ald:0", "oracle")
RUNS, STEPS, WINDOW, REPEATS = 100, 1000, (100, 1000), 3
CORE_SYMBOL = "scipy_openblas_get_corename64_"


def perfbench_run(stdout: str) -> dict:
    """The record and the result of one perfbench run: the JSON of the last two lines of its output."""
    *_, record, result = stdout.splitlines()
    return {**json.loads(record), "result": json.loads(result)}


def assemble(machine: dict, outputs: dict[str, dict[int, str]], tier1: dict, monte_carlo: dict) -> dict:
    """The document of a BENCH file, from perfbench's output per workload and ``--trace`` value."""
    runs = {name: {trace: perfbench_run(out) for trace, out in by_trace.items()} for name, by_trace in outputs.items()}
    return {
        "machine": machine,
        "e2e": {name: {m: v["value"] for m, v in by[0]["result"]["metrics"].items()} for name, by in runs.items()},
        "perfbench": {name: {f"trace{trace}": run for trace, run in by.items()} for name, by in runs.items()},
        "tier1": tier1,
        "monte_carlo": monte_carlo,
    }


def openblas_core(library) -> str | None:
    """The core that the OpenBLAS ``library`` dispatches to, or None if it has no such query."""
    query = getattr(ctypes.CDLL(str(library)), CORE_SYMBOL, None)
    if query is None:
        return None
    query.argtypes, query.restype = [], ctypes.c_char_p
    return query().decode()


def machine() -> dict:
    """The host, the versions and the kernels that a recording ran on."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    libraries = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"))
    return {
        "git_sha": sha or None,
        "platform": platform.platform(),
        "processor": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "openblas_core": openblas_core(libraries[0]) if libraries else None,
        "simd_found": [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]],
    }


def tier1() -> dict:
    """The wall time and the closing line of the Tier-1 suite, run as ROADMAP.md gives it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    return {"seconds": time.perf_counter() - start, "summary": done.stdout.strip().splitlines()[-1]}


def best_of(repeats: int, run) -> float:
    """The least wall time of ``repeats`` calls of ``run``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def monte_carlo() -> dict:
    """The Monte Carlo comparison's time, and the share of it that draws the noise tape."""
    sys.path.insert(0, str(ROOT / "src"))
    from aldcontrol import compare_controllers, preset_config
    from aldcontrol.harness import _noise_row

    cfg = replace(preset_config("base"), steps=STEPS)

    def tape():
        _noise_row.cache_clear()
        for seed in range(cfg.seed, cfg.seed + RUNS):
            _noise_row(cfg.noise, seed, cfg.steps)

    total = best_of(REPEATS, lambda: compare_controllers(cfg, list(CONTROLLERS), RUNS, WINDOW))
    tape_s = best_of(REPEATS, tape)
    return {
        "preset": "base",
        "controllers": list(CONTROLLERS),
        "runs": RUNS,
        "steps": STEPS,
        "window": list(WINDOW),
        "repeats": REPEATS,
        "total_s": total,
        "tape_s": tape_s,
        "tape_share": tape_s / total,
        "core_share": 1 - tape_s / total,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (argv[0].isascii() and argv[0].isdigit()):
        print("usage: python3 tools/bench_record.py N", file=sys.stderr)
        return 2
    path = ROOT / f"BENCH_{int(argv[0])}.json"
    if path.exists():
        print(f"error: {path} already exists", file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    outputs = {name: {} for name in WORKLOADS}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0"]
            command += ["--seconds", str(seconds), "--trace", str(trace)]
            outputs[name][trace] = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    document = assemble(machine(), outputs, tier1(), monte_carlo())
    with path.open("x") as fh:
        fh.write(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
