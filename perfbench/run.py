"""aldcontrol benchmark: one closed-loop workload per run, outputs checked, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload mc_base --seed 0 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced and
untraced blocks alternately and prints the per-layer metrics, the exact
episode counters and the tracing overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it is the run record (versions, machine, seed).  Workloads,
metrics and their bounds are declared in BENCHMARK.json.

Everything runs in this one process with one BLAS thread.  The package is
imported from ``src/`` next to this directory, never from an installed copy.

Timings are reported in reference time.  The host this was written on
changes speed by up to 1.8x within minutes, for every process alike, so a
fixed yardstick computation (``yardstick_ns``) is timed between blocks of
operations.  Each interval is scaled by ``YARD_REF_NS`` over the mean of the
yardstick times on either side of it.  A change to the program cannot change
the yardstick, so a slower program still reads slower.  The run record keeps
the unscaled values next to the yardstick's median time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread, set before numpy loads: the episode loop works on 3-vectors
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracing import COUNTERS, LAYER_NAMES, Tracer, episode_counters  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
PACKAGE = "aldcontrol"
SETUP_REPS = 9
# The yardstick's time that defines reference time.  It is close to its time
# on the host this was written on when that host runs at full speed.
YARD_REF_NS = 10_000_000

END_TO_END = (
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(
    (f"{layer}.{kind}", unit)
    for layer in LAYER_NAMES
    for kind, unit in (("calls", "count"), ("self_us_per_call", "us"), ("self_share", "share"))
) + COUNTERS + (("tracing.overhead_share", "share"),)


def check_source() -> None:
    """Put ``src/`` first on the import path; refuse to run without it."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / PACKAGE} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def yardstick_ns() -> int:
    """Time a fixed computation like the episode loop: 3-vector recursive least squares in numpy."""
    P = np.eye(3) * 100.0
    w = np.full(3, 0.1)
    x = np.array([0.3, -0.2, 0.5])
    u = 0.0
    t0 = time.perf_counter_ns()
    for _ in range(600):
        Px = P @ x
        gain = Px / (1.0 + float(x @ Px))
        w = w + gain * (0.01 - float(x @ w))
        P = P - np.outer(gain, Px)
        x = np.roll(x, 1)
        u = min(max(float(w[0]) * 1.5 + 0.5 * u, -1e3), 1e3)
    return time.perf_counter_ns() - t0


def to_reference(yards: list[int]) -> list[float]:
    """Scale factor from host time to reference time for each interval between two yardstick runs."""
    return [2.0 * YARD_REF_NS / (a + b) for a, b in zip(yards, yards[1:])]


def timed_setup(workload, out_dir: Path):
    """Import the package, load the presets and build the configs, SETUP_REPS times.

    numpy is imported before the first repetition, so each one measures the
    same work.  Returns the package of the last repetition and the median time
    in reference seconds and in host seconds.
    """
    times = []
    yards = [yardstick_ns()]
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        ac = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
        workload.setup(ac, out_dir)
        times.append(time.perf_counter() - t0)
        yards.append(yardstick_ns())
    if not Path(ac.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported {ac.__file__}, not the package under {SRC}")
    scaled = [t * f for t, f in zip(times, to_reference(yards))]
    return ac, statistics.median(scaled), statistics.median(times)


def load_golden(name: str, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    with GOLDEN.open() as fh:
        return json.load(fh)[name]["ops"]


def git_sha(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from its files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed: int, seconds: float, golden: list, tracer: Tracer | None) -> dict:
    """Run whole blocks of ops until ``seconds`` have passed; check every op after its block.

    With a tracer, even blocks run traced and odd blocks untraced, and the
    episodes of block 0 are kept for the exact counters.  Rates and latencies
    are in reference time; ``host_*`` keeps them unscaled.
    """
    op_ns: list[float] = []
    host_op_ns: list[int] = []
    rates: dict[bool, list[float]] = {False: [], True: []}
    host_rates: list[float] = []
    yards = [yardstick_ns()]
    traced_ns = 0
    attempted = failed = 0
    episodes = []
    deadline = time.perf_counter() + seconds
    for b, block in enumerate(workload.blocks(seed)):
        traced = tracer is not None and b % 2 == 0
        if traced:
            tracer.episodes = episodes if b == 0 else None
            tracer.install()
        results = []
        try:
            for spec in block:
                t0 = time.perf_counter_ns()
                try:
                    out, error = workload.run(spec), None
                except Exception:  # a failed op is counted, and the run goes on
                    out, error = None, traceback.format_exc()
                results.append((spec, out, error, time.perf_counter_ns() - t0))
        finally:
            if tracer is not None:
                tracer.remove()
        yards.append(yardstick_ns())
        scale = to_reference(yards[-2:])[0]
        block_ns = sum(r[3] for r in results)
        episodes_done = sum(workload.episodes(r[0]) for r in results)
        rates[traced].append(episodes_done / (block_ns * scale / 1e9))
        if traced:
            traced_ns += block_ns
        else:
            host_rates.append(episodes_done / (block_ns / 1e9))
            host_op_ns += [r[3] for r in results]
            op_ns += [r[3] * scale for r in results]
        for spec, out, error, _ in results:
            index = attempted
            attempted += 1
            if error is None:
                try:
                    problems = workload.check(seed, spec, out, golden[index] if index < len(golden) else None)
                except Exception:
                    problems = [traceback.format_exc()]
            else:
                problems = [error]
            if problems:
                failed += 1
                print(f"op {index} {spec}: " + "; ".join(problems), file=sys.stderr)
        if time.perf_counter() >= deadline and (tracer is None or b >= 1):
            break
    return {
        "op_ns": op_ns,
        "host_op_ns": host_op_ns,
        "rates": rates,
        "host_rates": host_rates,
        "yards": yards,
        "traced_ns": traced_ns,
        "attempted": attempted,
        "failed": failed,
        "episodes": episodes,
        "golden_checked": min(attempted, len(golden)),
        "blocks": b + 1,
    }


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.9 with at least ten samples beyond it, but not below the median."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_source()
    loadavg = os.getloadavg()
    workload = WORKLOADS[args.workload]()
    out_dir = OUT_DIR / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    ac, setup_s, host_setup_s = timed_setup(workload, out_dir)
    golden = load_golden(workload.name, args.seed)
    tracer = Tracer(ac) if args.trace else None
    run = measure(workload, args.seed, args.seconds, golden, tracer)

    if args.trace:
        metrics = tracer.layer_metrics(run["traced_ns"])
        metrics.update(episode_counters(run["episodes"]))
        overhead = 1.0 - statistics.median(run["rates"][True]) / statistics.median(run["rates"][False])
        metrics["tracing.overhead_share"] = (overhead, "share")
        names = PER_LAYER
    else:
        lat_ms = np.array(run["op_ns"]) / 1e6
        host_lat_ms = np.array(run["host_op_ns"]) / 1e6
        q = tail_quantile(lat_ms.size)
        metrics = {
            "setup_s": (setup_s, "s"),
            "episodes_per_s": (statistics.median(run["rates"][False]), "1/s"),
            "op_p50_ms": (float(np.quantile(lat_ms, 0.5)), "ms"),
            "op_p90_ms": (float(np.quantile(lat_ms, q)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        names = END_TO_END
    error_rate = run["failed"] / run["attempted"]

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "steps_per_episode": workload.steps,
        "blocks": run["blocks"],
        "ops": run["attempted"],
        "golden_ops_checked": run["golden_checked"],
        "error_rate": error_rate,
        "yardstick_ms_median": statistics.median(run["yards"]) / 1e6,
        "yardstick_ref_ms": YARD_REF_NS / 1e6,
    }
    if args.trace:
        record["spans"] = tracer.span_count
    else:
        record["op_samples"] = len(run["op_ns"])
        record["op_p90_quantile"] = q
        record["host_time"] = {
            "setup_s": host_setup_s,
            "episodes_per_s": statistics.median(run["host_rates"]),
            "op_p50_ms": float(np.quantile(host_lat_ms, 0.5)),
            "op_p90_ms": float(np.quantile(host_lat_ms, q)),
        }
    for name, unit in names:
        print(f"{name:<44} {metrics[name][0]:>14.6g} {unit}")
    print(f"{'error_rate':<44} {error_rate:>14.6g} share")
    print(json.dumps({"record": record}))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
