"""Fast self-check of the benchmark: every workload for one short run, untraced and traced.

Run from the repository root (about half a minute):

    python3 perfbench/selfcheck.py

For each workload in BENCHMARK.json it runs the benchmark command with the
default seed and ``--seconds 1`` (one block of ops), and asserts that the
last line names exactly the declared metrics with their units and finite
values, and that no op failed its check (error_rate 0).  It also asserts that
the command refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_problems(proc: subprocess.CompletedProcess, declared: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("attempted", 0) < 1 or result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"error_rate is not 0: attempted {result.get('attempted')}, failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: missing {set(names) - set(metrics)}, extra {set(metrics) - set(names)}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = result_problems(run(spec, ROOT, workload["name"], trace), spec[key])
            label = f"{workload['name']} --trace {trace}"
            print(f"{label}: {'ok' if not problems else 'FAIL'}")
            failures += [f"{label}: {p}" for p in problems]

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec, bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"without the program: {'refused' if refused else 'FAIL'}")
    if not refused:
        failures.append(f"ran without the program: exit {proc.returncode}")

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
