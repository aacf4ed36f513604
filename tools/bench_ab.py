"""A/B of perfbench's end-to-end metrics between two checkouts, in alternating pairs of runs.

    python3 tools/bench_ab.py OLD NEW [--workloads W ...] [--pairs N] [--seconds S]

OLD and NEW are repository roots, for example a checkout of the parent
commit (``git worktree add <dir> HEAD``) and the working tree.  For each
workload (by default every one in NEW's ``BENCHMARK.json``) it runs
``python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0`` in
each tree as a child process, N pairs of runs (default 10), for S seconds
(default NEW's ``run_seconds``).  OLD runs first in odd pairs and NEW in
even pairs.  Each run's last two lines are read with
``bench_record.perfbench_run``.

For each workload and end-to-end metric it prints OLD's median and
quartiles, NEW's median and the change in %, NEW's wins out of the pairs
(ties count for neither side), the failed operations on each side, and a
verdict.  The verdict takes ``better`` and ``bound`` from NEW's
``BENCHMARK.json`` and reads the bound as a fraction of OLD's median:

- ``gain``: NEW won at least 9/10 of the pairs, and the medians differ by
  more than OLD's interquartile range;
- ``worse``: NEW's median is worse than OLD's by more than the bound;
- ``unresolved``: OLD's interquartile range over its median exceeds the
  bound, and not every NEW run beats every OLD run;
- ``same``: anything else.

A workload whose run exits non-zero is reported with the run's last error
line and not compared.  The tool always exits 0: it reports.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_record import perfbench_run


def pair_order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair``, counted from 1, in the order they run: OLD first in odd pairs."""
    return ("old", "new") if pair % 2 else ("new", "old")


def quartiles(values) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values`` (numpy's linear quantiles)."""
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return float(q1), float(median), float(q3)


def wins(old, new, better: str) -> int:
    """The pairs in which NEW's value is strictly better than OLD's."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (n - o) > 0 for o, n in zip(old, new))


def verdict(old, new, better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``same`` for the paired values ``old`` and ``new`` of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(old)
    ahead = sign * (float(np.median(new)) - median)  # > 0 when NEW's median is better
    if 10 * wins(old, new, better) >= 9 * len(old) and ahead > q3 - q1:
        return "gain"
    if -ahead > bound * median:
        return "worse"
    beats_every_old_run = min(sign * v for v in new) > max(sign * v for v in old)
    if (q3 - q1) / median > bound and not beats_every_old_run:
        return "unresolved"
    return "same"


def compare(old_runs: list[dict], new_runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric of ``end_to_end`` from the paired runs' ``perfbench_run`` documents."""
    rows = []
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        old, new = ([run["result"]["metrics"][name]["value"] for run in runs] for runs in (old_runs, new_runs))
        q1, median, q3 = quartiles(old)
        new_median = float(np.median(new))
        rows.append({
            "metric": name, "old_q1": q1, "old_median": median, "old_q3": q3, "new_median": new_median,
            "change": new_median / median - 1.0, "wins": wins(old, new, better), "pairs": len(old),
            "verdict": verdict(old, new, better, bound),
        })
    return rows


def report(workload: str, old_runs: list[dict], new_runs: list[dict], end_to_end: list[dict]) -> str:
    """The printed comparison of one workload."""
    failed = [sum(run["result"]["failed"] for run in runs) for runs in (old_runs, new_runs)]
    attempted = [sum(run["result"]["attempted"] for run in runs) for runs in (old_runs, new_runs)]
    lines = [
        f"{workload}: {len(old_runs)} pairs; failed operations OLD {failed[0]}/{attempted[0]}, "
        f"NEW {failed[1]}/{attempted[1]}",
        f"  {'metric':<16}{'OLD median [q1, q3]':>34}{'NEW median':>13}{'change':>9}{'NEW wins':>10}  verdict",
    ]
    for row in compare(old_runs, new_runs, end_to_end):
        spread = f"{row['old_median']:.6g} [{row['old_q1']:.6g}, {row['old_q3']:.6g}]"
        lines.append(
            f"  {row['metric']:<16}{spread:>34}{row['new_median']:>13.6g}{row['change']:>+9.2%}"
            f"{row['wins']:>7}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def run(tree: Path, workload: str, seconds: float) -> dict:
    """One untraced perfbench run of ``workload`` in ``tree``; CalledProcessError if it exits non-zero."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0"]
    command += ["--seconds", str(seconds), "--trace", "0"]
    return perfbench_run(subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True).stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((args.new / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trees = {"old": args.old, "new": args.new}
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = {"old": [], "new": []}
        try:
            for pair in range(1, args.pairs + 1):
                for side in pair_order(pair):
                    print(f"{workload} pair {pair}/{args.pairs}: {side.upper()}", file=sys.stderr, flush=True)
                    runs[side].append(run(trees[side], workload, seconds))
        except subprocess.CalledProcessError as error:
            last = (error.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"{workload}: a {side.upper()} run exited with {error.returncode}: {last}\n", flush=True)
            continue
        print(report(workload, runs["old"], runs["new"], spec["end_to_end"]) + "\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
