"""Write perfbench/golden.json: the outputs the current program gives for the default seed.

Run from the repository root (takes several minutes):

    python3 perfbench/make_golden.py

Each workload's op sequence for the default seed is run for a fixed number of
ops; every op is checked across paths first, and its output record is kept.
For ``outlier_pairs`` the record covers criterion 6's traffic (seeds 0..99 on
each outlier preset) and stores the win/clean counts it gives.  These counts
are a record of the program as it is, not a verdict: criterion 6's thresholds
are not applied here.
"""

from __future__ import annotations

import itertools
import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS

GOLDEN_OPS = {"mc_base": 30, "outlier_pairs": 400, "cli_simulate": 1080}


def main() -> int:
    run.check_source()
    golden = {"git_sha": run.git_sha(run.ROOT)}
    for name, count in GOLDEN_OPS.items():
        workload = WORKLOADS[name]()
        out_dir = run.OUT_DIR / name
        out_dir.mkdir(parents=True, exist_ok=True)
        run.timed_setup(workload, out_dir)
        specs = itertools.islice(itertools.chain.from_iterable(workload.blocks(DEFAULT_SEED)), count)
        ops = []
        for index, spec in enumerate(specs):
            out = workload.run(spec)
            problems = workload.check(DEFAULT_SEED, spec, out, None)
            if problems:
                raise SystemExit(f"{name} op {index} {spec}: " + "; ".join(problems))
            ops.append(workload.record(spec, out))
        golden[name] = {"ops": ops}
        if name == "outlier_pairs":
            golden[name]["counts"] = {p: {"wins": w, "clean": c} for p, (w, c) in workload.tally.items()}
        print(f"{name}: {len(ops)} ops", file=sys.stderr)
    with run.GOLDEN.open("w") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
