"""How far the episode traces move between two checkouts.

    python3 tools/trace_drift.py OLD NEW

OLD and NEW are repository roots, for example a checkout of the parent
commit (``git worktree add <dir> HEAD``) and the working tree.  Each tree
runs one child process with ``PYTHONPATH=<tree>/src``, which simulates the
config set with :func:`aldcontrol.run_episode` and returns every trace's
y, u, posteriors, w_hat and fail step.  The config set is the one that
``tests/test_golden_traces.py`` pins:

- the golden configs: every preset of NEW × feedback × controller token, 300
  steps, seed 0;
- the nine-hypothesis ensemble on ``noise1``, 300 steps, seed 0;
- the divergent ``base`` rls config, 1400 steps, ``u_max`` 1e-12.

For each config and array it prints max |new - old| / max |old| over the
entries finite in both (0 when nothing moved), then every fail-step move.
The last line counts the configs that moved and names the largest drift.
A trace whose array changed shape is reported as such.  The tool always
exits 0: it reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ARRAYS = ("y", "u", "posteriors", "w_hat")


def golden_configs(tree: Path) -> list[dict]:
    """The config set, as specs: a name, a preset, and the ``RunConfig`` fields that replace the preset's.

    The presets and their hypothesis counts, which set the ``single-ald``
    tokens, are read from ``tree``'s package.
    """
    presets = Path(tree) / "src" / "aldcontrol" / "presets"
    specs = []
    for path in sorted(presets.glob("*.json")):
        preset = path.stem
        n_hyp = len(json.loads(path.read_text())["hypotheses"])
        for feedback in ("output", "measurement"):
            for token in ["ensemble", "rls", "oracle"] + [f"single-ald:{i}" for i in range(n_hyp)]:
                fields = {"steps": 300, "seed": 0, "feedback": feedback, "controller": token}
                specs.append({"name": f"{preset}/{feedback}/{token}", "preset": preset, "fields": fields})
    taus, sigmas = np.linspace(0.1, 0.9, 9), np.geomspace(0.01, 2.0, 9)
    nine = [[float(t), 0.0, float(s)] for t, s in zip(taus, sigmas)]
    fields = {"steps": 300, "seed": 0, "controller": "ensemble", "hypotheses": nine}
    specs.append({"name": "noise1/nine-hypothesis/ensemble", "preset": "noise1", "fields": fields})
    fields = {"steps": 1400, "controller": "rls", "u_max": 1e-12}
    specs.append({"name": "base/divergent/rls", "preset": "base", "fields": fields})
    return specs


def _child(out: str) -> None:
    """Run the specs read from stdin under the importable ``aldcontrol`` and save their traces to ``out``."""
    from dataclasses import replace

    from aldcontrol import AldParams, preset_config, run_episode

    arrays = {}
    for spec in json.load(sys.stdin):
        fields = dict(spec["fields"])
        if "hypotheses" in fields:
            fields["hypotheses"] = tuple(AldParams(*h) for h in fields["hypotheses"])
        trace = run_episode(replace(preset_config(spec["preset"]), **fields))
        for name in ARRAYS:
            arrays[f"{spec['name']}|{name}"] = getattr(trace, name)
        arrays[f"{spec['name']}|fail_step"] = np.array(-1 if trace.fail_step is None else trace.fail_step)
    np.savez(out, **arrays)


def traces(tree: Path, specs: list[dict]) -> dict[str, np.ndarray]:
    """The arrays of every spec's trace under ``tree``'s ``src``, keyed ``<config>|<array>``."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "traces.npz"
        command = [sys.executable, str(Path(__file__).resolve()), "--child", str(out)]
        subprocess.run(command, input=json.dumps(specs), text=True, env=env, check=True)
        with np.load(out) as saved:
            return dict(saved)


def drift(old: np.ndarray, new: np.ndarray) -> float:
    """max |new - old| / max |old| over the entries finite in both: 0.0 when they are equal, inf over a zero scale."""
    both = np.isfinite(old) & np.isfinite(new)
    if not both.any():
        return 0.0
    change, scale = np.abs(new[both] - old[both]).max(), np.abs(old[both]).max()
    return float(change / scale) if scale > 0 else (0.0 if change == 0 else float("inf"))


def report(specs: list[dict], old: dict[str, np.ndarray], new: dict[str, np.ndarray]) -> list[str]:
    """The printed lines: one per config with each array's drift, one per fail-step move, then the count."""
    lines, moves, moved, largest = [], [], 0, (0.0, "")
    width = max(len(spec["name"]) for spec in specs)
    for spec in specs:
        name, cells, changed = spec["name"], [], False
        for array in ARRAYS:
            a, b = old[f"{name}|{array}"], new[f"{name}|{array}"]
            if a.shape != b.shape:
                cells.append(f"{array} shape {a.shape} -> {b.shape}")
                changed = True
                continue
            value = drift(a, b)
            cells.append(f"{array} {value:.3g}")
            changed |= value != 0.0
            largest = max(largest, (value, f"{name} {array}"))
        steps = [int(side[f"{name}|fail_step"]) for side in (old, new)]
        if steps[0] != steps[1]:
            moves.append(f"{name}: fail step {' -> '.join('none' if s < 0 else str(s) for s in steps)}")
            changed = True
        moved += changed
        lines.append(f"{name:<{width}}  " + "  ".join(cells))
    summary = f"{moved} of {len(specs)} configs moved"
    if largest[0] > 0.0:
        summary += f"; largest drift {largest[0]:.3g} ({largest[1]})"
    return lines + (moves or ["no fail step moved"]) + [summary]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        _child(argv[1])
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/trace_drift.py OLD NEW", file=sys.stderr)
        return 0
    specs = golden_configs(Path(argv[1]))
    old, new = (traces(Path(tree), specs) for tree in argv)
    print("\n".join(report(specs, old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
