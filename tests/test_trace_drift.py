import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import trace_drift  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# two short configs: a one-row ensemble, whose Bayes step is the nudged one, and an rls episode it does not touch
SPECS = [
    {"name": "noise1/ensemble", "preset": "noise1", "fields": {"steps": 40, "seed": 3, "controller": "ensemble"}},
    {"name": "base/rls", "preset": "base", "fields": {"steps": 40, "seed": 0, "controller": "rls"}},
]


def tree(root: Path, nudge: bool = False) -> Path:
    """A copy of the package's source under ``root``; ``nudge`` raises the one-row Bayes step's total by one ulp."""
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if nudge:
        path = root / "src" / "aldcontrol" / "controller.py"
        source = path.read_text()
        assert "p_sum = _fold(p)" in source
        path.write_text(source.replace("p_sum = _fold(p)", "p_sum = float(np.nextafter(_fold(p), np.inf))"))
    return root


def drifts(line: str) -> dict[str, float]:
    """The drift of each array on one config line of the report."""
    cells = line.split()[1:]
    return {name: float(value) for name, value in zip(cells[::2], cells[1::2])}


def test_a_tree_against_itself_has_no_drift(tmp_path):
    old = trace_drift.traces(tree(tmp_path / "a"), SPECS)
    new = trace_drift.traces(tree(tmp_path / "b"), SPECS)
    lines = trace_drift.report(SPECS, old, new)
    assert lines[2:] == ["no fail step moved", "0 of 2 configs moved"]
    assert [drifts(line) for line in lines[:2]] == [dict.fromkeys(trace_drift.ARRAYS, 0.0)] * 2


def test_a_one_ulp_nudge_of_the_bayes_step_drifts_the_posteriors(tmp_path):
    old = trace_drift.traces(tree(tmp_path / "a"), SPECS)
    new = trace_drift.traces(tree(tmp_path / "b", nudge=True), SPECS)
    lines = trace_drift.report(SPECS, old, new)
    assert lines[0].startswith("noise1/ensemble ") and 0.0 < drifts(lines[0])["posteriors"] < 1e-12
    assert drifts(lines[1]) == dict.fromkeys(trace_drift.ARRAYS, 0.0)
    assert lines[2] == "no fail step moved"
    assert lines[3].startswith("1 of 2 configs moved; largest drift ")


def test_drift_compares_the_entries_finite_in_both():
    old = np.array([1.0, 2.0, np.nan, np.inf])
    assert trace_drift.drift(old, old.copy()) == 0.0
    assert trace_drift.drift(old, np.array([1.0, 3.0, 5.0, 7.0])) == 0.5
    assert trace_drift.drift(np.zeros(2), np.array([0.0, 1e-300])) == float("inf")
    assert trace_drift.drift(np.full(2, np.nan), np.ones(2)) == 0.0


def test_the_config_set_is_the_golden_tests_set():
    specs = trace_drift.golden_configs(ROOT)
    names = [spec["name"] for spec in specs]
    assert len(names) == len(set(names)) == 56
    assert names[-2:] == ["noise1/nine-hypothesis/ensemble", "base/divergent/rls"]
    assert specs[-1]["fields"] == {"steps": 1400, "controller": "rls", "u_max": 1e-12}


def test_the_report_names_fail_step_moves_and_shape_changes():
    specs = [{"name": "a"}, {"name": "b"}]
    old = {f"{c}|{n}": np.ones(3) for c in "ab" for n in trace_drift.ARRAYS}
    old |= {"a|fail_step": np.array(-1), "b|fail_step": np.array(7)}
    new = dict(old, **{"a|fail_step": np.array(5), "b|w_hat": np.ones(4), "b|y": np.array([1.0, 1.0, 4.0])})
    lines = trace_drift.report(specs, old, new)
    assert lines[0] == "a  y 0  u 0  posteriors 0  w_hat 0"
    assert lines[1] == "b  y 3  u 0  posteriors 0  w_hat shape (3,) -> (4,)"
    assert lines[2:] == ["a: fail step none -> 5", "2 of 2 configs moved; largest drift 3 (b y)"]
