import json
import sys
from pathlib import Path

import pytest

# the tool imports bench_record from its own directory, as a script run from there would
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_ab  # noqa: E402

END_TO_END = [
    {"name": "episodes_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
]


def perfbench_stdout(rate: float, p50: float, failed: int = 0) -> str:
    """What perfbench/run.py prints untraced: a metrics table, then its record and its result as JSON lines."""
    metrics = {"episodes_per_s": {"value": rate, "unit": "1/s"}, "op_p50_ms": {"value": p50, "unit": "ms"}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}
    record = {"record": {"workload": "outlier_pairs", "trace": 0}}
    return f"episodes_per_s {rate}\nop_p50_ms {p50}\nerror_rate 0 share\n{json.dumps(record)}\n{json.dumps(result)}\n"


def runs(rates, p50s, failed=0):
    return [bench_ab.perfbench_run(perfbench_stdout(r, p, failed)) for r, p in zip(rates, p50s)]


def test_old_runs_first_in_odd_pairs_and_new_in_even_pairs():
    assert [bench_ab.pair_order(pair) for pair in range(1, 5)] == [("old", "new"), ("new", "old")] * 2


def test_quartiles_are_numpys_linear_ones():
    assert bench_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


OLD = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "better, new, verdict",
    [
        # 10 of 10 pairs won by far more than the IQR (0.35)
        ("higher", [v + 5.0 for v in OLD], "gain"),
        # 9 of 10 still a gain; 8 of 10 is not, and 3% is inside the 20% bound
        ("higher", [v + 5.0 for v in OLD[:9]] + [OLD[9] - 1.0], "gain"),
        ("higher", [v + 3.0 for v in OLD[:8]] + [v - 1.0 for v in OLD[8:]], "same"),
        # all pairs won, but the medians differ by less than the IQR
        ("higher", [v + 0.1 for v in OLD], "same"),
        # 25% lower throughput is past the 20% bound; for a lower-is-better metric the same values are a gain
        ("higher", [v * 0.75 for v in OLD], "worse"),
        ("lower", [v * 0.75 for v in OLD], "gain"),
        ("lower", [v * 1.25 for v in OLD], "worse"),
    ],
)
def test_verdicts_of_a_narrow_old_spread(better, new, verdict):
    assert bench_ab.verdict(OLD, new, better, 0.2) == verdict


def test_a_spread_wider_than_the_bound_is_unresolved_unless_new_beats_every_old_run():
    old = [70.0, 75.0, 100.0, 125.0, 126.0]  # IQR 50 over median 100 passes the bound 0.2
    assert bench_ab.verdict(old, [98.0, 99.0, 101.0, 102.0, 100.0], "higher", 0.2) == "unresolved"
    # every NEW run beats every OLD run, in 5 of 5 pairs, but by less than the IQR in the median
    assert bench_ab.verdict(old, [127.0] * 5, "higher", 0.2) == "same"
    # worse by more than the bound comes before unresolved
    assert bench_ab.verdict(old, [70.0, 75.0, 75.0, 75.0, 80.0], "higher", 0.2) == "worse"


def test_ties_count_for_neither_side():
    assert bench_ab.wins([1.0, 2.0, 3.0], [1.0, 2.5, 2.0], "higher") == 1
    assert bench_ab.wins([1.0, 2.0, 3.0], [1.0, 2.5, 2.0], "lower") == 1


def test_compares_each_metric_from_canned_result_lines():
    old = runs([10.0, 11.0, 12.0, 13.0], [4.0, 4.0, 4.0, 4.0])
    new = runs([12.0, 12.0, 14.0, 14.0], [4.0, 4.0, 4.0, 5.0], failed=1)
    rate, p50 = bench_ab.compare(old, new, END_TO_END)
    assert rate == {
        "metric": "episodes_per_s", "old_q1": 10.75, "old_median": 11.5, "old_q3": 12.25, "new_median": 13.0,
        "change": 13.0 / 11.5 - 1.0, "wins": 4, "pairs": 4, "verdict": "same",
    }
    assert (p50["new_median"], p50["wins"], p50["verdict"]) == (4.0, 0, "same")
    text = bench_ab.report("outlier_pairs", old, new, END_TO_END)
    assert text.splitlines()[0] == "outlier_pairs: 4 pairs; failed operations OLD 0/40, NEW 4/40"
    assert [line.split()[0] for line in text.splitlines()[2:]] == ["episodes_per_s", "op_p50_ms"]
    assert text.splitlines()[2].split()[-3:] == ["+13.04%", "4/4", "same"]
