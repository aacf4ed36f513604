import _csv
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def perfbench_stdout(name: str, trace: int, value: float) -> str:
    """What perfbench/run.py prints: a metrics table, then its record and its result as JSON lines."""
    metric = "op_p50_ms" if trace == 0 else "estimator.iqf_step.calls"
    record = {"record": {"workload": name, "trace": trace, "yardstick_ms_median": 10.5}}
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {metric: {"value": value, "unit": "ms"}}}
    return f"{metric:<44} {value:>14.6g} ms\nerror_rate 0 share\n{json.dumps(record)}\n{json.dumps(result)}\n"


def test_assembles_the_document_from_the_last_two_lines_of_each_run():
    outputs = {
        name: {trace: perfbench_stdout(name, trace, 10.0 * i + trace) for trace in (0, 1)}
        for i, name in enumerate(bench_record.WORKLOADS)
    }
    tier1 = {"seconds": 30.5, "summary": "2 failed, 852 passed in 30.00s"}
    monte_carlo = {"total_s": 0.5, "tape_s": 0.2}
    document = bench_record.assemble({"git_sha": "abc"}, outputs, tier1, monte_carlo)
    assert list(document) == ["machine", "e2e", "perfbench", "tier1", "monte_carlo"]
    assert document["e2e"] == {"mc_base": {"op_p50_ms": 0.0}, "outlier_pairs": {"op_p50_ms": 10.0},
                               "cli_simulate": {"op_p50_ms": 20.0}}
    run = document["perfbench"]["outlier_pairs"]["trace1"]
    assert run["record"] == {"workload": "outlier_pairs", "trace": 1, "yardstick_ms_median": 10.5}
    assert run["result"]["metrics"] == {"estimator.iqf_step.calls": {"value": 11.0, "unit": "ms"}}
    assert (document["machine"], document["tier1"], document["monte_carlo"]) == ({"git_sha": "abc"}, tier1, monte_carlo)
    json.dumps(document)


def test_core_name_is_none_for_a_library_without_the_query():
    # not a numpy extension: a library's lookup also searches the libraries it links, OpenBLAS among them
    assert bench_record.openblas_core(_csv.__file__) is None


def test_an_existing_file_or_a_bad_argument_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCH_1.json").write_text("{}")
    assert bench_record.main(["1"]) == 2
    assert (tmp_path / "BENCH_1.json").read_text() == "{}"
    assert "BENCH_1.json already exists" in capsys.readouterr().err
    for argv in ([], ["x"], ["1", "2"]):
        assert bench_record.main(argv) == 2
        assert "usage: python3 tools/bench_record.py N" in capsys.readouterr().err
