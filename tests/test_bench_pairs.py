"""Tests of scripts/bench_pairs.py: its summary arithmetic on fixed numbers,
and its reading of a run's last line from a stand-in perfbench script."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# The parent's large-n wall_s values in BENCH_8.json, whose recorded
# quartiles are q1 2.138, median 2.1714, q3 2.1975.
BENCH_8_WALL_S = [2.1631, 2.1881, 2.0246, 1.9657, 2.2006, 2.2285, 2.1797, 2.1307, 2.1601, 2.2388]


def test_quartiles_reproduce_the_bench_8_summary():
    assert bench_pairs.quartiles(BENCH_8_WALL_S) == {"q1": 2.138, "median": 2.1714, "q3": 2.1975}


def test_quartiles_interpolate_inclusively():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([4.0, 1.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}


def test_summary_and_pairs_won():
    parent = [{"wall_s": 2.0, "rows": 10}, {"wall_s": 3.0, "rows": 10}, {"wall_s": 4.0, "rows": 12}]
    change = [{"wall_s": 1.5, "rows": 10}, {"wall_s": 3.5, "rows": 9}, {"wall_s": 4.0, "rows": 13}]
    assert bench_pairs.summarise(parent, ["wall_s"]) == {
        "wall_s": {"q1": 2.5, "median": 3.0, "q3": 3.5}
    }
    # Ties (the third wall_s pair, the first rows pair) count for neither side.
    wins = bench_pairs.better_in_pairs(parent, change, {"wall_s": "lower", "rows": "higher"})
    assert wins == {"wall_s": 1, "rows": 1}


def fake_checkout(tmp_path, last_line):
    (tmp_path / "perfbench").mkdir()
    script = f"print('progress')\nprint({last_line!r})\n"
    (tmp_path / "perfbench" / "run.py").write_text(script, encoding="utf-8")
    return tmp_path


def test_run_once_reads_the_result_line(tmp_path):
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"wall_s": {"value": 1.23456, "unit": "s"}}}
    row = bench_pairs.run_once(fake_checkout(tmp_path, json.dumps(result)), "large-n", 3, 2)
    assert row == {"pair": 2, "correct": True, "attempted": 4, "failed": 0, "wall_s": 1.2346}


@pytest.mark.parametrize("last_line", ["absent: geo.matrix_s", '{"metrics": NaN}', "[1, 2]"])
def test_run_once_stops_on_a_line_that_is_not_a_result(tmp_path, last_line):
    with pytest.raises(SystemExit, match="not a result"):
        bench_pairs.run_once(fake_checkout(tmp_path, last_line), "large-n", 3, 1)


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1), (None, 0), (True, None)])
def test_run_once_stops_on_an_invalid_run(tmp_path, correct, failed):
    result = {"correct": correct, "attempted": 4, "failed": failed,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    with pytest.raises(SystemExit, match="invalid run"):
        bench_pairs.run_once(fake_checkout(tmp_path, json.dumps(result)), "large-n", 3, 1)


def test_an_invalid_run_writes_no_output(tmp_path):
    result = {"correct": False, "attempted": 4, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        fake_checkout(checkout, json.dumps(result))
    (change / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}), encoding="utf-8"
    )
    output = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="invalid run"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                          "large-n", "--pairs", "2", "--seed", "3", "-o", str(output)])
    assert not output.exists()
