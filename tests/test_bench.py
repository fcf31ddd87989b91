"""Tests of scripts/bench.py: pairs of the checkout against itself, and its helpers."""

import importlib.util
import json
import subprocess
import sys

from conftest import INPUTS

ROOT = INPUTS.parent
SCRIPT = ROOT / "scripts" / "bench.py"
END_TO_END = {"setup_s", "wall_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}


def test_one_pair_of_one_workload(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--pr", "0", "--pairs", "1",
         "--seconds", "0.05", "--workload", "cohom-graded"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
    assert (record["pr"], record["pairs"], record["seconds"]) == (0, 1, 0.05)
    assert record["first_seed"] == 1
    assert list(record["workloads"]) == ["cohom-graded"]
    summary = record["workloads"]["cohom-graded"]
    (pair,) = summary["pairs"]
    assert pair["seed"] == 1 and pair["order"] == ["base", "change"]
    for side in ("base", "change"):
        assert set(pair[side]["metrics"]) == END_TO_END
        assert pair[side]["correct"] and pair[side]["failed"] == 0
        # with one pair the median is that pair's reading
        assert summary["median"][side] == pair[side]["metrics"]
    assert summary["ratio"] == pair["ratio"]
    ratio = pair["change"]["metrics"]["wall_s"] / pair["base"]["metrics"]["wall_s"]
    assert summary["ratio"]["wall_s"] == ratio
    assert set(summary["change_lower_in"]) == END_TO_END
    assert all(count in (0, 1) for count in summary["change_lower_in"].values())
    # ops_per_s is better higher, every other metric lower
    metrics = {side: pair[side]["metrics"] for side in ("base", "change")}
    assert summary["change_better_in"] == {
        name: int(metrics["change"][name] > metrics["base"][name]
                  if name == "ops_per_s" else metrics["change"][name] < metrics["base"][name])
        for name in END_TO_END
    }
    assert summary["correct"] is True
    assert summary["failed"] == {"base": 0, "change": 0}
    assert result.stdout.splitlines()[-1] == "wrote BENCH_0.json"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_first_seed_numbers_the_pairs_from_it(monkeypatch):
    bench = load_bench()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        value = 1.0 if checkout == "change" else 2.0
        return {"metrics": dict.fromkeys(END_TO_END, value), "correct": True, "failed": 0}

    monkeypatch.setattr(bench, "run_once", run_once)
    checkouts = {"base": "base", "change": "change"}
    summary = bench.compare(checkouts, "cohom-graded", 2, 0.05, 101)
    # the order of the two sides still flips with the pair, not the seed
    assert calls == [("base", 101), ("change", 101), ("change", 102), ("base", 102)]
    assert [(pair["seed"], pair["order"]) for pair in summary["pairs"]] == [
        (101, ["base", "change"]), (102, ["change", "base"]),
    ]
    # change reads lower in every metric and pair, so better in all but ops_per_s
    assert summary["change_better_in"] == {
        name: 0 if name == "ops_per_s" else 2 for name in END_TO_END
    }


def test_better_in_reads_each_direction_from_the_benchmark():
    bench = load_bench()
    better = bench.directions()
    assert set(better) == END_TO_END
    assert better["ops_per_s"] == "higher" and better["wall_s"] == "lower"
    # more ops per second in both pairs; less wall time in the first, and
    # in the second a tie, which counts for neither side
    runs = [
        {"base": {"metrics": {"ops_per_s": 10, "wall_s": 2.0}},
         "change": {"metrics": {"ops_per_s": 12, "wall_s": 1.5}}},
        {"base": {"metrics": {"ops_per_s": 10, "wall_s": 2.0}},
         "change": {"metrics": {"ops_per_s": 11, "wall_s": 2.0}}},
    ]
    directions = {"ops_per_s": "higher", "wall_s": "lower"}
    assert bench.better_in(runs, directions) == {"ops_per_s": 2, "wall_s": 1}
