"""Smoke test of scripts/bench.py: one pair of the checkout against itself."""

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
    assert summary["correct"] is True
    assert summary["failed"] == {"base": 0, "change": 0}
    assert result.stdout.splitlines()[-1] == "wrote BENCH_0.json"
