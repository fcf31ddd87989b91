"""Smoke test of scripts/ab_inproc.py: the checkout against itself."""

import re
import subprocess
import sys

from conftest import INPUTS

ROOT = INPUTS.parent


def test_checkout_against_itself():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_inproc.py"), str(ROOT), str(ROOT),
         "--workload", "cohom-graded", "--reps", "1"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, *rows, total, wins = result.stdout.splitlines()
    assert header.split() == ["operation", "base", "ms", "change", "ms", "ratio"]
    assert [row.rsplit(None, 3)[0] for row in rows] == [
        "mat2 H^2 D=1", "mat2 H^2 D=0", "mat2 H^1 D=3",
    ]
    assert total.startswith("sum of medians")
    sums = [float(x) for x in total.split()[-3:-1]]
    assert all(value > 0 for value in sums)
    assert re.fullmatch(r"change faster in [01] of 1 reps", wins)
