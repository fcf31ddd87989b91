"""Smoke test of scripts/cohomology_survey.py, run as a user runs it."""

import subprocess
import sys

from conftest import INPUTS, src_env

ROOT = INPUTS.parent

# algebra, n, deg, dim Z, dim B, dim H, stabilized; the seconds column varies
SURVEY_ROWS = [
    "unit-current 0 2 1 0 1 yes",
    "unit-current 1 2 1 0 1 yes",
    "unit-current 2 2 2 2 0 yes",
    "zero-product 0 2 1 0 1 yes",
    "zero-product 1 2 3 0 3 yes",
    "zero-product 2 2 6 0 6 yes",
    "mat2-current 0 2 1 0 1 yes",
    "mat2-current 1 2 4 3 1 yes",
    "mat2-current 2 2 44 44 0 yes",
]


def test_survey_rows():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cohomology_survey.py"), "--max-n", "2", "--deg", "2"],
        capture_output=True,
        text=True,
        env=src_env(),
        cwd=str(ROOT),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    _header, _rule, *rows = result.stdout.splitlines()
    assert [" ".join(row.split()[:-1]) for row in rows] == SURVEY_ROWS
