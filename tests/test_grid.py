"""Known answers: every cohomology report on the committed-input grid.

The grid takes every committed input of ``conftest.committed_modules``
but the non-associative bad_*.alg, which cohomology refuses before it
computes, at n 0-3, D 0-2, margin 1-2 and max_rounds 1, 2 and 4, leaving
out n = 3 with D >= 1 on an algebra of rank above 2.  grid_answers.json
holds each job's record, one job per line with the labels sorted.  A
change that moves an answer on purpose regenerates it with

    PYTHONPATH=src python tests/test_grid.py --write

so the rows it moves show in its diff.
"""

import hashlib
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from conftest import committed_modules
from pseudo.cohomology import TruncationWindow, cohomology_dimensions

ANSWERS = Path(__file__).resolve().parent / "grid_answers.json"
# n, D, margin and max_rounds of every grid job
GRID = list(product(range(4), range(3), (1, 2), (1, 2, 4)))


def grid_jobs():
    """(label, module, n, window, max_rounds) of every grid job."""
    for name, module in committed_modules():
        if name.startswith("bad_"):
            continue
        for n, bound, margin, max_rounds in GRID:
            if n == 3 and bound >= 1 and module.algebra.rank > 2:
                continue
            label = f"{name} H^{n} D={bound} margin={margin} max_rounds={max_rounds}"
            yield label, module, n, TruncationWindow(bound, margin), max_rounds


def canonical(basis) -> list:
    """A basis as plain data: its ambient dimension, then its rows by
    sorted pivot, each row's entries by sorted column, each coefficient
    an int or "p/q"."""

    def coeff(c):
        c = Fraction(c)
        return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    return [basis.ambient_dimension, [
        [pivot, [[col, coeff(c)] for col, c in sorted(row.items())]]
        for pivot, row in sorted(basis.rows.items())
    ]]


def record(module, n: int, window: TruncationWindow, max_rounds: int) -> list:
    """[dim Z, dim B, stabilized, rounds, proof, sha256 of the Z and B
    rows] of one job, or [exception type, message] when it raises."""
    try:
        rep = cohomology_dimensions(module.algebra, module, n, window, max_rounds)
    except Exception as exc:  # an exception is part of the answer
        return [type(exc).__name__, str(exc)]
    rows = json.dumps([canonical(rep.cocycles), canonical(rep.coboundaries)], separators=(",", ":"))
    return [rep.dim_cocycles, rep.dim_coboundaries, rep.stabilized, rep.rounds, rep.proof,
            hashlib.sha256(rows.encode("utf-8")).hexdigest()]


def records() -> dict:
    """Job label -> record, for every grid job."""
    return {label: record(*job) for label, *job in grid_jobs()}


def test_every_grid_job_reads_its_known_answer():
    expected = json.loads(ANSWERS.read_text(encoding="utf-8"))
    got = records()
    differing = sorted(
        label for label in expected.keys() | got.keys() if expected.get(label) != got.get(label)
    )
    assert not differing, "jobs that differ from grid_answers.json:\n" + "\n".join(differing)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_grid.py --write")
    lines = [f"{json.dumps(label)}: {json.dumps(rec)}" for label, rec in sorted(records().items())]
    ANSWERS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
