"""Smoke test of scripts/ab_inproc.py: the checkout against itself."""

import importlib.util
import re
import subprocess
import sys
import textwrap

import pytest

from conftest import INPUTS

ROOT = INPUTS.parent
SCRIPT = ROOT / "scripts" / "ab_inproc.py"


def check_table(stdout: str, reps: int) -> None:
    header, *rows, total, kind_header, k1, k2, k3, wins = stdout.splitlines()
    assert header.split() == ["operation", "base", "ms", "change", "ms", "ratio"]
    assert [row.rsplit(None, 3)[0] for row in rows] == [
        "mat2 H^2 D=1", "mat2 H^2 D=0", "mat2 H^1 D=3",
    ]
    assert total.startswith("sum of medians")
    sums = [float(x) for x in total.split()[-3:-1]]
    assert all(value > 0 for value in sums)
    # each operation is its own kind, so a kind's ratio is that of its
    # minimum times, which over one rep are its median times
    assert kind_header.split() == ["kind", "ratio", "of", "summed", "minima"]
    kinds = [k.split() for k in (k1, k2, k3)]
    assert [k[:-1] for k in kinds] == [row.split()[:-3] for row in rows]
    assert all(float(k[-1]) > 0 for k in kinds)
    if reps == 1:
        assert [k[-1] for k in kinds] == [row.split()[-1] for row in rows]
    assert re.fullmatch(rf"change faster in \d+ of {reps} reps", wins)
    assert int(wins.split()[3]) <= reps


def test_checkout_against_itself():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT),
         "--workload", "cohom-graded", "--reps", "1"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    check_table(result.stdout, 1)


def builds_and_table(*flags: str) -> tuple[int, str]:
    """Run the script's ``main`` over two reps in a child interpreter with
    ``build_ops`` wrapped to count its calls: (number of builds, the
    printed table).  ``flags`` choose the operations."""
    code = textwrap.dedent(f"""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("ab_inproc", {str(SCRIPT)!r})
        ab = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ab)
        builds = []
        build = ab.build_ops
        ab.build_ops = lambda *args: builds.append(args[2]) or build(*args)
        status = ab.main(sys.argv[1:])
        print(len(builds))
        sys.exit(status)
    """)
    result = subprocess.run(
        [sys.executable, "-c", code, str(ROOT), str(ROOT), "--reps", "2", *flags],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    table, count = result.stdout.rstrip("\n").rsplit("\n", 1)
    return int(count), table


def test_fresh_rebuilds_every_operation_before_each_rep():
    # one build per package for the checking pass, then with --fresh one
    # more per package before each of the two reps
    count, table = builds_and_table("--workload", "cohom-graded", "--fresh")
    assert count == 2 + 2 * 2
    check_table(table, 2)
    count, table = builds_and_table("--workload", "cohom-graded")
    assert count == 2
    check_table(table, 2)


def test_one_job_outside_the_workloads_is_built_before_each_rep():
    # --job FILE:n:D builds its one operation from the file, without
    # --fresh, before each rep as well as for the checking pass
    count, table = builds_and_table("--job", "inputs/cur1.alg:2:1")
    assert count == 2 + 2 * 2
    header, row, total, kind_header, kind, wins = table.splitlines()
    assert header.split() == ["operation", "base", "ms", "change", "ms", "ratio"]
    assert row.rsplit(None, 3)[0] == "cur1 H^2 D=1"
    assert total.startswith("sum of medians")
    assert kind.split()[:-1] == ["cur1", "H^2", "D=1"]
    assert re.fullmatch(r"change faster in \d+ of 2 reps", wins)


def test_repeated_jobs_are_timed_together_one_row_each():
    # --job twice: one build per package and rep makes both operations,
    # timed in the order given, and the table has a row for each
    count, table = builds_and_table("--job", "inputs/cur1.alg:2:1", "--job", "inputs/cur1.alg:1:0")
    assert count == 2 + 2 * 2
    header, *rows, total, kind_header, kind1, kind2, wins = table.splitlines()
    assert [row.rsplit(None, 3)[0] for row in rows] == ["cur1 H^2 D=1", "cur1 H^1 D=0"]
    assert total.startswith("sum of medians")
    assert [kind1.split()[:-1], kind2.split()[:-1]] == [["cur1", "H^2", "D=1"], ["cur1", "H^1", "D=0"]]
    assert re.fullmatch(r"change faster in \d+ of 2 reps", wins)


def test_a_job_is_refused_unless_it_reads_file_n_d():
    for job, extra in [("inputs/cur1.alg:2", ()), ("inputs/cur1.alg:two:1", ()),
                       ("inputs/none.alg:2:1", ()), ("inputs/cur1.alg:2:1", ("--seed", "3")),
                       ("inputs/cur1.alg:2:1", ("--job", "inputs/cur1.alg:2"))]:
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--reps", "1", "--job", job, *extra],
            capture_output=True,
            text=True,
            cwd=str(ROOT),
            timeout=120,
        )
        assert result.returncode == 2 and "error:" in result.stderr, job


def test_a_job_checks_that_the_two_checkouts_agree():
    # the job has no known answer: the untimed pass compares the answers
    # of the two packages and stops at the first disagreement
    spec = importlib.util.spec_from_file_location("ab_inproc", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    workloads = ab.load_workloads()
    answers = iter([(1, 0, 1, True, 2), (1, 1, 0, True, 2)])
    op = workloads.Operation("job", lambda: next(answers), None)
    ab.build_ops = lambda *args: [op]
    with pytest.raises(SystemExit) as stopped:
        ab.timings(workloads, [None, None], "job", 11, 1, True)
    assert stopped.value.code == 1


def test_kind_ratios_divide_the_summed_times_of_each_kind():
    spec = importlib.util.spec_from_file_location("ab_inproc", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    labels = ["deform mat2 yes #0", "abelian cur1 no #1", "deform mat2 yes #2",
              "deform mat2 yes #3", "mat2 H^2 D=1"]
    # deform mat2 yes sums 1 + 1 + 4 against 2 + 1 + 3
    assert ab.kind_ratios(labels, [1, 2, 1, 4, 2], [2, 1, 1, 3, 3]) == {
        "deform mat2 yes": 1, "abelian cur1 no": 0.5, "mat2 H^2 D=1": 1.5,
    }
    # one operation twice as slow moves its kind by its share of the time,
    # where the median of the per-operation ratios 1, 1 and 2 reads 1
    assert ab.kind_ratios(labels, [1, 2, 1, 4, 2], [1, 2, 1, 8, 2])["deform mat2 yes"] == 10 / 6


def test_two_seeds_print_one_sum_per_seed():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT),
         "--workload", "cohom-graded", "--reps", "1", "--seed", "1", "--seed", "2"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, *seeds, last = result.stdout.splitlines()
    assert header.split() == ["sum", "of", "medians", "base", "ms", "change", "ms", "ratio"]
    assert [line.split()[:2] for line in seeds] == [["seed", "1"], ["seed", "2"]]
    for line in seeds:
        base, change, ratio = (float(x) for x in line.split()[2:])
        assert base > 0 and change > 0 and abs(ratio - change / base) <= 0.002
    assert re.fullmatch(r"change summed lower in [012] of 2 seeds", last)
