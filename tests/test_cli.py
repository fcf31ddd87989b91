import contextlib
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from pseudo.cli import REPORT_SCHEMA, main
from pseudo.polyring import VariableMismatchError

from conftest import INPUTS, negate_head_slot, src_env


def run_cli(*args, env_extra=None):
    env = src_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pseudo", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(INPUTS.parent),
        timeout=120,
    )


def path(name: str) -> str:
    return str(INPUTS / name)


CLI_EXPECTED = json.loads(
    (INPUTS.parent / "perfbench" / "cli_expected.json").read_text()
)["commands"]


def test_check_passes():
    result = run_cli("check", path("cur1.alg"))
    assert result.returncode == 0
    assert "associativity: PASS" in result.stdout


def test_check_counterexample_exit_2():
    result = run_cli("check", path("bad_del.alg"))
    assert result.returncode == 2
    assert "associativity: FAIL" in result.stdout
    assert "(e, e, e)" in result.stdout
    assert "-mu*del - 2*lam*del - del^2" in result.stdout


def test_check_module():
    result = run_cli("check", path("cur1.alg"), "--module", path("uboth.mod"))
    assert result.returncode == 0
    assert "module_axioms: PASS" in result.stdout


def test_missing_file_exit_1():
    result = run_cli("check", "no_such_file.alg")
    assert result.returncode == 1
    assert result.stdout == ""


def test_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("kind: algebra\nproduct e e -> 1 * e\n")
    result = run_cli("check", str(bad))
    assert result.returncode == 1
    assert "line 2" in result.stderr


def test_usage_error_exit_1():
    assert run_cli("cohomology").returncode == 1
    assert run_cli("nonsense", path("cur1.alg")).returncode == 1
    assert run_cli("cohomology", path("cur1.alg"), "--n", "-3").returncode == 1


def test_cohomology_dimensions():
    result = run_cli("cohomology", path("cur1.alg"), "--n", "1", "--deg", "3")
    assert result.returncode == 0
    assert "dim_cocycles_slice: 1" in result.stdout
    assert "dim_coboundaries_slice: 0" in result.stdout
    assert "dim_cohomology_slice: 1" in result.stdout
    assert "stabilized=yes" in result.stdout


def test_cohomology_axiom_precheck_exit_2():
    result = run_cli("cohomology", path("bad_lam.alg"), "--n", "1", "--deg", "2")
    assert result.returncode == 2
    assert "precheck" in result.stdout


def test_derivations_basis_text():
    result = run_cli("derivations", path("cur1.alg"), "--deg", "3")
    assert result.returncode == 0
    assert "dim_derivations_slice: 1" in result.stdout
    assert "e -> del * e" in result.stdout
    assert "inner_derivation_basis: (none)" in result.stdout


def test_derivations_with_inner_derivation_above_the_slice():
    # a lam a = lam c: the inner derivation a -> del * c has degree 1
    low = run_cli("derivations", path("lam_c.alg"), "--deg", "0")
    assert low.returncode == 0
    assert "  dim_derivations_slice: 2\n  dim_inner_derivations_slice: 0\n" in low.stdout
    high = run_cli("derivations", path("lam_c.alg"), "--deg", "1")
    assert high.returncode == 0
    assert "  dim_derivations_slice: 4\n  dim_inner_derivations_slice: 1\n" in high.stdout
    assert "  inner_derivation_basis:\n    - a -> del * c\n" in high.stdout


def test_deform_verdicts():
    passing = run_cli("deform", path("cur1.alg"), "--cocycle", path("f_const.coc"))
    assert passing.returncode == 0
    assert "first_order_associative: PASS" in passing.stdout
    failing = run_cli("deform", path("cur1.alg"), "--cocycle", path("f_lam.coc"))
    assert failing.returncode == 2
    assert "(e, e, e)[e]: lam" in failing.stdout


def test_extend_verdicts():
    passing = run_cli("extend", path("cur1.alg"), "--cocycle", path("gamma_lam.coc"))
    assert passing.returncode == 0
    assert "left_module_law: PASS" in passing.stdout
    failing = run_cli("extend", path("cur1.alg"), "--cocycle", path("gamma_const.coc"))
    assert failing.returncode == 2
    assert "(e, e, e)[e]: 1" in failing.stdout


def test_extend_with_explicit_modules():
    result = run_cli(
        "extend", path("cur1.alg"),
        "--module", path("uboth.mod"), "--module", path("uboth.mod"),
        "--cocycle", path("gamma_zero_u.coc"),
    )
    assert result.returncode == 0


def test_classical_dimensions():
    result = run_cli("classical", path("mat2.fda"), "--n", "1")
    assert result.returncode == 0
    assert "dim_cohomology: 0" in result.stdout
    dual = run_cli("classical", path("dual.fda"), "--n", "2")
    assert "dim_cohomology: 1" in dual.stdout


def test_reports_are_byte_identical():
    for args in (
        ("cohomology", path("cur1.alg"), "--n", "1", "--deg", "2", "--json"),
        ("cohomology", path("cur1.alg"), "--n", "1", "--deg", "2"),
        ("derivations", path("mat2.alg"), "--deg", "1"),
        ("check", path("mat2.alg")),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


@pytest.mark.parametrize(
    "args",
    [
        ("check", "cur1.alg"),
        ("check", "bad_del.alg"),
        ("cohomology", "cur1.alg", "--n", "1", "--deg", "2"),
        ("derivations", "cur1.alg", "--deg", "2"),
        ("deform", "cur1.alg", "--cocycle", "f_lam.coc"),
        ("extend", "cur1.alg", "--cocycle", "gamma_lam.coc"),
        ("classical", "mat2.fda", "--n", "1"),
    ],
)
def test_json_reports_validate(args):
    fixed = [args[0]] + [
        path(a) if a.endswith((".alg", ".mod", ".coc", ".fda")) else a
        for a in args[1:]
    ]
    result = run_cli(*fixed, "--json")
    report = json.loads(result.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["command"] == args[0]
    assert report["version"]
    for info in report["inputs"].values():
        assert len(info["sha256"]) == 64


def test_timing_goes_to_stderr_only():
    result = run_cli("check", path("cur1.alg"))
    assert "elapsed" in result.stderr
    assert "elapsed" not in result.stdout


def test_max_margin_env():
    bad = run_cli(
        "cohomology", path("cur1.alg"), "--n", "1", "--deg", "2",
        env_extra={"PSEUDO_MAX_MARGIN": "0"},
    )
    assert bad.returncode == 1
    good = run_cli(
        "cohomology", path("cur1.alg"), "--n", "1", "--deg", "2",
        env_extra={"PSEUDO_MAX_MARGIN": "2"},
    )
    assert good.returncode == 0


def test_unstabilized_cohomology_report(monkeypatch, capsys):
    # PSEUDO_MAX_MARGIN=1 allows one widening round, and its two rounds disagree
    monkeypatch.chdir(INPUTS.parent)
    monkeypatch.setenv("PSEUDO_MAX_MARGIN", "1")
    argv = ["cohomology", "inputs/plateau.alg", "--n", "3", "--deg", "1", "--margin", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:10] == [
        "truncation: deg=1 margin=2 stabilized=no",
        "results:",
        "  degree: 3",
        "  dim_cocycles_slice: 3",
        "  dim_coboundaries_slice: 3",
        "  dim_cohomology_slice: 0",
        "  stabilization_rounds: 2",
    ]
    assert main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["truncation"] == {"deg": 1, "margin": 2, "stabilized": False}
    assert report["results"] == {
        "degree": 3,
        "dim_cocycles_slice": 3,
        "dim_coboundaries_slice": 3,
        "dim_cohomology_slice": 0,
        "stabilization_rounds": 2,
    }


def test_console_script_entry_point():
    from pseudo import cli

    code = cli.main(["check", path("cur1.alg")])
    assert code == 0


RIGHT_LAW_MODULE = """kind: module
generators: u
actions: left right
right u e -> -1 * u
"""

COMPAT_LAW_MODULE = """kind: module
generators: u v
actions: left right
left e v -> 1 * v
right v e -> 1 * u
right v e -> 1 * v
"""


@pytest.mark.parametrize(
    "text, law, triple, residual",
    [
        (RIGHT_LAW_MODULE, "right", "(u, e, e)", "[u]: -2"),
        (COMPAT_LAW_MODULE, "compat", "(e, v, e)", "[u]: -1"),
    ],
    ids=["right", "compat"],
)
def test_check_module_law_failure_report(tmp_path, text, law, triple, residual):
    mod = tmp_path / "broken.mod"
    mod.write_text(text)
    result = run_cli("check", path("cur1.alg"), "--module", str(mod))
    assert result.returncode == 2
    lines = result.stdout.splitlines()
    assert "  module_axioms: FAIL" in lines
    assert f"  module_counterexample: {law} {triple}" in lines
    assert f"  - {law} {triple}{residual}" in lines


@pytest.mark.parametrize(
    "entry", CLI_EXPECTED, ids=[" ".join(c["argv"]) for c in CLI_EXPECTED]
)
def test_pinned_report_bytes(entry):
    result = subprocess.run(
        [sys.executable, "-m", "pseudo", *entry["argv"]],
        capture_output=True,
        env=src_env(),
        cwd=str(INPUTS.parent),
        timeout=120,
    )
    assert result.returncode == entry["exit"]
    assert hashlib.sha256(result.stdout).hexdigest() == entry["sha256"]


# stdout sha256 of `pseudo derivations` cases whose bases are not all
# trivial: an inner derivation above degree 0, a widening plateau, a
# two-sided module that is not the regular one, and a degree-0 slice
DERIVATIONS_EXPECTED = [
    (("inputs/lam_c.alg", "--deg", "3"),
     "7ab19e4c7b315ef219221e164815db3b2097642d80cf750d60392d67bf511dfb"),
    (("inputs/lam_c.alg", "--deg", "3", "--json"),
     "48edaabcfb3b5c31c3aa57efb5d1e768d372b5b9f4488358e3719e4d822e87ce"),
    (("inputs/plateau.alg", "--deg", "2"),
     "7f697eb6f7288a240a3b0fc3c961e64fec715aa450b424ec378452cd9e942f78"),
    (("inputs/plateau.alg", "--deg", "2", "--json"),
     "df2a44766c19c720663766280cc21144a04ac6961303275d9fb178c4e819e55b"),
    (("inputs/cur1.alg", "--module", "inputs/uboth.mod", "--deg", "3"),
     "02df8609f838ca47a838043753e0d2412e48074d5b9a1d0ff53893207d972d09"),
    (("inputs/cur1.alg", "--module", "inputs/uboth.mod", "--deg", "3", "--json"),
     "03c9d9ec807edbcd1cb6d5a39ff48c58df916084424808d499d2710455dd32e0"),
    (("inputs/mat2.alg", "--deg", "0"),
     "5f624e08e2752bbb924c39786aea731b75c69e483b44ee742e995d6475cb722c"),
    (("inputs/mat2.alg", "--deg", "0", "--json"),
     "af9ed892f51e5c2efc2be0d7f5d58f25ca05535ad33500778c6fdcc196d40f2f"),
]


@pytest.mark.parametrize(
    "argv, digest", DERIVATIONS_EXPECTED, ids=[" ".join(a) for a, _ in DERIVATIONS_EXPECTED]
)
def test_derivations_report_bytes(argv, digest):
    result = subprocess.run(
        [sys.executable, "-m", "pseudo", "derivations", *argv],
        capture_output=True,
        env=src_env(),
        cwd=str(INPUTS.parent),
        timeout=120,
    )
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == digest


# sha256 over "<exit code>\n<stdout>" of the eight `pseudo classical` runs
# on each inputs/<name>.fda: --n 0..3, each in text and then --json
CLASSICAL_EXPECTED = {
    "dual": "c79b054798f251e9639ff88d6170a98be79cee51af49a87d0f90ee6b98241696",
    "ground": "592a3dbdbeaa8882e43fdba1c15c591d5fe367098c9a5e240fbe3fd823027770",
    "mat2": "80fafd0ef54870c045355c0ee78bfe2c92109d860a8fd9365dd86383c7f4eb2d",
    "split": "28c230fc01d8fbbf6d89ea13d7eb0965dd6f046cac836145adb0ea65bbc65dee",
    "upper": "6a74fd29105f7d64109ec2b63b29d65c820d9be9d7a9e7ba6c75dae1f304e678",
    "zero3": "821b29208e9b2e240d2ee64449dfa6b0c8aa09f7ee8782ad35fa5d77bc324f0d",
}


def report_digest(capsys, argvs) -> str:
    """Run `pseudo` in-process on each argv; digest codes and stdout."""
    digest = hashlib.sha256()
    for argv in argvs:
        code = main(list(argv))
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CLASSICAL_EXPECTED))
def test_classical_report_bytes(monkeypatch, capsys, name):
    monkeypatch.chdir(INPUTS.parent)
    argvs = [
        ("classical", f"inputs/{name}.fda", "--n", str(n), *flags)
        for n in range(4)
        for flags in ((), ("--json",))
    ]
    assert report_digest(capsys, argvs) == CLASSICAL_EXPECTED[name]


# sha256 over "<exit code>\n<stdout>" of each run below, in text and then
# --json, from a copy of inputs/ that also holds the broken modules: every
# way a command aborts on a broken axiom, and an extension whose sub and
# quotient modules differ
ABORT_EXPECTED = [
    (("derivations", "inputs/bad_lam.alg"),
     "ca6c3026a3f032b769fb530cdb7d81cca4c6aa7da02966065cfafb317a48f1cb"),
    (("deform", "inputs/bad_del.alg", "--cocycle", "inputs/f_lam.coc"),
     "d8e3029077f531d128d68502dfe6d0ed66aea85b07600bd7220eff9470744bec"),
    (("extend", "inputs/bad_lam.alg", "--cocycle", "inputs/gamma_lam.coc"),
     "90833cf9e687cdee57f9953ee1674123ff8e4e6b4082a8625f89319df8c89a64"),
    (("cohomology", "inputs/cur1.alg", "--module", "inputs/right_law.mod"),
     "b4e87a40ba07ef78cb4be0bf352fbe51636cde457fceecf87cab6c037a4dde80"),
    (("derivations", "inputs/cur1.alg", "--module", "inputs/right_law.mod"),
     "b365050ef4ca3d392d9e3b45c4fbb91e8bc15e39394cc709ef0c2ad175f010b6"),
    (("check", "inputs/cur1.alg", "--module", "inputs/compat_law.mod"),
     "0af43cbadded3ab6e4e8c9a09309206b473eb6840e9877d1cb68163273ab4c24"),
    (("extend", "inputs/cur1.alg", "--module", "inputs/uboth.mod",
      "--module", "inputs/uleft.mod", "--cocycle", "inputs/gamma_zero_u.coc"),
     "a4dc1c09f976291bcec2a493e85cb90d762990e576d96c15bc27a60123848a20"),
]


@pytest.mark.parametrize(
    "argv, digest", ABORT_EXPECTED, ids=[" ".join(a) for a, _ in ABORT_EXPECTED]
)
def test_abort_report_bytes(monkeypatch, capsys, tmp_path, argv, digest):
    copy = tmp_path / "inputs"
    shutil.copytree(INPUTS, copy)
    (copy / "right_law.mod").write_text(RIGHT_LAW_MODULE)
    (copy / "compat_law.mod").write_text(COMPAT_LAW_MODULE)
    monkeypatch.chdir(tmp_path)
    assert report_digest(capsys, [argv, (*argv, "--json")]) == digest


LONG = "1" * 4301
NESTED = "(" * 200 + "1" + ")" * 200
TOO_LONG = "integer literal of 4301 digits is too long"
SCRATCH_INPUTS = {
    "left_only.mod": "kind: module\ngenerators: u\nactions: left\nleft e u -> 1 * u\n",
    "right_only.mod": "kind: module\ngenerators: u\nactions: right\nright u e -> 1 * u\n",
    "broken_left.mod": (
        "kind: module\ngenerators: u\nactions: left right\nleft e u -> del * u\n"
    ),
    "crooked.fda": "kind: fd_algebra\ngenerators: a b\nproduct a a -> 1 * b\nproduct a b -> 1 * a\n",
    "degree1.coc": "# a degree-1 cochain\nkind: cochain\n\ndegree: 1\nvalue e -> 1 * e\n",
    # one digit past the interpreter's limit on digits converted to int,
    # and parentheses nested past the parser's cap
    "long_coeff.alg": f"kind: algebra\ngenerators: e\nproduct e e -> {LONG} * e\n",
    "long_power.mod": (
        f"kind: module\ngenerators: u\nleft e u -> lam^{LONG} * u\nright u e -> 1 * u\n"
    ),
    "long_denominator.coc": f"kind: cochain\ndegree: 2\nvalue e e -> 1/{LONG} * e\n",
    "long_degree.coc": f"kind: cochain\ndegree: {LONG}\nvalue e e -> 1 * e\n",
    "long_coeff.fda": f"kind: fd_algebra\ngenerators: one\nproduct one one -> {LONG} * one\n",
    "long_unit.fda": f"kind: fd_algebra\ngenerators: one\nunit: {LONG}\nproduct one one -> 1 * one\n",
    "nested.alg": f"kind: algebra\ngenerators: e\nproduct e e -> {NESTED} * e\n",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cohomology", "cur1.alg", "--module", "left_only.mod", "--n", "0"),
         "degree-0 differential needs both module actions"),
        (("cohomology", "cur1.alg", "--module", "left_only.mod", "--n", "2"),
         "the differential needs a right action"),
        (("derivations", "cur1.alg", "--module", "left_only.mod"),
         "the differential needs a right action"),
        (("extend", "cur1.alg", "--module", "right_only.mod",
          "--cocycle", "gamma_zero_u.coc"),
         "sub module needs a left action"),
        (("extend", "cur1.alg", "--module", "uboth.mod", "--module", "broken_left.mod",
          "--cocycle", "gamma_zero_u.coc"),
         "quotient module violates its own left law"),
        (("classical", "mat2.fda", "--n", "4"), "only degrees 0..3 are supported"),
        # a bad flag is reported before the input is read, even a counterexample
        (("classical", "crooked.fda", "--n", "7"), "only degrees 0..3 are supported"),
        (("PSEUDO_MAX_MARGIN=0", "cohomology", "bad_lam.alg"),
         "PSEUDO_MAX_MARGIN must be at least 1"),
        # the error names the degree header, not the first line
        (("deform", "cur1.alg", "--cocycle", "degree1.coc"),
         "line 4: expected a degree-2 cochain, found degree 1"),
        (("check", "long_coeff.alg"),
         f"line 3: bad polynomial '{LONG}': {TOO_LONG} (at offset 0)"),
        (("check", "cur1.alg", "--module", "long_power.mod"),
         f"line 3: bad polynomial 'lam^{LONG}': {TOO_LONG} (at offset 4)"),
        (("deform", "cur1.alg", "--cocycle", "long_denominator.coc"),
         f"line 3: bad polynomial '1/{LONG}': {TOO_LONG} (at offset 2)"),
        (("deform", "cur1.alg", "--cocycle", "long_degree.coc"),
         "line 2: degree of 4301 digits is too long"),
        (("classical", "long_coeff.fda", "--n", "1"),
         f"line 3: bad polynomial '{LONG}': {TOO_LONG} (at offset 0)"),
        (("classical", "long_unit.fda", "--n", "1"), "line 3: unit coordinates must be rationals"),
        (("check", "nested.alg"),
         f"line 3: bad polynomial '{NESTED}': parentheses nested deeper than 100 (at offset 100)"),
    ],
    ids=["cohomology-d0", "cohomology-d2", "derivations", "extend-sub",
         "extend-quotient", "classical-n4", "classical-n7-crooked", "max-margin-bad-lam",
         "deform-degree", "long-coefficient", "long-exponent", "long-denominator",
         "long-degree", "long-fda-coefficient", "long-unit", "nested-parentheses"],
)
def test_input_problems_exit_1(tmp_path, argv, message):
    for name, text in SCRATCH_INPUTS.items():
        (tmp_path / name).write_text(text)
    env = dict(a.split("=", 1) for a in argv if "=" in a)
    fixed = [
        str(tmp_path / a) if a in SCRATCH_INPUTS
        else path(a) if (INPUTS / a).is_file() else a
        for a in argv if "=" not in a
    ]
    result = run_cli(*fixed, env_extra=env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert f"error: {message}" in result.stderr
    assert "Traceback" not in result.stderr


def test_classical_non_associative_exit_2(tmp_path):
    crooked = tmp_path / "crooked.fda"
    crooked.write_text(SCRATCH_INPUTS["crooked.fda"])
    result = run_cli("classical", str(crooked), "--n", "1")
    assert result.returncode == 2
    assert "  precheck: structure constants not associative" in result.stdout.splitlines()


def test_classical_non_associative_report_bytes(monkeypatch, capsys, tmp_path):
    (tmp_path / "crooked.fda").write_text(SCRATCH_INPUTS["crooked.fda"])
    monkeypatch.chdir(tmp_path)
    argv = ("classical", "crooked.fda", "--n", "1")
    argvs = [argv, (*argv, "--json")]
    assert report_digest(capsys, argvs) == (
        "ebb6164aa31fb12cab681fe80ade795c1dfaacefe69c47892c5059f2946334c8"
    )


COHOMOLOGY_ARGV = ("cohomology", path("cur1.alg"), "--n", "1", "--deg", "1")
EXTEND_ARGV = ("extend", path("cur1.alg"), "--cocycle", path("gamma_lam.coc"))


# each command imports the library names it calls when it runs, so a
# patch on their home module reaches it
@pytest.mark.parametrize(
    "target, argv, error",
    [
        ("cohomology.cohomology_dimensions", COHOMOLOGY_ARGV,
         VariableMismatchError("variables differ")),
        ("cohomology.cohomology_dimensions", COHOMOLOGY_ARGV, KeyError("missing")),
        # only UnfitModuleError marks a datum's module as bad input
        ("constructions.ExtensionDatum", EXTEND_ARGV, ValueError("gamma index 7 out of range")),
    ],
    ids=["VariableMismatchError", "KeyError", "ExtensionDatum-ValueError"],
)
def test_internal_errors_exit_3(monkeypatch, capsys, target, argv, error):
    from pseudo import cli

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"pseudo.{target}", broken)
    code = cli.main(list(argv))
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        f"internal inconsistency in {argv[0]}: {type(error).__name__}: {error}"
        in captured.err
    )


def test_broken_differential_exits_3(monkeypatch, capsys):
    # a real run, not an injected error: with the head slot's images
    # negated (as in test_cohomology's d after d guard test), the guard in
    # cohomology_dimensions finds a row of B that d does not send to 0
    from pseudo import cli

    negate_head_slot(monkeypatch)
    monkeypatch.chdir(INPUTS.parent)
    assert cli.main(["cohomology", "inputs/cur1.alg", "--n", "1", "--deg", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d after d is not zero" in captured.err


def test_deform_checks_its_algebra_once(monkeypatch, capsys):
    # the precheck keeps its verdict on the algebra, where DeformationDatum
    # reads it again instead of checking the same object a second time
    from pseudo import cli, conformal

    calls = []
    original = conformal.check_associativity

    def counted(algebra):
        calls.append(algebra)
        return original(algebra)

    monkeypatch.setattr(conformal, "check_associativity", counted)
    monkeypatch.chdir(INPUTS.parent)
    assert cli.main(["deform", "inputs/cur1.alg", "--cocycle", "inputs/f_const.coc"]) == 0
    assert "first_order_associative: PASS" in capsys.readouterr().out
    assert len(calls) == 1


# a committed input as tokens: whitespace, an arrow, a word or number, or
# any other single character; a mutation inserts, replaces or deletes one,
# or puts a limit token into a polynomial
TOKEN = re.compile(r"\s+|->|\w+|\S")
INPUT_TEXTS = {path.name: path.read_text(encoding="utf-8") for path in sorted(INPUTS.iterdir())}
# two tokens past a parser limit: a numeral one digit past the
# interpreter's limit on digits converted to int, and a run of
# parentheses past the nesting cap.  Only a mutation that lands inside a
# polynomial reaches those limits, so besides joining the pool of every
# committed input's tokens they have their own edit, "limit", which puts
# one at the start of a statement line's polynomial text
LIMIT_TOKENS = (LONG, "(" * 200)
TOKEN_POOL = sorted(
    {token for text in INPUT_TEXTS.values() for token in TOKEN.findall(text)}
) + list(LIMIT_TOKENS)


def _inputs(suffix: str) -> list[str]:
    return [name for name in INPUT_TEXTS if name.endswith(suffix)]


def _polynomial_starts(tokens: list[str]) -> list[int]:
    """The places right after each arrow outside a comment: where the
    polynomial text of a statement line begins."""
    places, comment = [], False
    for i, token in enumerate(tokens):
        if "\n" in token:
            comment = False
        elif token == "#":
            comment = True
        elif token == "->" and not comment:
            places.append(i + 1)
    return places


def _mutated(data, name: str) -> str:
    tokens = TOKEN.findall(INPUT_TEXTS[name])
    for _ in range(data.draw(st.integers(0, 3), label=f"{name} mutations")):
        edit = data.draw(st.sampled_from(("insert", "replace", "delete", "limit")), label="edit")
        if edit == "limit":
            if places := _polynomial_starts(tokens):
                at = data.draw(st.sampled_from(places), label="polynomial")
                limit = data.draw(st.sampled_from(LIMIT_TOKENS), label="limit")
                tokens.insert(at, " " + limit)  # an arrow is a word of its own
            continue
        at = data.draw(st.integers(0, len(tokens)), label="at")
        token = data.draw(st.sampled_from(TOKEN_POOL), label="token")
        if edit == "insert" or not tokens:
            tokens.insert(at, token)
        elif edit == "replace":
            tokens[at % len(tokens)] = token
        else:
            del tokens[at % len(tokens)]
    return "".join(tokens)


@settings(max_examples=400)
@given(st.data())
def test_mutated_inputs_exit_0_1_or_2(tmp_path_factory, data):
    """Token-level mutations of the committed inputs, across the six
    subcommands: bad input exits 1, and nothing is reported as a bug."""
    command = data.draw(st.sampled_from(
        ("check", "cohomology", "derivations", "deform", "extend", "classical")
    ), label="command")
    names = [data.draw(st.sampled_from(_inputs(".fda" if command == "classical" else ".alg")),
                       label="algebra")]
    options = []
    if command in ("check", "cohomology", "derivations", "extend"):
        modules = data.draw(st.lists(st.sampled_from(_inputs(".mod")),
                                     max_size=2 if command == "extend" else 1), label="modules")
        names += modules
        options += [opt for name in modules for opt in ("--module", name)]
    if command in ("deform", "extend"):
        names.append(data.draw(st.sampled_from(_inputs(".coc")), label="cocycle"))
        options += ["--cocycle", names[-1]]
    if command in ("cohomology", "classical"):
        options += ["--n", str(data.draw(st.integers(-1, 3 if command == "classical" else 2)))]
    if command in ("cohomology", "derivations"):
        options += ["--deg", str(data.draw(st.integers(-1, 1)))]
    folder = tmp_path_factory.getbasetemp() / "mutated"  # one folder, rewritten per draw
    folder.mkdir(exist_ok=True)
    for name in dict.fromkeys(names):
        (folder / name).write_text(_mutated(data, name), encoding="utf-8")
    argv = [command, names[0], *options]
    argv = [str(folder / arg) if arg in INPUT_TEXTS else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "internal inconsistency" not in err.getvalue()
