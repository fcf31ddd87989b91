"""Command-line front end.

Subcommands: check, cohomology, derivations, deform, extend, classical.
``classical`` reads a finite-dimensional algebra A straight into its
current algebra (``formats.parse_fd_algebra``) and runs the same cochain
complex as ``cohomology`` on it at polynomial degree 0, where it is the
bar complex of A (see ``pseudo.classical``).  Reports go to
stdout and are byte-identical across runs for identical inputs and flags;
wall-clock timing goes to stderr so it never perturbs the report.  Exit
codes: 0 success, 1 bad input (usage, a file that does not parse or read,
or a module unfit for the command), 2 a mathematical counterexample (the
inputs fail the property under test), 3 any other error, which can only
be a bug.

The JSON report always carries the keys command, inputs, truncation,
results, residuals and version; truncation fields are null for commands
that do not truncate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .cfmodule import BimoduleStructure, check_module_axioms
from .cohomology import (
    DEFAULT_MAX_ROUNDS,
    Cochain,
    CochainIndex,
    TruncationWindow,
    cohomology_dimensions,
)
from .conformal import check_associativity
from .constructions import (
    DeformationDatum,
    ExtensionDatum,
    build_extension,
    deform,
)
from .formats import (
    DefinitionError,
    parse_algebra,
    parse_cochain,
    parse_fd_algebra,
    parse_gamma,
    parse_module,
)
from .polyring import PolyParseError, poly_to_str

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INTERNAL = 3

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "inputs", "truncation", "results", "residuals", "version"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": False,
                "required": ["path", "sha256"],
                "properties": {
                    "path": {"type": "string"},
                    "sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                },
            },
        },
        "truncation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["deg", "margin", "stabilized"],
            "properties": {
                "deg": {"type": ["integer", "null"]},
                "margin": {"type": ["integer", "null"]},
                "stabilized": {"type": ["boolean", "null"]},
            },
        },
        "results": {
            "type": "object",
            "additionalProperties": {
                "type": ["integer", "string", "boolean", "array", "null"],
                "items": {"type": "string"},
            },
        },
        "residuals": {"type": "array", "items": {"type": "string"}},
        "version": {"type": "string"},
    },
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pseudo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, module=False, modules=False, cocycle=False,
            n=None, deg=None, margin=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("algebra", help="definition file")
        if module:
            p.add_argument("--module", help="module definition file (default: regular)")
        if modules:
            p.add_argument(
                "--module",
                action="append",
                default=None,
                help="module file; give twice for sub then quotient (default: regular)",
            )
        if cocycle:
            p.add_argument("--cocycle", required=True, help="cochain definition file")
        if n is not None:
            p.add_argument("--n", type=int, default=n, help=f"degree (default {n})")
        if deg is not None:
            p.add_argument(
                "--deg", type=int, default=deg, help=f"truncation degree (default {deg})"
            )
        if margin:
            p.add_argument(
                "--margin", type=int, default=1, help="stabilization step (default 1)"
            )
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        return p

    add("check", "verify associativity and module axioms", module=True)
    add("cohomology", "truncated cohomology slice dimensions",
        module=True, n=1, deg=2, margin=True)
    add("derivations", "derivation and inner-derivation bases", module=True, deg=2)
    add("deform", "first-order deformation verdict", cocycle=True)
    add("extend", "module extension verdict from gluing data",
        modules=True, cocycle=True)
    add("classical", "finite-dimensional bar-complex dimensions", n=1)
    return parser


def _read_input(path: str) -> tuple[str, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8"), {"path": path, "sha256": digest}


def _report(command: str, inputs: dict, results: dict, residuals: list,
            truncation: Optional[dict] = None) -> dict:
    if truncation is None:
        truncation = {"deg": None, "margin": None, "stabilized": None}
    return {
        "command": command,
        "inputs": inputs,
        "truncation": truncation,
        "results": results,
        "residuals": residuals,
        "version": __version__,
    }


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    lines.append("inputs:")
    for name in sorted(report["inputs"]):
        info = report["inputs"][name]
        lines.append(f"  {name}: {info['path']} sha256={info['sha256']}")
    t = report["truncation"]
    if t["deg"] is None:
        lines.append("truncation: none")
    else:
        parts = [f"deg={t['deg']}"]
        if t["margin"] is not None:
            parts.append(f"margin={t['margin']}")
        if t["stabilized"] is not None:
            parts.append("stabilized=" + ("yes" if t["stabilized"] else "no"))
        lines.append("truncation: " + " ".join(parts))
    lines.append("results:")
    for key, value in report["results"].items():
        if isinstance(value, bool):
            value = "PASS" if value else "FAIL"
        if isinstance(value, list):
            if value:
                lines.append(f"  {key}:")
                lines.extend(f"    - {item}" for item in value)
            else:
                lines.append(f"  {key}: (none)")
        else:
            lines.append(f"  {key}: {value}")
    if report["residuals"]:
        lines.append("residuals:")
        for item in report["residuals"]:
            lines.append(f"  - {item}")
    else:
        lines.append("residuals: none")
    lines.append(f"version: {report['version']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, as_json: bool):
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(report))


def _max_rounds() -> int:
    raw = os.environ.get("PSEUDO_MAX_MARGIN")
    if raw is None:
        return DEFAULT_MAX_ROUNDS
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(f"PSEUDO_MAX_MARGIN must be an integer, got {raw!r}") from None
    if value < 1:
        raise _UsageError("PSEUDO_MAX_MARGIN must be at least 1")
    return value


def _load_algebra(path: str):
    text, info = _read_input(path)
    return parse_algebra(text), info


def _load_module(path, algebra) -> tuple[BimoduleStructure, Optional[dict]]:
    if path is None:
        return BimoduleStructure.regular(algebra), None
    text, info = _read_input(path)
    return parse_module(text, algebra), info


def _names(axes, indices) -> str:
    """'(x, y, z)': each index looked up in the generator names of its axis."""
    return "(" + ", ".join(axis[i] for axis, i in zip(axes, indices)) + ")"


def _residual_lines(residuals: dict, axes, targets, prefix: str = "") -> list[str]:
    """One '<prefix>(names)[target]: poly' line per nonzero residual, in key
    order; each key is an index tuple over ``axes`` then a target index."""
    return [
        f"{prefix}{_names(axes, key[:-1])}[{targets[key[-1]]}]: {poly_to_str(poly)}"
        for key, poly in sorted(residuals.items())
        if not poly.is_zero
    ]


def _render_cochain(cochain: Cochain) -> str:
    """Canonical one-line form: 'a b -> P * m; ...' over sorted tuples."""
    module = cochain.module
    algebra = cochain.algebra
    parts = []
    for key in sorted(cochain.values):
        vec = cochain.values[key]
        names = " ".join(algebra.generators[i] for i in key)
        for k, poly in enumerate(vec):
            if poly.is_zero:
                continue
            prefix = f"{names} -> " if names else "-> "
            parts.append(f"{prefix}{poly_to_str(poly)} * {module.generators[k]}")
    return "; ".join(parts) if parts else "0"


def _axiom_failure(cex, algebra, module=None) -> tuple[str, str, list[str]]:
    """Law, triple names and residual lines of a law failure; ``module`` is
    the failing module of a module law."""
    a = algebra.generators
    m = () if module is None else module.generators
    # law -> (generator names of each triple slot, names of the targets)
    axes, targets = {
        "associativity": ((a, a, a), a),
        "left": ((a, a, m), m),
        "right": ((m, a, a), m),
        "compat": ((a, m, a), m),
    }[cex.law]
    residuals = {(*cex.triple, s): poly for s, poly in enumerate(cex.residual)}
    lines = _residual_lines(residuals, axes, targets, f"{cex.law} ")
    return cex.law, _names(axes, cex.triple), lines


def _axiom_precheck(algebra, module, inputs, command, as_json) -> Optional[int]:
    """Shared abort path: report the first broken axiom and exit 2."""
    cex = check_associativity(algebra)
    if cex is not None:
        _, names, residuals = _axiom_failure(cex, algebra)
        precheck = "associativity failed"
    elif module is not None and (cex := check_module_axioms(module)) is not None:
        law, names, residuals = _axiom_failure(cex, algebra, module)
        precheck = f"module {law} law failed"
    else:
        return None
    results = {"precheck": precheck, "triple": names}
    _emit(_report(command, inputs, results, residuals), as_json)
    return EXIT_COUNTEREXAMPLE


def _complex_inputs(args, command: str, n: int):
    """Algebra, module and inputs of a command on the degree-n differential,
    plus the precheck's exit code when it reported a broken axiom."""
    algebra, alg_info = _load_algebra(args.algebra)
    module, mod_info = _load_module(args.module, algebra)
    inputs = {"algebra": alg_info}
    if mod_info is not None:
        inputs["module"] = mod_info
    aborted = _axiom_precheck(algebra, module, inputs, command, args.json)
    # the differential uses both actions, so a missing one is bad input
    if aborted is None and not (module.has_left and module.has_right):
        if n == 0:
            raise _UsageError("degree-0 differential needs both module actions")
        side = "right" if module.has_left else "left"
        raise _UsageError(f"the differential needs a {side} action")
    return algebra, module, inputs, aborted


def _cmd_check(args) -> int:
    algebra, alg_info = _load_algebra(args.algebra)
    inputs = {"algebra": alg_info}
    module = None
    if args.module is not None:
        module, inputs["module"] = _load_module(args.module, algebra)
    results: dict = {}
    residuals: list[str] = []
    cex = check_associativity(algebra)
    results["associativity"] = cex is None
    if cex is not None:
        _, names, lines = _axiom_failure(cex, algebra)
        results["associativity_counterexample"] = names
        residuals.extend(lines)
    mex = None
    if module is not None:
        mex = check_module_axioms(module)
        results["module_axioms"] = mex is None
        if mex is not None:
            law, names, lines = _axiom_failure(mex, algebra, module)
            results["module_counterexample"] = f"{law} {names}"
            residuals.extend(lines)
    _emit(_report("check", inputs, results, residuals), args.json)
    return EXIT_OK if cex is None and mex is None else EXIT_COUNTEREXAMPLE


def _cmd_cohomology(args) -> int:
    if args.n < 0 or args.deg < 0 or args.margin < 1:
        raise _UsageError("need --n >= 0, --deg >= 0, --margin >= 1")
    max_rounds = _max_rounds()
    algebra, module, inputs, aborted = _complex_inputs(args, "cohomology", args.n)
    if aborted is not None:
        return aborted
    window = TruncationWindow(args.deg, args.margin)
    rep = cohomology_dimensions(algebra, module, args.n, window, max_rounds=max_rounds)
    report = _report(
        "cohomology",
        inputs,
        {
            "degree": rep.degree,
            "dim_cocycles_slice": rep.dim_cocycles,
            "dim_coboundaries_slice": rep.dim_coboundaries,
            "dim_cohomology_slice": rep.dim_cohomology,
            "stabilization_rounds": rep.rounds,
        },
        [],
        truncation={
            "deg": rep.degree_bound,
            "margin": rep.stabilization_margin,
            "stabilized": rep.stabilized,
        },
    )
    _emit(report, args.json)
    return EXIT_OK


def _cmd_derivations(args) -> int:
    if args.deg < 0:
        raise _UsageError("need --deg >= 0")
    algebra, module, inputs, aborted = _complex_inputs(args, "derivations", 1)
    if aborted is not None:
        return aborted
    # Z^1 and B^1 of the slice: B^1's sources are constant classes, all
    # admitted in the first round, and a B^1 outside Z^1 raises (exit 3)
    rep = cohomology_dimensions(algebra, module, 1, TruncationWindow(args.deg))
    der, inner = rep.cocycles, rep.coboundaries
    index = CochainIndex(algebra, module, 1, args.deg)
    der_lines = [_render_cochain(index.reconstruct(vec)) for vec in der.vectors]
    inner_lines = [_render_cochain(index.reconstruct(vec)) for vec in inner.vectors]
    report = _report(
        "derivations",
        inputs,
        {
            "dim_derivations_slice": der.dim,
            "dim_inner_derivations_slice": inner.dim,
            "derivation_basis": der_lines,
            "inner_derivation_basis": inner_lines,
        },
        [],
        truncation={"deg": args.deg, "margin": None, "stabilized": None},
    )
    _emit(report, args.json)
    return EXIT_OK


def _cmd_deform(args) -> int:
    algebra, alg_info = _load_algebra(args.algebra)
    cocycle_text, coc_info = _read_input(args.cocycle)
    inputs = {"algebra": alg_info, "cocycle": coc_info}
    aborted = _axiom_precheck(algebra, None, inputs, "deform", args.json)
    if aborted is not None:
        return aborted
    module = BimoduleStructure.regular(algebra)
    cochain = parse_cochain(cocycle_text, algebra, module, 2)
    residual_map, flat = deform(DeformationDatum(algebra, cochain))
    alg = algebra.generators
    residuals = _residual_lines(residual_map, (alg, alg, alg), alg)
    report = _report(
        "deform",
        inputs,
        {"first_order_associative": flat},
        residuals,
    )
    _emit(report, args.json)
    return EXIT_OK if flat else EXIT_COUNTEREXAMPLE


def _cmd_extend(args) -> int:
    algebra, alg_info = _load_algebra(args.algebra)
    inputs = {"algebra": alg_info}
    paths = args.module or []
    if len(paths) > 2:
        raise _UsageError("extend takes at most two --module files")
    sub, info = _load_module(paths[0] if paths else None, algebra)
    quotient = sub
    if len(paths) == 1:
        inputs["module"] = info
    elif len(paths) == 2:
        inputs["sub_module"] = info
        quotient, inputs["quotient_module"] = _load_module(paths[1], algebra)
    cocycle_text, coc_info = _read_input(args.cocycle)
    inputs["cocycle"] = coc_info
    aborted = _axiom_precheck(algebra, None, inputs, "extend", args.json)
    if aborted is not None:
        return aborted
    gamma = parse_gamma(cocycle_text, algebra, sub, quotient)
    try:
        datum = ExtensionDatum(algebra, sub, quotient, gamma)
    except ValueError as exc:
        # the datum's own checks of its modules raise plain ValueError;
        # a subclass comes from deeper down and is not an input problem
        if type(exc) is not ValueError:
            raise
        raise _UsageError(str(exc)) from None
    extension, passed, residual_map = build_extension(datum)
    alg = algebra.generators
    residuals = _residual_lines(residual_map, (alg, alg, quotient.generators),
                                sub.generators)
    report = _report(
        "extend",
        inputs,
        {
            "left_module_law": passed,
            "extension_generators": " ".join(extension.generators),
        },
        residuals,
    )
    _emit(report, args.json)
    return EXIT_OK if passed else EXIT_COUNTEREXAMPLE


def _cmd_classical(args) -> int:
    if args.n < 0:
        raise _UsageError("need --n >= 0")
    if args.n > 3:
        raise _UsageError("only degrees 0..3 are supported")
    text, info = _read_input(args.algebra)
    algebra = parse_fd_algebra(text)
    inputs = {"algebra": info}
    if check_associativity(algebra) is not None:
        report = _report("classical", inputs,
                         {"precheck": "structure constants not associative"}, [])
        _emit(report, args.json)
        return EXIT_COUNTEREXAMPLE
    # the degree-0 slice of the current algebra's complex is the bar complex
    module = BimoduleStructure.regular(algebra)
    window = TruncationWindow(0)
    reports = {n: cohomology_dimensions(algebra, module, n, window) for n in {0, 1, args.n}}
    results = {
        "degree": args.n,
        "dim_cohomology": reports[args.n].dim_cohomology,
        "dim_center": reports[0].dim_cocycles,
        "dim_derivations": reports[1].dim_cocycles,
        "dim_inner_derivations": reports[1].dim_coboundaries,
    }
    _emit(_report("classical", inputs, results, []), args.json)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "cohomology": _cmd_cohomology,
    "derivations": _cmd_derivations,
    "deform": _cmd_deform,
    "extend": _cmd_extend,
    "classical": _cmd_classical,
}


# input problems exit 1; any other exception is a bug and exits 3
_INPUT_ERRORS = (_UsageError, DefinitionError, PolyParseError, OSError, UnicodeDecodeError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    command = "pseudo"
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        return _COMMANDS[command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only bugs reach here; start-up does not pay for it

        traceback.print_exc()
        print(
            f"internal inconsistency in {command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
