"""Command-line front end.

Subcommands: check, cohomology, derivations, deform, extend, classical.
The CLI is a thin shell: each command reads its files, calls the library
and returns the parts of its report, and ``main`` alone assembles the
report, writes it to stdout (text, or JSON with --json) and maps it to
an exit code.  ``classical`` reads a finite-dimensional algebra A straight
into its current algebra (``formats.parse_fd_algebra``) and runs the
cochain complex at polynomial degree 0, where it is the bar complex of A
(see ``pseudo.classical``).  Reports are byte-identical across runs for
identical inputs and flags; wall-clock timing goes to stderr.  Exit codes:
0 success, 1 bad input (usage, a file that does not parse or read, or a
module or algebra the library finds unfit, ``UnfitModuleError`` or
``NonAssociativeError``), 2 a mathematical
counterexample (the inputs fail the property under test), 3 any other
error, which can only be a bug.

The JSON report always carries the keys command, inputs, truncation,
results, residuals and version; truncation fields are null for commands
that do not truncate.

A command imports the ``cohomology`` or ``constructions`` names it calls
when it runs, so a process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .cfmodule import BimoduleStructure, UnfitModuleError, axiom_failure
from .conformal import LAW_SLOTS, NonAssociativeError, associativity_failure
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


def _read(inputs: dict, name: str, path: str) -> str:
    """The text of ``path``; records its path and sha256 as ``inputs[name]``."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[name] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return data.decode("utf-8")


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
    lines.append("residuals:" if report["residuals"] else "residuals: none")
    lines.extend(f"  - {item}" for item in report["residuals"])
    lines.append(f"version: {report['version']}")
    return "\n".join(lines) + "\n"


def _max_rounds(default: int) -> int:
    raw = os.environ.get("PSEUDO_MAX_MARGIN")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(f"PSEUDO_MAX_MARGIN must be an integer, got {raw!r}") from None
    if value < 1:
        raise _UsageError("PSEUDO_MAX_MARGIN must be at least 1")
    return value


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


def _render_cochain(cochain) -> str:
    """A `cohomology.Cochain` in canonical one-line form: 'a b -> P * m;
    ...' over sorted tuples."""
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
    # the law's own object: its generators are the targets and the "m" slots
    targets = (algebra if module is None else module).generators
    names = {"a": algebra.generators, "m": targets}
    axes = tuple(names[slot] for slot in LAW_SLOTS[cex.law])
    residuals = {(*cex.triple, s): poly for s, poly in enumerate(cex.residual)}
    lines = _residual_lines(residuals, axes, targets, f"{cex.law} ")
    return cex.law, _names(axes, cex.triple), lines


def _precheck(algebra, module=None) -> Optional[tuple]:
    """The parts of the abort report on the first broken axiom of the
    algebra, then of ``module``; None when both hold.  Each verdict is the
    one kept on its object (`associativity_failure`, `axiom_failure`),
    which the library's data read again."""
    cex = associativity_failure(algebra)
    if cex is not None:
        _, names, residuals = _axiom_failure(cex, algebra)
        return {"precheck": "associativity failed", "triple": names}, residuals, None, False
    if module is not None and (cex := axiom_failure(module)) is not None:
        law, names, residuals = _axiom_failure(cex, algebra, module)
        results = {"precheck": f"module {law} law failed", "triple": names}
        return results, residuals, None, False
    return None


def _complex_inputs(args, inputs: dict):
    """Algebra and module (regular unless given) of a command on the
    differential, and the precheck's abort report or None."""
    algebra = parse_algebra(_read(inputs, "algebra", args.algebra))
    module = BimoduleStructure.regular(algebra)
    if args.module is not None:
        module = parse_module(_read(inputs, "module", args.module), algebra)
    return algebra, module, _precheck(algebra, module)


def _cmd_check(args, inputs: dict):
    algebra = parse_algebra(_read(inputs, "algebra", args.algebra))
    module = None
    if args.module is not None:
        module = parse_module(_read(inputs, "module", args.module), algebra)
    results: dict = {}
    residuals: list[str] = []
    cex = associativity_failure(algebra)
    results["associativity"] = cex is None
    if cex is not None:
        _, names, lines = _axiom_failure(cex, algebra)
        results["associativity_counterexample"] = names
        residuals.extend(lines)
    mex = None
    if module is not None:
        mex = axiom_failure(module)
        results["module_axioms"] = mex is None
        if mex is not None:
            law, names, lines = _axiom_failure(mex, algebra, module)
            results["module_counterexample"] = f"{law} {names}"
            residuals.extend(lines)
    return results, residuals, None, cex is None and mex is None


def _cmd_cohomology(args, inputs: dict):
    from .cohomology import DEFAULT_MAX_ROUNDS, TruncationWindow, cohomology_dimensions

    if args.n < 0 or args.deg < 0 or args.margin < 1:
        raise _UsageError("need --n >= 0, --deg >= 0, --margin >= 1")
    max_rounds = _max_rounds(DEFAULT_MAX_ROUNDS)
    algebra, module, aborted = _complex_inputs(args, inputs)
    if aborted is not None:
        return aborted
    window = TruncationWindow(args.deg, args.margin)
    rep = cohomology_dimensions(algebra, module, args.n, window, max_rounds=max_rounds)
    results = {
        "degree": rep.degree,
        "dim_cocycles_slice": rep.dim_cocycles,
        "dim_coboundaries_slice": rep.dim_coboundaries,
        "dim_cohomology_slice": rep.dim_cohomology,
        "stabilization_rounds": rep.rounds,
    }
    truncation = {
        "deg": rep.degree_bound,
        "margin": rep.stabilization_margin,
        "stabilized": rep.stabilized,
    }
    return results, [], truncation, True


def _cmd_derivations(args, inputs: dict):
    from .cohomology import CochainIndex, TruncationWindow, cohomology_dimensions

    if args.deg < 0:
        raise _UsageError("need --deg >= 0")
    algebra, module, aborted = _complex_inputs(args, inputs)
    if aborted is not None:
        return aborted
    # Z^1 and B^1 of the slice: B^1's sources are constant classes, each
    # differentiated in round 0, before Z^1 is computed, and the kernel
    # that computes Z^1 checks that d sends every row of B^1 to 0, so a
    # broken d after d raises (exit 3)
    rep = cohomology_dimensions(algebra, module, 1, TruncationWindow(args.deg))
    der, inner = rep.cocycles, rep.coboundaries
    index = CochainIndex(algebra, module, 1, args.deg)
    results = {
        "dim_derivations_slice": der.dim,
        "dim_inner_derivations_slice": inner.dim,
        "derivation_basis": [_render_cochain(index.reconstruct(v)) for v in der.vectors],
        "inner_derivation_basis": [
            _render_cochain(index.reconstruct(v)) for v in inner.vectors
        ],
    }
    return results, [], {"deg": args.deg, "margin": None, "stabilized": None}, True


def _cmd_deform(args, inputs: dict):
    from .constructions import DeformationDatum, deform

    algebra = parse_algebra(_read(inputs, "algebra", args.algebra))
    cocycle_text = _read(inputs, "cocycle", args.cocycle)
    aborted = _precheck(algebra)
    if aborted is not None:
        return aborted
    module = BimoduleStructure.regular(algebra)
    cochain = parse_cochain(cocycle_text, algebra, module, 2)
    residual_map, flat = deform(DeformationDatum(algebra, cochain))
    alg = algebra.generators
    residuals = _residual_lines(residual_map, (alg, alg, alg), alg)
    return {"first_order_associative": flat}, residuals, None, flat


def _cmd_extend(args, inputs: dict):
    from .constructions import ExtensionDatum, build_extension

    algebra = parse_algebra(_read(inputs, "algebra", args.algebra))
    paths = args.module or []
    if len(paths) > 2:
        raise _UsageError("extend takes at most two --module files")
    names = ("module",) if len(paths) == 1 else ("sub_module", "quotient_module")
    modules = [
        parse_module(_read(inputs, name, path), algebra) for name, path in zip(names, paths)
    ] or [BimoduleStructure.regular(algebra)]
    sub, quotient = modules[0], modules[-1]
    cocycle_text = _read(inputs, "cocycle", args.cocycle)
    aborted = _precheck(algebra)
    if aborted is not None:
        return aborted
    gamma = parse_gamma(cocycle_text, algebra, sub, quotient)
    extension, passed, residual_map = build_extension(
        ExtensionDatum(algebra, sub, quotient, gamma)
    )
    alg = algebra.generators
    residuals = _residual_lines(residual_map, (alg, alg, quotient.generators),
                                sub.generators)
    results = {
        "left_module_law": passed,
        "extension_generators": " ".join(extension.generators),
    }
    return results, residuals, None, passed


def _cmd_classical(args, inputs: dict):
    from .cohomology import TruncationWindow, cohomology_dimensions

    if args.n < 0:
        raise _UsageError("need --n >= 0")
    if args.n > 3:
        raise _UsageError("only degrees 0..3 are supported")
    algebra = parse_fd_algebra(_read(inputs, "algebra", args.algebra))
    if associativity_failure(algebra) is not None:
        return {"precheck": "structure constants not associative"}, [], None, False
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
    return results, [], None, True


# each command returns (results, residuals, truncation, ok): truncation is
# None for a command that does not truncate, and ok is False exactly when
# the inputs fail the property under test
_COMMANDS = {
    "check": _cmd_check,
    "cohomology": _cmd_cohomology,
    "derivations": _cmd_derivations,
    "deform": _cmd_deform,
    "extend": _cmd_extend,
    "classical": _cmd_classical,
}


# input problems exit 1; any other exception is a bug and exits 3
_INPUT_ERRORS = (_UsageError, DefinitionError, PolyParseError, UnfitModuleError,
                 NonAssociativeError, OSError, UnicodeDecodeError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    command = "pseudo"
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        inputs: dict = {}
        results, residuals, truncation, ok = _COMMANDS[command](args, inputs)
        report = {
            "command": command,
            "inputs": inputs,
            "truncation": truncation or {"deg": None, "margin": None, "stabilized": None},
            "results": results,
            "residuals": residuals,
            "version": __version__,
        }
        if args.json:
            import json  # only --json pays for it
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n" if args.json
                         else _render_text(report))
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE
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
