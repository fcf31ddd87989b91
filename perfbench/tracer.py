"""Per-layer tracing of the pseudo package, installed from outside.

Every public module-level function of each traced ``pseudo`` module is
replaced by a wrapper that records a span (name, start, end, parent span,
operation id) and per-name call counts and self time.  Modules import
each other by name (``from .exactla import kernel_basis``), so a wrapper
is installed in every ``pseudo.*`` namespace that holds the same function
object.  ``Poly`` arithmetic is patched on the class.  The polyring layer
runs up to millions of times per pass, so it is aggregated (calls and
self time) without keeping a span per call, and the two helpers that
every ``Poly`` construction calls are left unwrapped.

Self time is a span's duration minus the time covered by its traced
children.  Exact counters (matrix shapes, nnz, ranks, widening rounds)
are read from arguments and results after the call; the time spent
computing them is excluded from every enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# prefix of the stderr line on which a traced child reports its totals
TRACE_MARK = "PERFBENCH_TRACE "

LAYERS = (
    "polyring",
    "exactla",
    "cohomology",
    "conformal",
    "cfmodule",
    "constructions",
    "classical",
    "formats",
    "cli",
)

# Poly methods traced on the class; reflected operators share a name
POLY_METHODS = {
    "substitute": "polyring.Poly.substitute",
    "__mul__": "polyring.Poly.mul",
    "__rmul__": "polyring.Poly.mul",
    "__add__": "polyring.Poly.add",
    "__radd__": "polyring.Poly.add",
}

# bookkeeping run on every Poly construction; wrapping it would cost more
# than the arithmetic it serves
UNWRAPPED = {"polyring.variable_key", "polyring.sort_variables"}

# verdict-returning constructions: result is (object, verdict)
VERDICT_FUNCTIONS = ("deform", "build_abelian_extension", "build_extension")
WITNESS_FUNCTIONS = ("find_deformation_witness", "find_extension_witness")
COUNTED = (
    "differential_matrix",
    "kernel_basis",
    "image_basis",
    "solve",
    "intersect",
    "cohomology_dimensions",
) + VERDICT_FUNCTIONS + WITNESS_FUNCTIONS


def _stat_name(layer: str, name: str) -> str:
    if layer == "formats" and name.startswith("parse_"):
        return "formats.parse"
    return f"{layer}.{name}"


def _nnz(matrix) -> int:
    return sum(len(row) for row in matrix.rows)


class Tracer:
    """Collects spans, per-name statistics and exact counters in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.op_id = None
        self._stack: list[list] = []  # [span id, layer, covered child time]
        self._next_id = 0
        self._paused = False
        self._originals: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules, and Poly."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"pseudo.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or f"{layer}.{name}" in UNWRAPPED
                ):
                    continue
                wrappers[id(value)] = self._wrap(
                    value, layer, _stat_name(layer, name), layer != "polyring"
                )
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "pseudo" or key.startswith("pseudo.")
        ]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, name, value))
                    setattr(module, name, wrapper)
        poly = modules["polyring"].Poly
        wrapped_poly: dict[int, object] = {}
        for method, stat in POLY_METHODS.items():
            original = poly.__dict__[method]
            wrapper = wrapped_poly.get(id(original))
            if wrapper is None:
                wrapper = self._wrap(original, "polyring", stat, False)
                wrapped_poly[id(original)] = wrapper
            self._originals.append((poly, method, original))
            setattr(poly, method, wrapper)

    @contextmanager
    def paused(self):
        """Run the enclosed calls untraced, such as answer checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def uninstall(self):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, layer: str, stat: str, keep_span: bool):
        tracer = self
        short = stat.split(".", 1)[1]
        counted = layer != "polyring" and short in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                tracer._close(frame, parent, stat, start, end, keep_span, 0.0)
                raise
            end = perf_counter()
            if counted:
                with tracer.paused():
                    tracer._count(short, args, result)
            tracer._close(frame, parent, stat, start, end, keep_span, perf_counter() - end)
            return result

        return wrapper

    def _close(self, frame, parent, stat, start, end, keep_span, counting):
        self._stack.pop()
        duration = end - start
        self.calls[stat] += 1
        self.self_s[stat] += duration - frame[2]
        if parent is not None:
            # counting time stays out of the parent's self time
            parent[2] += duration + counting
        if keep_span:
            self.spans.append(
                (frame[0], stat, start, end, None if parent is None else parent[0], self.op_id)
            )

    def _count(self, name: str, args, result):
        counts = self.counts
        if name == "differential_matrix":
            counts["cohomology.differential_matrix.rows"] += result.nrows
            counts["cohomology.differential_matrix.cols"] += result.ncols
            counts["cohomology.differential_matrix.nnz"] += _nnz(result)
        elif name in ("kernel_basis", "image_basis", "solve"):
            matrix = args[0]
            key = f"exactla.{name}"
            counts[key + ".rows"] += matrix.nrows
            counts[key + ".cols"] += matrix.ncols
            counts[key + ".nnz"] += _nnz(matrix)
            if name == "kernel_basis":
                counts[key + ".rank"] += matrix.ncols - result.dim
            elif name == "image_basis":
                counts[key + ".rank"] += result.dim
            else:
                exactla = sys.modules["pseudo.exactla"]
                counts[key + ".rank"] += exactla.rank(matrix)
        elif name == "intersect":
            counts["exactla.intersect.dim_in"] += args[0].dim + args[1].dim
            counts["exactla.intersect.dim_out"] += result.dim
        elif name == "cohomology_dimensions":
            counts["cohomology.cohomology_dimensions.rounds"] += result.rounds
        elif name in VERDICT_FUNCTIONS:
            counts["constructions.verdicts"] += 1
            counts["constructions.flat"] += bool(result[1])
        elif name in WITNESS_FUNCTIONS:
            counts["constructions.witness_searches"] += 1
            counts["constructions.witnesses_found"] += result is not None

    # -- export --------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data view of everything but the spans, for merging."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "errors": dict(self.errors),
        }

    def merge(self, summary: dict):
        """Add a child process's summary and spans into this tracer.

        Child span ids are shifted past this tracer's and the spans take
        the current operation id.
        """
        offset = self._next_id
        for span_id, stat, start, end, parent, _ in summary["spans"]:
            self.spans.append(
                (span_id + offset, stat, start, end,
                 None if parent is None else parent + offset, self.op_id)
            )
            self._next_id = max(self._next_id, span_id + offset + 1)
        for key, value in summary["calls"].items():
            self.calls[key] += value
        for key, value in summary["self_s"].items():
            self.self_s[key] += value
        for key, value in summary["counts"].items():
            self.counts[key] += value
        for key, value in summary["errors"].items():
            self.errors[key] += value

    def exact_counters(self) -> dict:
        """Counters that must repeat exactly across traced runs of one seed."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        out.update({f"{layer}.errors": n for layer, n in self.errors.items()})
        return out
