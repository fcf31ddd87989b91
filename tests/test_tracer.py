"""The benchmark's tracer still fits the package it wraps.

perfbench/tracer.py reaches into ``pseudo`` by name, and reads the
arguments and results of the functions it counts, so a deletion in the
package can break ``perfbench/run.py --trace 1`` while every other test
passes.  This runs a few benchmark operations under the tracer.
"""

import importlib.util
import sys

from conftest import INPUTS

PERFBENCH = INPUTS.parent / "perfbench"


def _load(monkeypatch, name: str):
    """perfbench/<name>.py as a module, registered only for this test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_operations_pass_their_checks(monkeypatch):
    tracer_module = _load(monkeypatch, "tracer")
    workloads = _load(monkeypatch, "workloads")
    verdicts = workloads.verdict_setup(11)
    ops = [
        next(op for op in verdicts if op.label.startswith(f"{kind} cur1 yes"))
        for kind in ("deformation-witness", "extension-witness")
    ]
    ops += [op for op in workloads.cohomology_setup("cohom-graded", 11)
            if op.label == "mat2 H^2 D=0"]
    assert len(ops) == 3
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        results = [op.run() for op in ops]
    finally:
        tracer.uninstall()
    assert [op.check(result) for op, result in zip(ops, results)] == [True] * 3
    assert tracer.calls["exactla.solve_columns"] > 0
    assert tracer.counts["constructions.witness_searches"] > 0
    assert tracer.calls["cohomology.cohomology_dimensions"] == 1
    assert not any(tracer.errors.values())
