"""Benchmark for the pseudo package: four workloads, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``pseudo`` from its
``src`` directory.  One client runs one operation at a time (the CLI
workload starts one child interpreter at a time); no threads.

  cohom-graded     cohomology_dimensions on mat2-current (homogeneous inputs)
  cohom-ungraded   cohomology_dimensions on two algebras of mixed degree
  verdict-batch    158 small dual-route verdicts and witness searches
  cli-oneshot      `python -m pseudo` one-shot commands over inputs/

With ``--trace 0`` it times whole passes over the workload's operations
until the next pass would overrun ``--seconds`` (at least MIN_PASSES
passes) and reports the end-to-end metrics, scaled to reference seconds
by the calibration kernel (calibration.py).  With ``--trace 1`` it runs
one untraced pass and two traced passes, checks that tracing changed no
answer and that the exact counters repeat, and reports the per-layer
metrics; spans of the first traced pass are written to perfbench/out/.
Every answer is checked against a known value.  The last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import Calibration
from tracer import LAYERS, TRACE_MARK, Tracer
from workloads import (
    BENCH_DIR,
    CHILD_TIMEOUT_S,
    COHOMOLOGY_JOBS,
    ROOT,
    child_env,
    cli_setup,
    cohomology_setup,
    run_cli,
    verdict_setup,
)

SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("cohom-graded", "cohom-ungraded", "verdict-batch", "cli-oneshot")
MIN_PASSES = 2
MAX_MEASURE_S = 120.0
SETUP_REPEATS = 3
IMPORT_SAMPLES = 7
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import pseudo.cli\n"
    "print(time.perf_counter() - t)\n"
)

# per-layer metrics: calls and self time for each traced name ...
TIMED_NAMES = (
    "cohomology.apply_dn",
    "cohomology.apply_d0",
    "cohomology.differential_matrix",
    "cohomology.cohomology_dimensions",
    "exactla.kernel_basis",
    "exactla.image_basis",
    "exactla.solve",
    "exactla.intersect",
    "exactla.quotient_dimension",
    "polyring.Poly.substitute",
    "polyring.Poly.mul",
    "polyring.Poly.add",
    "conformal.check_associativity",
    "cfmodule.check_module_axioms",
    "constructions.deform",
    "constructions.deformation_residuals",
    "constructions.build_abelian_extension",
    "constructions.build_extension",
    "constructions.extension_residuals",
    "constructions.find_deformation_witness",
    "constructions.find_extension_witness",
    "constructions.gamma_coboundary",
    "cli.main",
    "formats.parse",
    "classical.hochschild_dimension",
)
# ... and exact work counters summed over calls
COUNTERS = (
    "cohomology.differential_matrix.rows",
    "cohomology.differential_matrix.cols",
    "cohomology.differential_matrix.nnz",
    "cohomology.cohomology_dimensions.rounds",
    "exactla.kernel_basis.rows",
    "exactla.kernel_basis.cols",
    "exactla.kernel_basis.nnz",
    "exactla.kernel_basis.rank",
    "exactla.image_basis.rows",
    "exactla.image_basis.cols",
    "exactla.image_basis.nnz",
    "exactla.image_basis.rank",
    "exactla.solve.rows",
    "exactla.solve.cols",
    "exactla.solve.nnz",
    "exactla.solve.rank",
    "exactla.intersect.dim_in",
    "exactla.intersect.dim_out",
)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class CliRunner:
    """Runs one `pseudo` command in a child interpreter.

    Untraced it runs ``python -m pseudo``; with a tracer set it runs the
    tracing shim and merges the child's per-layer totals and spans.
    """

    def __init__(self):
        self.tracer = None
        self.import_s: list[float] = []

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.tracer is None:
            code, digest, _ = run_cli(["-m", "pseudo", *argv])
            return code, digest
        code, digest, stderr = run_cli([str(BENCH_DIR / "cli_shim.py"), *argv])
        lines = [line for line in stderr.splitlines() if line.startswith(TRACE_MARK)]
        if not lines:
            raise RuntimeError(f"tracing shim left no trace for {argv}")
        summary = json.loads(lines[-1][len(TRACE_MARK):])
        self.tracer.merge(summary)
        self.import_s.append(summary["import_s"])
        return code, digest


def build_operations(name: str, seed: int, cli_runner: CliRunner):
    if name in COHOMOLOGY_JOBS:
        return cohomology_setup(name, seed)
    if name == "verdict-batch":
        return verdict_setup(seed)
    return cli_setup(seed, cli_runner)


def import_seconds(calibration: Calibration) -> float:
    """Median time to import pseudo.cli in a fresh interpreter."""
    def probe() -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        return float(done.stdout.decode().split()[-1])

    probe()  # the first import may write the bytecode cache
    samples = []
    for _ in range(IMPORT_SAMPLES):
        calibration.sample()
        samples.append(probe())
    return statistics.median(samples)


def run_pass(ops, tracer=None, between=None) -> tuple[list[float], list, int]:
    """One pass over the operations: per-op seconds, results, failures.

    ``between`` is called after each operation and its check.
    """
    times, results, failed = [], [], 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        started = perf_counter()
        try:
            result = op.run()
        except Exception:
            times.append(perf_counter() - started)
            results.append(None)
            failed += 1
            print(f"operation failed: {op.label}", file=sys.stderr)
            traceback.print_exc()
            continue
        times.append(perf_counter() - started)
        results.append(result)
        try:
            if tracer is None:
                ok = op.check(result)
            else:
                with tracer.paused():
                    ok = op.check(result)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            print(f"wrong answer: {op.label}", file=sys.stderr)
        if between is not None:
            between()
    return times, results, failed


def timed_run(name: str, seed: int, seconds: float) -> dict:
    runner = CliRunner()
    calibration = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        started = perf_counter()
        ops = build_operations(name, seed, runner)
        setup_times.append(perf_counter() - started)
    setup_raw = import_seconds(calibration) + statistics.median(setup_times)

    per_op: list[list[float]] = [[] for _ in ops]
    pass_s = []
    attempted = failed = 0
    began = perf_counter()
    while True:
        times, _, pass_failed = run_pass(ops, between=calibration.maybe_sample)
        pass_s.append(sum(times))
        for samples, taken in zip(per_op, times):
            samples.append(taken)
        attempted += len(ops)
        failed += pass_failed
        elapsed = perf_counter() - began
        if len(pass_s) >= MIN_PASSES and (
            elapsed * (len(pass_s) + 1) / len(pass_s) > seconds or elapsed > MAX_MEASURE_S
        ):
            break
    who = resource.RUSAGE_CHILDREN if name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # each operation's median time over the passes, in reference seconds
    factor = calibration.factor()
    typical = [statistics.median(samples) * factor for samples in per_op]
    print(
        f"{name}: {len(pass_s)} passes of {len(ops)} operations, "
        f"pass seconds {[round(s, 3) for s in pass_s]}; "
        f"{len(calibration.samples)} calibration samples, factor {factor:.3f}; "
        f"unscaled wall {sum(typical) / factor:.4f} s, set-up {setup_raw:.4f} s",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (setup_raw * factor, "s"),
        "wall_s": (sum(typical), "s"),
        "ops_per_s": (len(ops) / sum(typical), "1/s"),
        "op_ms_p50": (statistics.median(typical) * 1000.0, "ms"),
        "op_ms_p90": (_quantile(typical, 0.9) * 1000.0, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(name: str, seed: int, import_s: float) -> dict:
    runner = CliRunner()
    ops = build_operations(name, seed, runner)
    base_times, base_results, failed = run_pass(ops)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        runner.tracer = tracer
        if name != "cli-oneshot":
            tracer.install()
        try:
            times, results, pass_failed = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
            runner.tracer = None
        failed += pass_failed
        traced.append((tracer, times, results))
    (first, first_times, first_results), (second, _, second_results) = traced
    attempted = 3 * len(ops)

    neutral = first_results == base_results and second_results == base_results
    repeats = first.exact_counters() == second.exact_counters()
    if not neutral:
        print("tracing changed an answer", file=sys.stderr)
    if not repeats:
        print("exact counters differ between the two traced passes", file=sys.stderr)

    metrics = {}
    for stat in TIMED_NAMES:
        metrics[f"{stat}.calls"] = (first.calls.get(stat, 0), "count")
        metrics[f"{stat}.self_s"] = (first.self_s.get(stat, 0.0), "s")
    for counter in COUNTERS:
        metrics[counter] = (first.counts.get(counter, 0), "count")
    counts = first.counts
    metrics["constructions.flat_ratio"] = (
        counts.get("constructions.flat", 0) / max(1, counts.get("constructions.verdicts", 0)),
        "ratio",
    )
    metrics["constructions.witness_found_ratio"] = (
        counts.get("constructions.witnesses_found", 0)
        / max(1, counts.get("constructions.witness_searches", 0)),
        "ratio",
    )
    child_imports = runner.import_s[: len(ops)]
    metrics["cli.import_s"] = (
        statistics.median(child_imports) if child_imports else import_s,
        "s",
    )
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (first.errors[layer], "count")
    metrics["trace.overhead_s"] = (sum(first_times) - sum(base_times), "s")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with spans_path.open("w", encoding="utf-8") as out:
        for span_id, stat, start, end, parent, op_id in first.spans:
            out.write(
                json.dumps(
                    {"id": span_id, "name": stat, "start": start, "end": end,
                     "parent": parent, "op": op_id}
                )
                + "\n"
            )
    print(f"{name}: {len(first.spans)} spans written to {spans_path}", file=sys.stderr)
    return {
        "correct": failed == 0 and neutral and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "pseudo" / "__init__.py").is_file():
        print(f"error: no pseudo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import pseudo.cli

    import_s = perf_counter() - started
    if Path(pseudo.cli.__file__).resolve().parent != SRC / "pseudo":
        print(f"error: imported pseudo from {pseudo.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        result = traced_run(args.workload, args.seed, import_s)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    result["metrics"] = {
        key: {"value": value, "unit": unit} for key, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
