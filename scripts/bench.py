"""A/B the end-to-end benchmark of two checkouts and record it as BENCH_<N>.json.

    python3 scripts/bench.py BASE CHANGE --pr N --pairs P --seconds S [--first-seed F]
        [--workload W ...]

BASE and CHANGE are source checkouts, each with its own perfbench/ and
src/pseudo.  For every workload (all four when no --workload is given)
the script runs ``perfbench/run.py --trace 0`` of the two checkouts in
turn, P times: pair i (from 1) uses seed F + i - 1 for both (F is
--first-seed, 1 when left out, so a claim can be rechecked on seeds it
was not tuned on), and the order of the two flips on every pair, so
drift on a shared machine lands on both sides alike.  Each run starts
in its own checkout and imports that checkout's package; the script
only reads perfbench/ and writes nothing there (a timed run writes no
spans).

The result goes to BENCH_<N>.json in the current directory.  For each
workload it holds every pair's end-to-end metrics for both sides and
their CHANGE / BASE ratios; the median of each metric over the pairs for
both sides and the ratio of the medians; in how many pairs CHANGE read
lower than BASE, and in how many it read better, in the direction
BENCHMARK.json (next to scripts/, only read) gives each metric; and
whether every run was correct, with the failed operations of each side
summed.
A run that exits nonzero or prints no result stops the script (exit 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cohom-graded", "cohom-ungraded", "verdict-batch", "cli-oneshot")
SIDES = ("base", "change")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def directions() -> dict[str, str]:
    """End-to-end metric -> "lower" or "higher", the reading BENCHMARK.json
    calls better."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in declared["end_to_end"]}


def better_in(runs: list, better: dict[str, str]) -> dict[str, int]:
    """Metric -> in how many of ``runs`` CHANGE read better than BASE, for
    every metric ``better`` gives a direction."""
    counts = {}
    for name, direction in better.items():
        pairs = [(run["change"]["metrics"][name], run["base"]["metrics"][name]) for run in runs]
        if direction == "higher":
            counts[name] = sum(change > base for change, base in pairs)
        else:
            counts[name] = sum(change < base for change, base in pairs)
    return counts


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one timed perfbench run of ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def ratios(change: dict, base: dict) -> dict:
    return {name: change[name] / base[name] for name in base}


def compare(checkouts: dict, workload: str, pairs: int, seconds: float,
            first_seed: int) -> dict:
    """Alternating pairs of runs of one workload, summed up."""
    runs = []
    for pair in range(1, pairs + 1):
        seed = first_seed + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        got = {side: run_once(checkouts[side], workload, seed, seconds) for side in order}
        ratio = ratios(got["change"]["metrics"], got["base"]["metrics"])
        runs.append({"seed": seed, "order": list(order), **got, "ratio": ratio})
        print(f"{workload} pair {pair}/{pairs}: wall_s ratio {ratio['wall_s']:.3f}",
              file=sys.stderr)
    names = list(runs[0]["base"]["metrics"])
    median = {
        side: {name: statistics.median(run[side]["metrics"][name] for run in runs)
               for name in names}
        for side in SIDES
    }
    return {
        "pairs": runs,
        "median": median,
        "ratio": ratios(median["change"], median["base"]),
        "change_lower_in": {
            name: sum(run["change"]["metrics"][name] < run["base"]["metrics"][name]
                      for run in runs)
            for name in names
        },
        "change_better_in": better_in(runs, directions()),
        "correct": all(run[side]["correct"] for run in runs for side in SIDES),
        "failed": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", required=True, type=int, help="the N of BENCH_<N>.json")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="per run")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the seed of the first pair (default 1)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; every workload when left out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout}: no perfbench/run.py")
    workloads = args.workload or list(WORKLOADS)
    record = {
        "pr": args.pr,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "first_seed": args.first_seed,
        "workloads": {
            w: compare(checkouts, w, args.pairs, args.seconds, args.first_seed)
            for w in workloads
        },
    }
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, summary in record["workloads"].items():
        wall = summary["ratio"]["wall_s"]
        print(f"{workload}: wall_s ratio {wall:.3f}, change lower in "
              f"{summary['change_lower_in']['wall_s']} of {args.pairs} pairs, "
              f"correct {summary['correct']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
