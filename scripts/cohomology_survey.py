"""Survey truncated cohomology slices across a small family of algebras.

Prints one table row per (algebra, degree, bound): slice dimensions of
cocycles, coboundaries and cohomology, plus whether the coboundary
dimension stabilized under widening.  Exact arithmetic throughout, so
rows are reproducible.

    python3 scripts/cohomology_survey.py
    python3 scripts/cohomology_survey.py --max-n 3 --deg 2 --margin 2
"""

import argparse
import time

from pseudo.cfmodule import BimoduleStructure
from pseudo.classical import matrix_algebra
from pseudo.cohomology import DEFAULT_MAX_ROUNDS, TruncationWindow, cohomology_dimensions
from pseudo.conformal import free_rank_one
from pseudo.polyring import Poly

# the surveyed algebras, by the name each row prints
ALGEBRAS = {
    "unit-current": free_rank_one,
    "zero-product": lambda: free_rank_one(Poly.zero(("del", "lam"))),
    "mat2-current": lambda: matrix_algebra(2),
}


def run(max_n: int, degree_bound: int, margin: int, max_rounds: int) -> None:
    header = f"{'algebra':<14} {'n':>2} {'deg':>4} {'dim Z':>6} {'dim B':>6} {'dim H':>6}  stabilized  seconds"
    print(header)
    print("-" * len(header))
    window = TruncationWindow(degree_bound, margin)
    for name, build in ALGEBRAS.items():
        algebra = build()
        module = BimoduleStructure.regular(algebra)
        for n in range(max_n + 1):
            started = time.perf_counter()
            report = cohomology_dimensions(
                algebra, module, n, window, max_rounds=max_rounds
            )
            elapsed = time.perf_counter() - started
            print(
                f"{name:<14} {n:>2} {report.degree_bound:>4} "
                f"{report.dim_cocycles:>6} {report.dim_coboundaries:>6} "
                f"{report.dim_cohomology:>6}  "
                f"{'yes' if report.stabilized else 'NO ':<10}  {elapsed:7.2f}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=2, help="highest degree n")
    parser.add_argument("--deg", type=int, default=2, help="truncation degree bound")
    parser.add_argument("--margin", type=int, default=1, help="stabilization step")
    parser.add_argument("--max-rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    args = parser.parse_args()
    run(args.max_n, args.deg, args.margin, args.max_rounds)


if __name__ == "__main__":
    main()
