"""Reproduce the headline computations at desk scale.

Usage: python3 scripts/run_experiments.py [--order N]

Prints three short reports:
  1. the exact limit of (f - g) / (g^-1 - f^-1) for f = tan o sin, g = sin o tan,
  2. the same ratio for the flat counterexample pair, swept toward 0,
  3. how fast e^(-1/x) / x^n dies as x -> 0 for a few derivative orders n.
"""

import argparse
import os
import sys

from arnold_lab.elementary import eval_text
from arnold_lab.errors import ArnoldLabError
from arnold_lab.inversion import compositional_inverse
from arnold_lab.limits import arnold_ratio
from arnold_lab.numeric import counterexample_ratio, counterexample_sweep, flatness_check

E_INV = 0.36787944117144233


def headline(order: int) -> None:
    try:
        f = eval_text("tan o sin", order)
        g = eval_text("sin o tan", order)
        report = arnold_ratio(f, g)
    except ArnoldLabError as exc:  # one line and exit 3, as the command line does
        print(f"run_experiments.py: error: {exc}", file=sys.stderr)
        raise SystemExit(3) from None
    print(f"f = tan o sin, g = sin o tan, both to order {order}")
    print(f"  first divergence at N = {report.N}")
    print(f"  leading terms: {report.numerator_leading} over {report.denominator_leading}")
    print(f"  limit of (f - g)/(g^-1 - f^-1) at 0: {report.limit}")
    inverse = compositional_inverse(f).inverse
    shown = ", ".join(str(c) for c in inverse.coefficients[:8])
    print(f"  f^-1 starts {shown}, ... (equals arcsin o arctan exactly)")


def counterexample() -> None:
    print("flat pair: f = p^-1, g = q^-1 with q = x + x^2, p = q + e^(-1/|x|)")
    table = counterexample_sweep([10.0 ** -k for k in range(1, 7)])
    print(f"  {'x':>8}  {'AB/BC':>18}  {'BC/ED':>18}  flags")
    for row in table.rows:
        flags = ";".join(row.flags) or "-"
        print(f"  {row.x:8.1e}  {row.ratio_AB_BC:18.12f}  {row.ratio_BC_ED:18.12f}  {flags}")
    drift = abs(counterexample_ratio(1e-8) - E_INV)
    print(f"  closed form at t = 1e-8 sits {drift:.2e} from 1/e: the limit is e^-1, not 1")


def flatness() -> None:
    xs = [0.1, 0.05, 0.01, 0.005, 0.001]
    print("theta(x)/x^n along x -> 0 (all orders flatten):")
    header = "  ".join(f"{x:>9.3g}" for x in xs)
    print(f"  {'n':>3}  {header}")
    for n in (1, 5, 10, 20):
        row = "  ".join(f"{v:9.3e}" for v in flatness_check(n, xs))
        print(f"  {n:>3}  {row}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=12)
    args = parser.parse_args()
    try:
        headline(args.order)
        print()
        counterexample()
        print()
        flatness()
        sys.stdout.flush()
    except OSError as exc:  # one line and exit 4, as the command line does
        print(f"run_experiments.py: error: cannot write stdout: {exc.strerror or exc}",
              file=sys.stderr)
        # the exit-time flush of what is still buffered must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(4) from None


if __name__ == "__main__":
    main()
