"""Time the exact kernels over an order ladder.

Usage: python3 scripts/bench_kernels.py --out FILE [--orders 12,24,40,64,96]

With arnold_lab importable (PYTHONPATH=src), each kernel runs at every
order of the ladder; its time is the process CPU time of the best of 3
runs.  The kernels are

  eval_text_limit_pairs    eval_text of both sides of the four limit pairs
                           the benchmark's exact_limit workload runs
  compositional_inverse    reversion of tan o sin
  arnold_ratio             the limit of tan o sin against sin o tan
  sweep_rows               the CSV text of a 3000-row sweep of tan o sin
                           against sin o tan, x log-spaced in [0.05, 0.4]: the
                           sweep rows per second; both SeriesFns and their
                           inverses are built outside the timing

FILE gets the times, the largest coefficient of the inverse in bits, and
per kernel the slope of the least-squares line through
(log order, log time): the scaling exponent.  A table goes to stdout.

FILE also gets "startup": the median CPU time (user + system, from
os.wait4) of 11 fresh `python -c pass`, `python -c "import arnold_lab"`,
`python -c "import arnold_lab.cli"` and `python -c "import arnold_lab.cli,
arnold_lab.numeric"` processes, and of ones running cli.console_main on a
one-point counterexample written to os.devnull, and of a `python -S`
process running cli.console_main on `limit --f "tan o sin" --g "sin o tan"
--order 24`, every child's stdout on os.devnull, run alternately after one
unrecorded run of each.  The children write their bytecode to a private PYTHONPYCACHEPREFIX
in a temporary directory, with PYTHONDONTWRITEBYTECODE unset, so the
unrecorded run fills the cache and the recorded ones read it.  Every
subcommand pays the import of arnold_lab.cli; counterexample and sweep
also load arnold_lab.numeric, which limit, eval and invert never do.  The
one-point counterexample adds to that the parse of its command line and
the writing of one row.  The limit probe runs without site, whose .pth
hooks can load modules (re, enum) before the program does and so hide
what its own imports cost.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time

import arnold_lab
from arnold_lab.cli import _log_spaced
from arnold_lab.elementary import eval_text
from arnold_lab.inversion import compositional_inverse
from arnold_lab.limits import arnold_ratio
from arnold_lab.numeric import SeriesFn, sweep

LIMIT_PAIRS = (("tan o sin", "sin o tan"), ("arcsin o arctan", "arctan o arcsin"),
               ("tan o arcsin", "arcsin o tan"), ("arctan o sin", "sin o arctan"))
REPEATS = 3
STARTUP_RUNS = 11
SWEEP_XS = _log_spaced(0.05, 0.4, 3000)  # the widest grid of the series_sweep workload
ONE_POINT_COUNTEREXAMPLE = (
    "import os; from arnold_lab.cli import console_main; "
    "raise SystemExit(console_main(['counterexample', '--t-min', '0.05', '--t-max', '0.1', "
    "'--points', '1', '--out', os.devnull]))"
)
# run under python -S, so no site hook's imports hide the program's own
LIMIT_NO_SITE = (
    "from arnold_lab.cli import console_main; "
    "raise SystemExit(console_main(['limit', '--f', 'tan o sin', '--g', 'sin o tan', "
    "'--order', '24']))"
)


def best_cpu_seconds(run) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        run()
        times.append(time.process_time() - start)
    return min(times)


def kernels(order: int) -> dict:
    """Each kernel as a call with its inputs built outside the timing."""
    f = eval_text("tan o sin", order)
    g = eval_text("sin o tan", order)
    texts = [text for pair in LIMIT_PAIRS for text in pair]
    f_fn, g_fn = SeriesFn(f), SeriesFn(g)
    f_fn.inverse(), g_fn.inverse()  # each reverts once and keeps its inverse
    return {
        "eval_text_limit_pairs": lambda: [eval_text(text, order) for text in texts],
        "compositional_inverse": lambda: compositional_inverse(f),
        "arnold_ratio": lambda: arnold_ratio(f, g),
        "sweep_rows": lambda: "".join(sweep(f_fn, g_fn, SWEEP_XS).pieces("csv")),
    }


def scaling_exponent(orders: list[int], seconds: list[float]) -> float:
    xs = [math.log(n) for n in orders]
    ys = [math.log(t) for t in seconds]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - x_mean) ** 2 for x in xs)
    return sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / spread


def coefficient_bits(order: int) -> int:
    inverse = compositional_inverse(eval_text("tan o sin", order)).inverse
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in inverse.coefficients)


def child_cpu_seconds(flags: list[str], code: str, env: dict) -> float:
    """CPU seconds of python FLAGS -c CODE, its stdout on os.devnull."""
    pid = os.posix_spawn(sys.executable, [sys.executable, *flags, "-c", code], env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"python {' '.join(flags)} -c {code!r} failed")
    return usage.ru_utime + usage.ru_stime


def startup() -> dict:
    """Median CPU seconds of a bare interpreter and of ones importing arnold_lab."""
    src = os.path.dirname(os.path.dirname(arnold_lab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    codes = {"python_pass_s": ([], "pass"), "import_arnold_lab_s": ([], "import arnold_lab"),
             "import_arnold_lab_cli_s": ([], "import arnold_lab.cli"),
             "import_arnold_lab_cli_numeric_s": ([], "import arnold_lab.cli, arnold_lab.numeric"),
             "counterexample_one_point_s": ([], ONE_POINT_COUNTEREXAMPLE),
             "limit_order_24_no_site_s": (["-S"], LIMIT_NO_SITE)}
    times: dict[str, list[float]] = {name: [] for name in codes}
    with tempfile.TemporaryDirectory() as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        for run in range(STARTUP_RUNS + 1):
            for name, (flags, code) in codes.items():
                seconds = child_cpu_seconds(flags, code, env)
                if run:  # the first run of each writes the bytecode cache
                    times[name].append(seconds)
    return {
        "clock": f"CPU time of a fresh process, median of {STARTUP_RUNS}",
        "bytecode": "a private PYTHONPYCACHEPREFIX, filled by one unrecorded run; "
                    "PYTHONDONTWRITEBYTECODE unset",
        **{name: round(statistics.median(seconds), 4) for name, seconds in times.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--orders", default="12,24,40,64,96",
                        help="comma-separated, at least two distinct orders >= 7")
    args = parser.parse_args()
    try:
        orders = sorted({int(part) for part in args.orders.split(",")})
    except ValueError:
        parser.error(f"--orders must be comma-separated integers, got {args.orders!r}")
    # tan o sin and sin o tan first differ at x^7, and order 7 resolves the limit
    if len(orders) < 2 or orders[0] < 7:
        parser.error("--orders needs at least two distinct orders >= 7")

    times: dict[str, list[float]] = {}
    for order in orders:
        for name, run in kernels(order).items():
            times.setdefault(name, []).append(float(f"{best_cpu_seconds(run):.4g}"))
    result = {
        "clock": f"process CPU time in seconds, best of {REPEATS}",
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "orders": orders,
        "inverse_max_coeff_bits": [coefficient_bits(order) for order in orders],
        "kernels": {
            name: {"seconds": seconds, "exponent": round(scaling_exponent(orders, seconds), 3)}
            for name, seconds in times.items()
        },
        "startup": startup(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    print(f"{'kernel':<26}" + "".join(f"{n:>10}" for n in orders) + "  exponent")
    for name, entry in result["kernels"].items():
        cells = "".join(f"{1e3 * t:>8.2f}ms" for t in entry["seconds"])
        print(f"{name:<26}{cells}  {entry['exponent']:.2f}")
    start = result["startup"]
    print(f"startup: python -c pass {1e3 * start['python_pass_s']:.1f}ms, "
          f"import arnold_lab {1e3 * start['import_arnold_lab_s']:.1f}ms, "
          f"import arnold_lab.cli {1e3 * start['import_arnold_lab_cli_s']:.1f}ms, "
          f"+ numeric {1e3 * start['import_arnold_lab_cli_numeric_s']:.1f}ms, "
          f"one-point counterexample {1e3 * start['counterexample_one_point_s']:.1f}ms, "
          f"limit --order 24 under -S {1e3 * start['limit_order_24_no_site_s']:.1f}ms")


if __name__ == "__main__":
    main()
