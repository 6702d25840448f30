"""Show that the output checks are not vacuous.

    python3 clibench/selftest.py

Runs the program once per workload on a small input, requires the real
output to pass its check, then corrupts it (a limit of 2/1, a flat row
whose ratio_BC_ED is off by 1e-3, a series row with AB and BC swapped)
and requires the check to reject each corruption for that reason.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import child_env  # noqa: E402
from workloads import log_spaced  # noqa: E402

HEADLINE = (("tan", "sin"), ("sin", "tan"))


def program(*argv: str) -> bytes:
    command = [sys.executable, "-m", "arnold_lab", *argv]
    return subprocess.run(command, capture_output=True, check=True, env=child_env()).stdout


def corrupt_limit(stdout: bytes) -> bytes:
    report = json.loads(stdout)
    report["limit"] = {"num": "2", "den": "1"}
    return json.dumps(report).encode()


def corrupt_csv(stdout: bytes, row: int, edit) -> bytes:
    lines = stdout.decode().splitlines()
    fields = lines[row + 1].split(",")
    edit(fields)
    lines[row + 1] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def nudge_ratio(fields: list[str]) -> None:
    column = checks.COLUMNS.index("ratio_BC_ED")
    fields[column] = "%.17g" % (float(fields[column]) + 1e-3)


def swap_ab_bc(fields: list[str]) -> None:
    ab, bc = checks.COLUMNS.index("AB"), checks.COLUMNS.index("BC")
    fields[ab], fields[bc] = fields[bc], fields[ab]


def main() -> int:
    (f, g), order, x_eval = HEADLINE, 12, Fraction(1, 20)
    limit_out = program("limit", "--f", "tan o sin", "--g", "sin o tan", "--order", str(order))
    limit_check = lambda out: checks.check_limit(checks.LimitReference(f, g, order), x_eval, out)  # noqa: E731

    ts = log_spaced(1e-6, 1e-1, 20)
    flat_out = program("counterexample", "--t-min", "1e-6", "--t-max", "1e-1", "--points", "20")
    flat_check = lambda out: checks.check_counterexample(ts, "csv", out)  # noqa: E731

    xs = log_spaced(0.05, 0.4, 20)
    sweep_out = program(
        "sweep", "--f", "tan o sin", "--g", "sin o tan",
        "--x-min", "0.05", "--x-max", "0.4", "--points", "20", "--order", "12",
    )
    sweep_check = lambda out: checks.check_sweep(checks.SweepReference(f, g, 12), xs, "csv", out)  # noqa: E731

    cases = [
        ("limit of 2/1", limit_check, limit_out, corrupt_limit(limit_out), "limit is 2"),
        ("flat ratio_BC_ED + 1e-3", flat_check, flat_out,
         corrupt_csv(flat_out, 19, nudge_ratio), "ratio_BC_ED"),
        ("series AB <-> BC", sweep_check, sweep_out,
         corrupt_csv(sweep_out, 10, swap_ab_bc), "): AB = "),
    ]
    ok = True
    for name, check, real, corrupted, reason in cases:
        clean = check(real)
        caught = check(corrupted)
        passed = not clean and any(reason in problem for problem in caught)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: real output {clean or 'passes'}; corrupted: {caught[:2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
