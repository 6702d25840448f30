"""Output checks for the three workloads.

Each check takes what the benchmark asked for and what the program
printed, and returns a list of problems; an empty list means the output
is right.  Reference values come from oracle.py, never from arnold_lab.

Tolerances are rounding allowances derived from how a double-precision
result can err, not fitted to observed errors:

* series_sweep evaluates truncated polynomials near x with Horner's rule,
  so every length is off by a few units in the last place of x
  (ULP_ALLOWANCE of them); a ratio is allowed the relative error of its
  two lengths.
* flat_sweep forms exp(-1/t)-sized values from bisected abscissas, so
  the exponent carries an absolute error of a few eps/t and every value a
  relative one of FLAT_ALLOWANCE * eps * (1 + 1/t).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import mpmath

import oracle

EPS = 2.0**-52
TINY = 2.0**-1074
ULP_ALLOWANCE = 16
FLAT_ALLOWANCE = 16

COLUMNS = ("x", "AB", "BC", "ED", "DDp", "FDp", "ratio_AB_BC", "ratio_BC_ED", "log_ratio_DDp_FDp")
CSV_HEADER = ",".join(COLUMNS) + ",flags"


def _rational(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _series(obj, order: int) -> list[Fraction]:
    coefficients = [_rational(c) for c in obj["coefficients"]]
    if obj["order"] != order or len(coefficients) != order + 1:
        raise ValueError(f"series of order {obj['order']} with {len(coefficients)} coefficients, wanted order {order}")
    return coefficients


# exact_limit


class LimitReference:
    """Oracle expansions for one (pair, order), computed once and reused."""

    def __init__(self, f: tuple[str, ...], g: tuple[str, ...], order: int):
        self.f, self.g, self.order = f, g, order
        self.f_series = oracle.expand(f, order)
        self.g_series = oracle.expand(g, order)
        self.N = oracle.first_divergence(self.f_series, self.g_series)
        self.leading = self.f_series[self.N] - self.g_series[self.N]


def check_limit(ref: LimitReference, x_eval: Fraction, stdout: bytes) -> list[str]:
    try:
        report = json.loads(stdout)
        n = report["N"]
        num = _rational(report["numerator_leading"])
        den = _rational(report["denominator_leading"])
        limit = _rational(report["limit"])
        inverses = {
            "f_inverse": (ref.f, ref.f_series, _series(report["f_inverse"], ref.order)),
            "g_inverse": (ref.g, ref.g_series, _series(report["g_inverse"], ref.order)),
        }
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable limit report: {exc!r}"]
    problems = []
    if limit != 1:
        problems.append(f"limit is {limit}, the lemma says 1")
    if num != den:
        problems.append(f"numerator_leading {num} != denominator_leading {den}")
    if n != ref.N:
        problems.append(f"N = {n}, the first differing Taylor coefficient is {ref.N}")
    if num != ref.leading:
        problems.append(f"numerator_leading {num}, the Taylor coefficients differ by {ref.leading}")
    identity = [Fraction(0), Fraction(1)] + [Fraction(0)] * (ref.order - 1)
    for key, (names, forward, inverse) in inverses.items():
        if oracle.compose(forward, inverse, ref.order) != identity:
            problems.append(f"{key}: composing the expression with it is not x + O(x^{ref.order + 1})")
        value = oracle.horner(inverse, x_eval)
        # the remainder is near x^(order+1); resolve it with digits to spare
        with mpmath.workdps(2 * ref.order + 20):
            x_mp = mpmath.mpf(x_eval.numerator) / x_eval.denominator
            error = abs(mpmath.mpf(value.numerator) / value.denominator - oracle.mp_inverse(names, x_mp))
            bound = oracle.remainder_bound(names, ref.order, x_mp)
            if not error <= bound:
                problems.append(
                    f"{key}({x_eval}) is {mpmath.nstr(error, 5)} from mpmath, "
                    f"beyond the truncation remainder {mpmath.nstr(bound, 5)}"
                )
    return problems


# sweep tables


def parse_table(stdout: bytes, fmt: str) -> list[dict]:
    """Rows as dicts of floats plus a "flags" tuple, from CSV or JSON."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        rows = json.loads(text)["rows"]
        for row in rows:
            row["flags"] = tuple(row["flags"])
        return rows
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"CSV header is {lines[:1]!r}")
    rows = []
    for fields in csv.reader(io.StringIO("\n".join(lines[1:]) + "\n")):
        if len(fields) != len(COLUMNS) + 1:
            raise ValueError(f"CSV row with {len(fields)} fields")
        row = {name: float(value) for name, value in zip(COLUMNS, fields)}
        row["flags"] = tuple(fields[-1].split(";")) if fields[-1] else ()
        rows.append(row)
    return rows


def _close(got: float, want, tol) -> bool:
    """got within tol of want; infinities must match exactly."""
    if math.isinf(got) or math.isnan(got):
        return got == want
    return abs(mpmath.mpf(got) - want) <= tol


def _report(problems: list[str], index: int, row: dict, name: str, want, tol) -> None:
    got = row.get(name)
    if got is None or not _close(got, want, tol):
        problems.append(
            f"row {index} (x = {row.get('x')!r}): {name} = {got!r}, "
            f"expected {mpmath.nstr(want, 17)} within {mpmath.nstr(tol, 3)}"
        )


def _rows_or_problem(stdout: bytes, fmt: str, count: int) -> tuple[list[dict], list[str]]:
    try:
        rows = parse_table(stdout, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [], [f"unreadable {fmt} table: {exc!r}"]
    if len(rows) != count:
        return [], [f"{len(rows)} rows, asked for {count}"]
    return rows, []


# flat_sweep


def check_counterexample(ts: list[float], fmt: str, stdout: bytes, limit: int = 5) -> list[str]:
    """Rows of the flat pair at t = ts (descending), against mpmath."""
    rows, problems = _rows_or_problem(stdout, fmt, len(ts))
    with mpmath.workdps(50):
        for index, (t, row) in enumerate(zip(ts, rows)):
            if len(problems) >= limit:
                break
            _check_flat_row(problems, index, t, row)
    return problems


def _flat_value(value):
    """A positive value as a double prints it: 0 below half the least subnormal."""
    return value if value >= TINY / 2 else mpmath.mpf(0)


def _check_flat_row(problems: list[str], index: int, t: float, row: dict) -> None:
    x_grid = t + t * t
    if not abs(row["x"] - x_grid) <= 2 * EPS * x_grid:
        problems.append(f"row {index}: x = {row['x']!r}, the grid gives q({t!r}) = {x_grid!r}")
        return
    x = mpmath.mpf(row["x"])
    u, tq = oracle.flat_inverses(x)
    # AB = t - u: from q(t) - q(u) = p(u) - q(u) = exp(-1/u)
    log_ab = -1 / u - mpmath.log(1 + u + tq)
    log_bc = -1 / tq
    log_ed = -1 / x
    rel = FLAT_ALLOWANCE * EPS * (1 + 1 / t)
    raw = {
        "AB": mpmath.exp(log_ab),
        "BC": mpmath.exp(log_bc),
        "ED": mpmath.exp(log_ed),
        "FDp": mpmath.exp(log_bc),
    }
    for name, value in raw.items():
        _report(problems, index, row, name, _flat_value(value), rel * value + TINY)
    _report(problems, index, row, "DDp", x * x, 4 * EPS * x * x)
    ratio_bc_ed = mpmath.exp(log_bc - log_ed)
    log_ddp_fdp = 2 * mpmath.log(x) - log_bc
    _report(problems, index, row, "ratio_AB_BC", mpmath.exp(log_ab - log_bc), rel * mpmath.exp(log_ab - log_bc))
    _report(problems, index, row, "ratio_BC_ED", ratio_bc_ed, rel * ratio_bc_ed)
    _report(problems, index, row, "log_ratio_DDp_FDp", log_ddp_fdp, rel * abs(log_ddp_fdp))
    if "ratio_DDp_FDp" in row:
        want = mpmath.exp(log_ddp_fdp)
        _report(problems, index, row, "ratio_DDp_FDp", want if want <= 1.7976931348623157e308 else mpmath.inf, rel * want)
    if not abs(mpmath.mpf(row["ratio_BC_ED"]) - mpmath.exp(-1)) <= 0.4 * t:
        problems.append(f"row {index}: |ratio_BC_ED - 1/e| > 0.4 * t at t = {t!r}")
    # u < t always holds, but once exp(-1/u) is below an ulp of t the two
    # bisections meet and "mirrored" is rightly absent
    flags = set(row["flags"])
    if not flags <= {"mirrored", "logspace"}:
        problems.append(f"row {index}: flags {sorted(flags)}, only mirrored and logspace may appear")
    if ("logspace" in flags) != any(row[name] == 0.0 for name in raw):
        problems.append(f"row {index}: logspace flag does not match the underflowed columns")


# series_sweep


class SweepReference:
    """The program's truncated polynomials for one pair, computed apart."""

    def __init__(self, f: tuple[str, ...], g: tuple[str, ...], order: int):
        self.f, self.g, self.order = f, g, order
        f_series = oracle.expand(f, order)
        g_series = oracle.expand(g, order)
        with mpmath.workdps(40):
            self.polys = [
                [mpmath.mpf(c.numerator) / c.denominator for c in coefficients]
                for coefficients in (
                    f_series,
                    g_series,
                    oracle.revert(f_series, order),
                    oracle.revert(g_series, order),
                )
            ]


def check_sweep(ref: SweepReference, xs: list[float], fmt: str, stdout: bytes, limit: int = 5) -> list[str]:
    """Rows of an analytic pair at abscissas xs (descending), against mpmath."""
    rows, problems = _rows_or_problem(stdout, fmt, len(xs))
    f, g, f_inv, g_inv = ref.polys
    with mpmath.workdps(40):
        for index, (x_grid, row) in enumerate(zip(xs, rows)):
            if len(problems) >= limit:
                break
            if not abs(row["x"] - x_grid) <= 4 * EPS * x_grid:
                problems.append(f"row {index}: x = {row['x']!r}, the grid gives {x_grid!r}")
                continue
            x = mpmath.mpf(row["x"])
            fx, gx = oracle.horner(f, x), oracle.horner(g, x)
            lengths = {
                "AB": abs(fx - gx),
                "BC": abs(x - oracle.horner(f_inv, gx)),
                "ED": abs(oracle.horner(f_inv, x) - oracle.horner(g_inv, x)),
                "DDp": abs(x - oracle.horner(g_inv, x)),
            }
            lengths["FDp"] = lengths["BC"]
            slack = ULP_ALLOWANCE * math.ulp(row["x"])
            for name, value in lengths.items():
                _report(problems, index, row, name, value, slack)
            ratios = {
                "ratio_AB_BC": ("AB", "BC"),
                "ratio_BC_ED": ("BC", "ED"),
                "ratio_DDp_FDp": ("DDp", "FDp"),
            }
            for name, (top, bottom) in ratios.items():
                if name in row:
                    want = lengths[top] / lengths[bottom]
                    tol = want * (slack / lengths[top] + slack / lengths[bottom] + 4 * EPS)
                    _report(problems, index, row, name, want, tol)
            want = mpmath.log(lengths["DDp"]) - mpmath.log(lengths["FDp"])
            tol = slack / lengths["DDp"] + slack / lengths["FDp"] + 4 * EPS * abs(want)
            _report(problems, index, row, "log_ratio_DDp_FDp", want, tol)
            expected = {"mirrored"} if fx < gx else set()
            if set(row["flags"]) != expected:
                problems.append(f"row {index}: flags {sorted(row['flags'])}, expected {sorted(expected)}")
    return problems
