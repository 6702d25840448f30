"""Floating-point verification of the geometric picture.

Everything symbolic lives elsewhere; this module samples actual doubles.
The one non-negotiable rule here: quantities that can be exponentially
flat (anything built from theta(x) = exp(-1/|x|)) are never divided as raw
doubles.  Each such quantity carries a log-magnitude channel and ratios
are formed by subtracting logs, so the sweep stays meaningful far below
the underflow threshold of double precision (|x| around 1/745).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable

from .errors import (
    BracketInvalid,
    ConfigurationViolated,
    InvalidInput,
    NotMonotone,
    Record,
)
from .inversion import compositional_inverse
from .series import TruncatedSeries

NAN = float("nan")

# numeric_inverse enforces |f(x) - y| <= RESIDUAL_TOL * max(1, |y|)
RESIDUAL_TOL = 1e-12


def theta(x: float) -> float:
    """The flat function: exp(-1/|x|) away from 0, and exactly 0 at 0."""
    if x == 0:
        return 0.0
    return math.exp(-1.0 / abs(x))


def log_theta(x: float) -> float:
    """log of theta; finite (-1/|x|) wherever theta itself underflows."""
    if x == 0:
        return float("-inf")
    return -1.0 / abs(x)


def _exp(z: float) -> float:
    """exp that saturates instead of raising on overflow."""
    try:
        return math.exp(z)
    except OverflowError:
        return float("inf")


# numeric functions

# p and q increase strictly here; both inverses of the flat pair are solved on it
FLAT_BRACKET = (0.0, 0.5)


def q(x: float) -> float:
    """q(x) = x + x^2."""
    return x + x * x


def p(x: float) -> float:
    """p(x) = q(x) + theta(x): same 2-jet as q, different germ."""
    return x + x * x + theta(x)


def check_increasing(fn: Callable[[float], float]) -> None:
    """Raise NotMonotone unless fn strictly increases along 10 001 evenly
    spaced points of FLAT_BRACKET, its ends included."""
    lo, hi = FLAT_BRACKET
    samples = 10_000
    previous = fn(lo)
    step = (hi - lo) / samples
    for i in range(1, samples + 1):
        value = fn(lo + i * step)
        if value <= previous:
            raise NotMonotone(f"{fn.__name__} is not strictly increasing near {lo + i * step}")
        previous = value


class SeriesFn:
    """Evaluate a truncated series in double precision (Horner).

    Its inverse is the exact reversion, built once and evaluated the same
    way.  bracket and log_partner are None: the sweep metadata then names
    no bracket, and geometric_sample takes the generic route.
    """

    bracket = None
    log_partner = None

    def __init__(self, series: TruncatedSeries):
        self.series = series
        self.label = f"series(order={series.order})"
        try:
            self._floats = tuple(float(c) for c in series.coefficients)
        except OverflowError:
            raise InvalidInput("a series coefficient is too large for a double") from None
        self._inverse: SeriesFn | None = None

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self._floats):
            acc = acc * x + c
        return acc

    def inverse(self) -> "SeriesFn":
        if self._inverse is None:
            self._inverse = SeriesFn(compositional_inverse(self.series).inverse)
        return self._inverse


class InverseFn:
    """base^(-1) for an increasing base such as p or q, solved by
    numeric_inverse on FLAT_BRACKET.  log_partner names the g for which
    the pair (self, g) has exact log-space channels; counterexample_pair
    sets it.
    """

    bracket = FLAT_BRACKET
    log_partner: "InverseFn | None" = None

    def __init__(self, base: Callable[[float], float]):
        self.base = base
        self.label = f"inverse({base.__name__})"

    def __call__(self, y: float) -> float:
        return numeric_inverse(self.base, y, FLAT_BRACKET)

    def inverse(self) -> Callable[[float], float]:
        return self.base


def numeric_inverse(f: Callable[[float], float], y: float, bracket: tuple[float, float]) -> float:
    """Solve f(x) = y on the bracket by secant-guided bracketing.

    f must be strictly monotone there.  Secant steps through the newest
    probe and the best earlier one are taken while they land strictly
    inside the bracket, then at most 8 gallop steps of ulp * 4^k from the
    end nearer the last estimate, then midpoints.  Each probe moves one
    end onto itself by bisection's rule, and the loop stops where bisection
    stops, at adjacent doubles: for f monotone on doubles the result is
    bisection's double, in about 9 evaluations of p or q instead of 67.
    The residual |f(x) - y| <= RESIDUAL_TOL * max(1, |y|) is then enforced; a
    residual failure or a probe value outside the endpoint range is
    reported as NotMonotone.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketInvalid(f"bracket ({lo}, {hi}) is empty")
    flo, fhi = f(lo), f(hi)
    increasing = fhi >= flo
    low_value, high_value = min(flo, fhi), max(flo, fhi)
    if not low_value <= y <= high_value:
        raise BracketInvalid(
            f"target {y} outside f(bracket) = [{low_value}, {high_value}]"
        )
    # (x1, f1) is the secant point nearer y, so the step taken from it does not cancel
    x0, f0, x1, f1 = (lo, flo, hi, fhi) if abs(fhi - y) <= abs(flo - y) else (hi, fhi, lo, flo)
    steps = None
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if steps is None:
            x = x1 - (f1 - y) * ((x1 - x0) / (f1 - f0)) if f1 != f0 else x1
            if not lo < x < hi:  # the secant stalled: gallop from the end nearer x
                origin, unit = (lo, math.ulp(lo)) if x - lo <= hi - x else (hi, -math.ulp(hi))
                steps = [unit * 4.0 ** k for k in range(8)]  # capped: a flat stall can be far off
        if steps is not None:
            x = origin + steps.pop(0) if steps else mid
            if not lo < x < hi:
                x = mid
        fx = f(x)
        if not low_value <= fx <= high_value:
            raise NotMonotone(f"sign anomaly at {x}: f outside endpoint range")
        if (fx < y) == increasing:
            lo = x
        else:
            hi = x
        x0, f0, x1, f1 = (x1, f1, x, fx) if abs(fx - y) <= abs(f1 - y) else (x, fx, x1, f1)
    x = 0.5 * (lo + hi)
    if abs(f(x) - y) > RESIDUAL_TOL * max(1.0, abs(y)):
        raise NotMonotone(
            f"inverse converged to {x} but |f(x) - y| exceeds tolerance; "
            "is f monotone on the bracket?"
        )
    return x


# geometric sampling


class GeometricSample(Record):
    """Lengths and ratios of the tangency picture at one abscissa.

    With A = (x, f(x)), B = (x, g(x)), C = (f_inv(g(x)), g(x)), D = (x, x),
    D' = (x, g_inv(x)), E = (x, f_inv(x)) and the convention
    F = (f_inv(g(x)), x):

        AB  = |f(x) - g(x)|         BC  = |x - f_inv(g(x))|
        ED  = |f_inv(x) - g_inv(x)| DDp = |x - g_inv(x)|    FDp = BC

    Ratio fields may be NaN when a length vanishes (flag "indeterminate");
    raw lengths print as 0 when only their log-space channel survives
    double-precision underflow (flag "logspace").
    """

    __slots__ = ("x", "AB", "BC", "ED", "DDp", "FDp", "ratio_AB_BC", "ratio_BC_ED",
                 "ratio_DDp_FDp", "log_ratio_DDp_FDp", "flags")
    _defaults = {"flags": ()}


# the CSV carries every field but ratio_DDp_FDp (its log column is exact
# where the ratio overflows), then the flags joined by ";"
CSV_COLUMNS = tuple(name for name in GeometricSample.__slots__
                    if name not in ("ratio_DDp_FDp", "flags"))
CSV_HEADER = ",".join(CSV_COLUMNS + ("flags",))


def _counterexample_sample(
    x: float, u: float, v: float, flags: list[str]
) -> GeometricSample:
    """Log-channel evaluation for the pair f = p_inv, g = q_inv.

    Structure gives exact identities that bypass catastrophic subtraction:
    with u = p_inv(x), v = t = q_inv(x) already evaluated by the caller:

        BC  = |x - p(t)|  = theta(t)          (because q(t) = x)
        ED  = |p(x) - q(x)| = theta(x)
        AB  = v - u = theta(u) / (1 + u + v)  (divided difference of q)
        DDp = |x - q(x)| = x^2                (g_inv is q itself)
        FDp = BC                              (F convention)
        BC/ED = exp(-1/(1 + v))   AB/BC = exp(-log1p(u + v) - AB/(u v))

    Where -1/u, -1/v or -1/x is not finite (x = 0, or a subnormal root)
    no channel survives in doubles, and the row comes back "unresolved".
    """
    log_u, log_bc, log_ed = log_theta(u), log_theta(v), log_theta(x)
    if not all(map(math.isfinite, (log_u, log_bc, log_ed))):
        return _flagged_row(x, "unresolved")
    log_ab = log_u - math.log1p(u + v)
    log_ddp = 2.0 * math.log(x)
    log_fdp = log_bc
    raw = [_exp(c) for c in (log_ab, log_bc, log_ed, log_fdp)]
    ab, bc, ed, fdp = raw
    ddp = x * x
    if any(value == 0.0 and math.isfinite(channel) for value, channel in
           zip(raw, (log_ab, log_bc, log_ed, log_fdp))):
        flags.append("logspace")
    # ab is 0 only where theta(u) underflowed; the term is then < 1e-300
    ratio_ab_bc = _exp(-math.log1p(u + v) - (ab / (u * v) if ab else 0.0))
    return GeometricSample(x, ab, bc, ed, ddp, fdp, ratio_ab_bc, counterexample_ratio(v),
                           _exp(log_ddp - log_fdp), log_ddp - log_fdp, tuple(flags))


def geometric_sample(
    f: "SeriesFn | InverseFn", g: "SeriesFn | InverseFn", x: float
) -> GeometricSample:
    """All lengths and ratios of the picture at abscissa x.

    Valid configurations, with f(x) and g(x) finite: f(x) = g(x) (ratios
    indeterminate), or f(x) and g(x) on the same side of the diagonal with
    g strictly off it: the f > g > id picture and its mirror image
    f < g < id, where the counterexample pair lives.  A pair with
    f.log_partner set to g takes its lengths from log-space identities
    instead of subtracting doubles.
    """
    fx = f(x)
    gx = g(x)
    if not (math.isfinite(fx) and math.isfinite(gx)):
        raise ConfigurationViolated(f"f(x) = {fx}, g(x) = {gx} at x = {x}; both must be finite")
    flags: list[str] = []
    if gx == x and fx != gx:
        raise ConfigurationViolated(f"g(x) = x at x = {x}; the picture degenerates")
    if fx != gx:
        if (fx > gx) != (gx > x):
            raise ConfigurationViolated(
                f"need f(x) > g(x) > x or the mirror image at x = {x}; "
                f"got f(x) = {fx}, g(x) = {gx}"
            )
        if fx < gx:
            flags.append("mirrored")

    if f.log_partner is g:
        return _counterexample_sample(x, fx, gx, flags)

    f_inv = f.inverse()
    g_inv = g.inverse()
    ab = abs(fx - gx)
    bc = abs(x - f_inv(gx))
    g_inv_x = g_inv(x)
    ed = abs(f_inv(x) - g_inv_x)
    ddp = abs(x - g_inv_x)
    fdp = bc
    if fx == gx:
        flags.append("indeterminate")
        ratio_ab_bc = ratio_bc_ed = NAN
    else:
        ratio_ab_bc = ab / bc if bc != 0.0 else NAN
        ratio_bc_ed = bc / ed if ed != 0.0 else NAN
    ratio_ddp_fdp = ddp / fdp if fdp != 0.0 else NAN
    log_ratio = math.log(ddp) - math.log(fdp) if ddp > 0.0 and fdp > 0.0 else NAN
    return GeometricSample(x, ab, bc, ed, ddp, fdp, ratio_ab_bc, ratio_bc_ed,
                           ratio_ddp_fdp, log_ratio, tuple(flags))


def counterexample_ratio(t: float, side: str = "right") -> float:
    """theta(t) / theta(t + t^2) for t > 0, entirely in log space.

    The log difference is log_theta(t) - log_theta(t + t^2)
    = -1/t + 1/(t + t^2), which telescopes exactly to -1/(1 + t); using the
    telescoped form avoids cancellation between two huge logs, so the
    value is accurate down to t = 1e-12 and visibly converges to 1/e.
    For side="left" the same reduction at -t gives +1/(1 - t), which tends
    to e instead; it is computed on request and no limit is asserted.
    """
    if not 0.0 < t < 1.0:
        raise InvalidInput(f"counterexample_ratio needs 0 < t < 1, got {t}")
    if side == "right":
        return math.exp(-1.0 / (1.0 + t))
    if side == "left":
        return math.exp(1.0 / (1.0 - t))
    raise InvalidInput(f"side must be 'right' or 'left', got {side!r}")


def flatness_check(n: int, xs: list[float] | tuple[float, ...]) -> list[float]:
    """theta(x) / x^n for each x, formed in log space.

    Positive for every x > 0, yet eventually decreasing to 0 as x -> 0 for
    every fixed n: the sampling shadow of all derivatives of theta
    vanishing at the origin.
    """
    if not 1 <= n <= 40:
        raise InvalidInput(f"flatness_check supports 1 <= n <= 40, got {n}")
    for x in xs:
        if not 0.0 < x < 1.0:
            raise InvalidInput(f"flatness_check needs x in (0, 1), got {x}")
    return [_exp(-1.0 / x - n * math.log(x)) for x in xs]


# sweeps


class SweepTable(Record):
    """Rows of GeometricSample at strictly decreasing abscissas.

    bracket is f's, when it has one; the JSON metadata then gives beside it
    RESIDUAL_TOL, the tolerance of the inverses numeric_inverse solves there.
    """

    __slots__ = ("rows", "f_label", "g_label", "bracket")
    _defaults = {"bracket": None}

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            cells = ["%.17g" % getattr(r, name) for name in CSV_COLUMNS]
            cells.append(";".join(r.flags))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "metadata": {
                "f": self.f_label,
                "g": self.g_label,
                "bracket": list(self.bracket) if self.bracket else None,
                "tol": RESIDUAL_TOL if self.bracket else None,
            },
            "rows": [{"x": r.x, "AB": r.AB, "BC": r.BC, "ED": r.ED, "DDp": r.DDp, "FDp": r.FDp,
                      "ratio_AB_BC": r.ratio_AB_BC, "ratio_BC_ED": r.ratio_BC_ED,
                      "ratio_DDp_FDp": r.ratio_DDp_FDp, "log_ratio_DDp_FDp": r.log_ratio_DDp_FDp,
                      "flags": list(r.flags)} for r in self.rows],
        }


def thread_cap(row_count: int) -> int:
    """The validated ARNOLD_LAB_THREADS, or 1 when it is unset.

    Sweeps run sequentially whatever the value, and row_count is ignored;
    the variable is still checked so that a malformed one is rejected.
    """
    raw = os.environ.get("ARNOLD_LAB_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidInput(
            f"ARNOLD_LAB_THREADS must be a positive integer, got {raw!r}"
        )
    return value


def _flagged_row(x: float, flag: str) -> GeometricSample:
    return GeometricSample(x, *(NAN,) * 9, (flag,))


def sweep(
    f: "SeriesFn | InverseFn",
    g: "SeriesFn | InverseFn",
    xs: list[float] | tuple[float, ...],
) -> SweepTable:
    """One GeometricSample per abscissa, in input order, evaluated one
    after another; per-row failures become flags."""
    xs = [float(x) for x in xs]
    if not xs:
        raise InvalidInput("sweep needs at least one abscissa")
    if any(a <= b for a, b in zip(xs, xs[1:])):
        raise InvalidInput("sweep abscissas must be strictly decreasing")

    def row(x: float) -> GeometricSample:
        try:
            return geometric_sample(f, g, x)
        except ConfigurationViolated:
            return _flagged_row(x, "configuration_violated")
        except (BracketInvalid, NotMonotone):
            return _flagged_row(x, "unresolved")

    rows = [row(x) for x in xs]
    return SweepTable(
        rows=tuple(rows),
        f_label=f.label,
        g_label=g.label,
        bracket=f.bracket,
    )


def counterexample_pair() -> tuple[InverseFn, InverseFn]:
    """The C-infinity pair: f = p_inv, g = q_inv with p = q + theta.

    p and q are explicit; f and g are solved by numeric_inverse, which is why
    the pair is built on the inverse side.  Each call first checks that p
    and q increase on FLAT_BRACKET, where both are solved to RESIDUAL_TOL.
    f.log_partner is g, so geometric_sample evaluates this pair in log space.
    """
    check_increasing(p)
    check_increasing(q)
    f, g = InverseFn(p), InverseFn(q)
    f.log_partner = g
    return f, g


def counterexample_sweep(t_values: list[float] | tuple[float, ...]) -> SweepTable:
    """Sweep the counterexample pair at abscissas x = q(t), t decreasing."""
    f, g = counterexample_pair()
    return sweep(f, g, [q(float(t)) for t in t_values])
