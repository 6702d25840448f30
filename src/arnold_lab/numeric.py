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
from collections.abc import Callable, Iterator
from itertools import islice

from .errors import InvalidInput, Record

NAN = float("nan")

# numeric_inverse enforces |f(x) - y| <= RESIDUAL_TOL * max(1, |y|)
RESIDUAL_TOL = 1e-12

# a gap subtracted from doubles near x is off by up to about 16 ulps of x;
# under this many ulps a ratio of two gaps can be off by more than 1e-3
GAP_FLOOR_ULPS = 2.0 ** 15


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

# p and q increase strictly here (a test checks it); the flat inverses are solved on it
FLAT_BRACKET = (0.0, 0.5)


def q(x: float) -> float:
    """q(x) = x + x^2."""
    return x + x * x


def p(x: float) -> float:
    """p(x) = q(x) + theta(x): same 2-jet as q, different germ."""
    return x + x * x + theta(x)


# base(FLAT_BRACKET) for the flat pair's two bases, which numeric_inverse tests every target against
_P_IMAGE = (p(FLAT_BRACKET[0]), p(FLAT_BRACKET[1]))
_Q_IMAGE = (q(FLAT_BRACKET[0]), q(FLAT_BRACKET[1]))


class SeriesFn:
    """Evaluate a series.TruncatedSeries in double precision (Horner).

    Its inverse is the exact reversion, built once and evaluated the same
    way.  bracket is None: the sweep metadata then names no bracket.
    """

    bracket = None

    def __init__(self, series):
        self.series = series
        self.label = f"series(order={series.order})"
        try:
            self._horner = tuple(float(c) for c in reversed(series.coefficients))
        except OverflowError:
            raise InvalidInput("a series coefficient is too large for a double") from None
        self._inverse: SeriesFn | None = None

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in self._horner:
            acc = acc * x + c
        return acc

    def inverse(self) -> "SeriesFn":
        if self._inverse is None:
            from .inversion import compositional_inverse  # only a series pair loads the exact side

            self._inverse = SeriesFn(compositional_inverse(self.series).inverse)
        return self._inverse


class InverseFn:
    """base^(-1) for base p or q: a label and an inverse, never evaluated;
    geometric_sample solves the flat pair's roots itself, by numeric_inverse."""

    bracket = FLAT_BRACKET

    def __init__(self, base: Callable[[float], float]):
        self.base = base
        self.label = f"inverse({base.__name__})"

    def inverse(self) -> Callable[[float], float]:
        return self.base


def numeric_inverse(base: Callable[[float], float], y: float) -> float:
    """base^(-1)(y) on FLAT_BRACKET, for base q or p = q + theta.

    v = q^(-1)(y) is the quadratic's root 2y / (1 + sqrt(1 + 4y)), which
    does not cancel, corrected by one Newton step on q.  For p, the root u
    solves u - v + theta(u) / (1 + u + v) = 0, since q(v) - q(u) = theta(u);
    Newton's method runs on that from u = v and stops once a step does not
    strictly shrink, so it ends, in at most 6 steps on the bracket, with
    u <= v.  The root is NaN for a target outside base(FLAT_BRACKET), and
    for one that misses the residual |base(x) - y| <= RESIDUAL_TOL * max(1, |y|)
    (a base other than p or q).
    """
    lo, hi = _P_IMAGE if base is p else _Q_IMAGE if base is q else map(base, FLAT_BRACKET)
    if not lo <= y <= hi:
        return NAN
    v = 2.0 * y / (1.0 + math.sqrt(1.0 + 4.0 * y))
    v -= (q(v) - y) / (1.0 + 2.0 * v)
    x, last = v, math.inf
    while base is p and (th := theta(x)) > 0.0:  # where theta(x) underflows, x = v solves p
        s = 1.0 + x + v
        step = (x - v + th / s) / (1.0 + (th / x / x - th / s) / s)
        if not abs(step) < last:
            break
        x, last = x - step, abs(step)
    if abs(base(x) - y) > RESIDUAL_TOL * max(1.0, abs(y)):
        return NAN
    return x


# geometric sampling


class GeometricSample(Record):
    """Lengths and ratios of the tangency picture at one abscissa.

    With A = (x, f(x)), B = (x, g(x)), C = (f_inv(g(x)), g(x)), D = (x, x),
    D' = (x, g_inv(x)), E = (x, f_inv(x)) and the convention
    F = (f_inv(g(x)), x):

        AB  = |f(x) - g(x)|         BC  = |x - f_inv(g(x))|
        ED  = |f_inv(x) - g_inv(x)| DDp = |x - g_inv(x)|    FDp = BC

    Ratio fields may be NaN when a length vanishes (flag "indeterminate").
    A row that cannot be sampled is still a row, never an exception: it is
    flagged "unresolved" or "configuration_violated", and every field but x
    and flags is NaN.  Raw lengths print as 0 when only their
    log-space channel survives double-precision underflow (flag "logspace").
    """

    _fields = ("x", "AB", "BC", "ED", "DDp", "FDp", "ratio_AB_BC", "ratio_BC_ED",
               "ratio_DDp_FDp", "log_ratio_DDp_FDp", "flags")


# the CSV carries every field but ratio_DDp_FDp (its log column is exact
# where the ratio overflows), then the flags joined by ";"
CSV_COLUMNS = tuple(name for name in GeometricSample._fields
                    if name not in ("ratio_DDp_FDp", "flags"))
CSV_HEADER = ",".join(CSV_COLUMNS + ("flags",))
# BC and FDp take text: FDp = BC in every sampled row, so BC is formatted once
_TEXT_FIELDS = ("BC", "FDp")
_CSV_ROW = ",".join("%s" if name in _TEXT_FIELDS else "%.17g" for name in CSV_COLUMNS) + ",%s\n"

# a JSON row as json.dumps writes it: every field in order, a finite float as
# float.__repr__ (%r), and the flags as a list of strings
_JSON_ROW = ", ".join(f'"{name}": %{"s" if name in _TEXT_FIELDS else "r"}'
                      for name in GeometricSample._fields[:-1])


def _csv_row(row: GeometricSample) -> str:
    x, ab, bc, ed, ddp, fdp, ratio_ab_bc, ratio_bc_ed, _, log_ratio, flags = row
    bc_text = "%.17g" % bc
    fdp_text = bc_text if fdp is bc else "%.17g" % fdp
    return _CSV_ROW % (x, ab, bc_text, ed, ddp, fdp_text, ratio_ab_bc, ratio_bc_ed, log_ratio,
                       ";".join(flags))


def _json_row(row: GeometricSample) -> str:
    x, ab, bc, ed, ddp, fdp, ratio_ab_bc, ratio_bc_ed, ratio_ddp_fdp, log_ratio, flags = row
    bc_text = repr(bc)
    fdp_text = bc_text if fdp is bc else repr(fdp)
    text = _JSON_ROW % (x, ab, bc_text, ed, ddp, fdp_text, ratio_ab_bc, ratio_bc_ed,
                        ratio_ddp_fdp, log_ratio)
    if not math.isfinite(sum(row[:-1])):
        # json's NaN, Infinity and -Infinity; no field name holds "nan" or "inf"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return "{%s, \"flags\": [%s]}" % (text, '"' + '", "'.join(flags) + '"' if flags else "")


def _counterexample_sample(x: float) -> GeometricSample:
    """Log-channel evaluation for the pair f = p_inv, g = q_inv.

    Structure gives exact identities that bypass catastrophic subtraction:
    with u = p_inv(x) and v = t = q_inv(x), solved here by numeric_inverse,

        BC  = |x - p(t)|  = theta(t)          (because q(t) = x)
        ED  = |p(x) - q(x)| = theta(x)
        AB  = v - u = theta(u) / (1 + u + v)  (divided difference of q)
        DDp = |x - q(x)| = x^2                (g_inv is q itself)
        FDp = BC                              (F convention)
        BC/ED = exp(-1/(1 + v))   AB/BC = exp(-log1p(u + v) - AB/(u v))

    AB > 0 makes every row "mirrored", f(x) = u < v = g(x) < x, even where
    u and v are the same double.  Where -1/u, -1/v or -1/x is not finite
    (x = 0, a subnormal root, or a NaN root of an x outside the bracket) no
    channel survives in doubles, and the row comes back "unresolved".
    """
    u, v = numeric_inverse(p, x), numeric_inverse(q, x)
    log_u, log_bc, log_ed = log_theta(u), log_theta(v), log_theta(x)
    if not (math.isfinite(log_u) and math.isfinite(log_bc) and math.isfinite(log_ed)):
        return _flagged_row(x, "unresolved")
    log_uv = math.log1p(u + v)
    # the channels and ratio_ab_bc's exponent are at most 0 up to rounding: exp cannot overflow
    ab, bc, ed = math.exp(log_u - log_uv), math.exp(log_bc), math.exp(log_ed)
    # "logspace" where a finite channel underflowed; constant tuples, shared by every row
    flags = ("mirrored", "logspace") if 0.0 in (ab, bc, ed) else ("mirrored",)
    # ab is 0 only where theta(u) underflowed; the term is then < 1e-300
    ratio_ab_bc = math.exp(-log_uv - (ab / (u * v) if ab else 0.0))
    log_ratio = 2.0 * math.log(x) - log_bc  # log(DDp / FDp), FDp = BC
    return GeometricSample(x, ab, bc, ed, x * x, bc, ratio_ab_bc, counterexample_ratio(v),
                           _exp(log_ratio), log_ratio, flags)


def geometric_sample(
    f: "SeriesFn | InverseFn", g: "SeriesFn | InverseFn", x: float
) -> GeometricSample:
    """All lengths and ratios of the picture at abscissa x.

    The inverses choose the route before any double is compared: a pair
    whose inverses are p and q is the flat pair, whose lengths come from
    log-space identities, and every such row is "mirrored".  Any other pair
    is evaluated in doubles.  Its valid configurations, with f(x) and g(x)
    finite, are f(x) = g(x) as doubles (ratios indeterminate), or f(x) and
    g(x) on the same side of the diagonal with g strictly off it: the
    f > g > id picture and its mirror image f < g < id; any other row comes
    back "configuration_violated".  Its lengths are differences of doubles
    near x; a row whose smallest gap is under GAP_FLOOR_ULPS ulps of x comes
    back "unresolved".  Every failure is a flag: a row is returned, never
    raised.
    """
    f_inv = f.inverse()
    g_inv = g.inverse()
    if f_inv is p and g_inv is q:
        return _counterexample_sample(x)

    fx = f(x)
    gx = g(x)
    finite = math.isfinite(fx) and math.isfinite(gx)
    if not finite or (fx != gx and (gx == x or (fx > gx) != (gx > x))):
        return _flagged_row(x, "configuration_violated")
    flags = ["mirrored"] if fx < gx else []

    ab = abs(fx - gx)
    bc = abs(x - f_inv(gx))
    g_inv_x = g_inv(x)
    ed = abs(f_inv(x) - g_inv_x)
    ddp = abs(x - g_inv_x)
    fdp = bc
    if fx == gx:
        flags.append("indeterminate")
        ratio_ab_bc = ratio_bc_ed = NAN
    elif min(ab, bc, ed) < GAP_FLOOR_ULPS * math.ulp(x):
        return _flagged_row(x, "unresolved")
    else:
        ratio_ab_bc, ratio_bc_ed = ab / bc, bc / ed
    ratio_ddp_fdp = ddp / fdp if fdp != 0.0 else NAN
    log_ratio = math.log(ddp) - math.log(fdp) if ddp > 0.0 and fdp > 0.0 else NAN
    return GeometricSample(x, ab, bc, ed, ddp, fdp, ratio_ab_bc, ratio_bc_ed,
                           ratio_ddp_fdp, log_ratio, tuple(flags))


def counterexample_ratio(t: float) -> float:
    """theta(t) / theta(t + t^2) for t > 0, entirely in log space.

    The log difference is log_theta(t) - log_theta(t + t^2)
    = -1/t + 1/(t + t^2), which telescopes exactly to -1/(1 + t); using the
    telescoped form avoids cancellation between two huge logs, so the
    value is accurate down to t = 1e-12 and visibly converges to 1/e.

    It is within 0.4 t + 2.5 ulp(1/e) of 1/e for 0 < t <= 0.5, where
    ulp(1/e) = 2^-54 and exp errs by under an ulp: the exact value is within
    t/e of 1/e; rounding 1 + t and 1/(1 + t) moves exp's argument by at most
    3 * 2^-54, worth 1.5 ulp(1/e) while the value is below 1/2 (t < 0.44;
    above, (0.4 - 1/e) t dwarfs any rounding); exp adds one ulp.
    """
    if not 0.0 < t < 1.0:
        raise InvalidInput(f"counterexample_ratio needs 0 < t < 1, got {t}")
    return math.exp(-1.0 / (1.0 + t))


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

# rows per piece of a table's text: each piece is computed, formatted and
# written before the next, so a table never holds more rows than this
ROWS_PER_PIECE = 128


class _Rows:
    """A sweep's rows, computed as they are read: len() is the grid's
    length, rows[k] computes row k, and each pass computes every row again."""

    def __init__(self, row: Callable[[float], GeometricSample], xs: list[float]):
        self._row, self._xs = row, xs

    def __len__(self) -> int:
        return len(self._xs)

    def __iter__(self) -> Iterator[GeometricSample]:
        return map(self._row, self._xs)

    def __getitem__(self, k: int) -> GeometricSample:
        return self._row(self._xs[k])


class SweepTable(Record):
    """Rows of GeometricSample at strictly decreasing abscissas.

    A table from sweep computes its rows as they are read, and again on
    each pass over rows; pieces reads them once.  bracket is f's, when it
    has one; the JSON metadata then gives beside it RESIDUAL_TOL, the
    tolerance of the inverses numeric_inverse solves there.
    """

    _fields = ("rows", "f_label", "g_label", "bracket")

    def pieces(self, fmt: str) -> Iterator[str]:
        """The table's text in fmt ("csv" or "json"): the header, then the
        text of the next ROWS_PER_PIECE rows at a time, then the JSON tail."""
        rows = iter(self.rows)
        chunks = iter(lambda: list(islice(rows, ROWS_PER_PIECE)), [])
        if fmt == "csv":
            yield CSV_HEADER + "\n"
            for chunk in chunks:
                yield "".join(map(_csv_row, chunk))
            return
        import json  # here, so that importing the package does not load json

        bracket = self.bracket
        yield json.dumps({"metadata": {"f": self.f_label, "g": self.g_label,
                                       "bracket": list(bracket) if bracket else None,
                                       "tol": RESIDUAL_TOL if bracket else None},
                          "rows": []})[:-2]  # up to and including the rows' "["
        for k, chunk in enumerate(chunks):
            yield (", " if k else "") + ", ".join(map(_json_row, chunk))
        yield "]}\n"


def thread_cap() -> int:
    """1: sweeps run sequentially, and nothing in the program calls this.

    It stays only because clibench/spans.py wraps it by name; the benchmark
    change of ROADMAP item 1 deletes it with numeric.sweep_workers.
    """
    return 1


def _flagged_row(x: float, flag: str) -> GeometricSample:
    return GeometricSample(x, *(NAN,) * 9, (flag,))


def sweep(
    f: "SeriesFn | InverseFn",
    g: "SeriesFn | InverseFn",
    xs: list[float] | tuple[float, ...],
) -> SweepTable:
    """One GeometricSample per abscissa, in input order, computed as the
    table's rows are read; each pass over table.rows computes them again.

    What concerns the whole table raises here, before any row: a grid that
    is empty, holds a NaN or is not strictly decreasing, an f or g
    without an inverse, and a pair that is neither the flat pair, whose
    inverses are p and q, nor two callables.
    What concerns one row is its flag, which geometric_sample returns and
    never raises, so that a table written while its rows are computed never
    stops half way.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise InvalidInput("sweep needs at least one abscissa")
    # a > b is false wherever a NaN stands, so only a lone NaN needs its own test
    if not all(a > b for a, b in zip(xs, xs[1:])) or math.isnan(xs[0]):
        raise InvalidInput("sweep abscissas must be strictly decreasing")
    # a SeriesFn reverts once, here, and keeps the inverse
    if (f.inverse(), g.inverse()) != (p, q) and not (callable(f) and callable(g)):
        raise InvalidInput(f"sweep cannot sample {f.label} against {g.label}")

    def row(x: float) -> GeometricSample:
        return geometric_sample(f, g, x)  # looked up per row, so a wrapped one is seen

    return SweepTable(
        rows=_Rows(row, xs),
        f_label=f.label,
        g_label=g.label,
        bracket=f.bracket,
    )


def counterexample_pair() -> tuple[InverseFn, InverseFn]:
    """The C-infinity pair: f = p_inv, g = q_inv with p = q + theta.

    p and q are explicit; f and g are solved by numeric_inverse, which is why
    the pair is built on the inverse side.  geometric_sample knows the pair
    by its inverses, p and q, and evaluates it in log space.
    """
    return InverseFn(p), InverseFn(q)


def counterexample_sweep(t_values: list[float] | tuple[float, ...]) -> SweepTable:
    """Sweep the counterexample pair at abscissas x = q(t), t decreasing."""
    return sweep(*counterexample_pair(), [q(float(t)) for t in t_values])
