"""Truncated formal power series over exact rationals.

A TruncatedSeries stores the coefficients of x^0 .. x^order exactly, as
fractions.  Every binary operation truncates its result to the minimum of
the operand orders: coefficients the operands cannot both vouch for are
never fabricated.  There is no floating point anywhere in this module, so
all results are bit-identical across runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import BinomialDomain, CompositionDomain, DivisionDomain, InvalidInput, Record

# The coefficient scalar.  Python's Fraction already is an arbitrary
# precision rational kept in lowest terms with a positive denominator.
Rational = Fraction

RationalLike = Rational | int | str


def as_rational(value: RationalLike) -> Rational:
    """Coerce ints, strings like "-3/7", or Fractions to a Rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise InvalidInput(f"cannot interpret {value!r} as a rational coefficient")


class TruncatedSeries(Record):
    """Coefficients of x^0 .. x^order, exact: a tuple of Rationals.

    Use make_series() (or the module-level operations) rather than mutating
    anything: instances are immutable and safe to share across threads.
    Equality compares order and all coefficients.
    """

    _fields = ("coefficients",)

    def __new__(cls, coefficients: tuple[Rational, ...]) -> "TruncatedSeries":
        if not coefficients:
            raise InvalidInput("a series needs at least the constant coefficient")
        return super().__new__(cls, coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above the given order (which must be known)."""
        if order > self.order:
            raise InvalidInput(f"cannot extend a series of order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self.coefficients[: order + 1])


def make_series(coefficients: Sequence[RationalLike] | Iterable[RationalLike]) -> TruncatedSeries:
    """Build a series from coefficients of x^0, x^1, ...; order = len - 1."""
    return TruncatedSeries(tuple(as_rational(c) for c in coefficients))


def zero_series(order: int) -> TruncatedSeries:
    return TruncatedSeries((Fraction(0),) * (order + 1))


def one_series(order: int) -> TruncatedSeries:
    return TruncatedSeries((Fraction(1),) + (Fraction(0),) * order)


def identity_series(order: int) -> TruncatedSeries:
    """The series x, truncated to the given order (just [0] at order 0)."""
    return monomial_series(1, 1, order)


def monomial_series(coefficient: RationalLike, exponent: int, order: int) -> TruncatedSeries:
    """c * x^k at the given order; zero series if k exceeds the order."""
    c = as_rational(coefficient)
    coeffs = [Fraction(0)] * (order + 1)
    if 0 <= exponent <= order:
        coeffs[exponent] = c
    return TruncatedSeries(tuple(coeffs))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(tuple(a.coefficients[k] + b.coefficients[k] for k in range(n + 1)))


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(tuple(a.coefficients[k] - b.coefficients[k] for k in range(n + 1)))


def scale(a: TruncatedSeries, factor: RationalLike) -> TruncatedSeries:
    f = as_rational(factor)
    return TruncatedSeries(tuple(f * c for c in a.coefficients))


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the minimum operand order."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coefficients[: n + 1]):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b.coefficients[j]
            if bj != 0:
                out[i + j] += ai * bj
    return TruncatedSeries(tuple(out))


def require_zero_constant(inner_constant: Rational) -> None:
    """Formal composition needs an inner series that vanishes at 0."""
    if inner_constant != 0:
        raise CompositionDomain(
            "inner series has nonzero constant term; formal composition needs positive valuation"
        )


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(x)), truncated to the minimum operand order.

    Requires inner(0) = 0; otherwise every outer coefficient would touch
    every result coefficient and truncation would be meaningless.
    Evaluated Horner style in the series ring, O(n^3) rational operations;
    the tests hold elementary.eval_expr, which never calls it, equal to it.
    """
    require_zero_constant(inner.coefficients[0])
    n = min(outer.order, inner.order)
    inner_t = inner.truncate(n)
    acc = zero_series(n)
    for k in range(n, -1, -1):
        acc = mul(acc, inner_t)
        ck = outer.coefficients[k]
        if ck != 0:
            acc = TruncatedSeries((acc.coefficients[0] + ck,) + acc.coefficients[1:])
    return acc


def divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """num / den by forward substitution; den must have a nonzero constant term."""
    d0 = den.coefficients[0]
    if d0 == 0:
        raise DivisionDomain("divisor has zero constant term; quotient is not a power series")
    n = min(num.order, den.order)
    q = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = num.coefficients[k]
        for j in range(k):
            dj = den.coefficients[k - j]
            if dj != 0 and q[j] != 0:
                acc -= q[j] * dj
        q[k] = acc / d0
    return TruncatedSeries(tuple(q))


def pow_binomial(base: TruncatedSeries, exponent: RationalLike) -> TruncatedSeries:
    """base^exponent for rational exponents, by J.C.P. Miller's recurrence.

    Requires base(0) = 1 exactly, so that P = base^alpha has P_0 = 1 and
    k P_k = sum_{j=1..k} ((alpha + 1) j - k) a_j P_(k-j) stays in exact
    rationals (Knuth, TAOCP vol. 2, section 4.7).  O(n^2) operations.
    """
    alpha = as_rational(exponent)
    a = base.coefficients
    if a[0] != 1:
        raise BinomialDomain("binomial power needs constant term exactly 1")
    p = [Fraction(1)]
    for k in range(1, base.order + 1):
        total = sum(((alpha + 1) * j - k) * a[j] * p[k - j] for j in range(1, k + 1) if a[j])
        p.append(Fraction(total, k))
    return TruncatedSeries(tuple(p))


def valuation(s: TruncatedSeries) -> int | None:
    """Index of the first nonzero coefficient; None when every known one is zero."""
    for k, c in enumerate(s.coefficients):
        if c != 0:
            return k
    return None


# JSON encoding: rationals as decimal strings so arbitrary precision
# survives serialization in every consumer.

def decimal_text(n: int) -> str:
    """str(n) at any length: sys.int_max_str_digits guards parsing input,
    so an int longer than that is split near half its digits, each half
    printed the same way."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half the digits; log10(2) > 0.3
        high, low = divmod(abs(n), 10 ** half)
        return "-" * (n < 0) + decimal_text(high) + decimal_text(low).zfill(half)


def rational_text(r: Rational) -> str:
    """str(r) at any length."""
    num = decimal_text(r.numerator)
    return num if r.denominator == 1 else f"{num}/{decimal_text(r.denominator)}"


def json_text(value: Rational | TruncatedSeries | Record | tuple | int) -> str:
    """json.dumps's default text for the JSON of value: a Rational is
    {"num", "den"} in decimal strings, a TruncatedSeries its order and
    coefficients, any other Record its _fields in order, a tuple a list, an
    int itself.  Every string is decimal digits or a field name, so nothing
    needs escaping."""
    if isinstance(value, Fraction):
        num, den = decimal_text(value.numerator), decimal_text(value.denominator)
        return f'{{"num": "{num}", "den": "{den}"}}'
    if isinstance(value, TruncatedSeries):
        return f'{{"order": {value.order}, "coefficients": {json_text(value.coefficients)}}}'
    if isinstance(value, Record):
        return "{%s}" % ", ".join(f'"{name}": {json_text(field)}'
                                  for name, field in zip(value._fields, value))
    if isinstance(value, tuple):
        return "[%s]" % ", ".join(map(json_text, value))
    return str(value)


def _json_int(value: object) -> int:
    """A JSON integer or a decimal-integer string; a float or bool is neither."""
    if type(value) is int or (isinstance(value, str) and value.lstrip("+-").isdigit()):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def rational_from_json(obj: dict) -> Rational:
    try:
        return Fraction(_json_int(obj["num"]), _json_int(obj["den"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"malformed rational object: {obj!r}") from exc


def series_from_json(obj: dict) -> TruncatedSeries:
    try:
        order = _json_int(obj["order"])
        coeffs = [rational_from_json(c) for c in obj["coefficients"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed series object: {obj!r}") from exc
    if len(coeffs) != order + 1:
        raise InvalidInput(
            f"series object claims order {order} but carries {len(coeffs)} coefficients"
        )
    return make_series(coeffs)
