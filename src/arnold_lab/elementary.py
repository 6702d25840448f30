"""The named primitives at a series, and AST evaluation.

Each primitive is evaluated at a series h with h(0) = 0 by one O(n^2)
recurrence from its differential equation (Brent and Kung, J. ACM 25(4),
1978): sin h and cos h together from S' = C h' and C' = -S h', tan h
from the Riccati equation T' = h' (1 + T^2), arctan h = integral of Q
with Q (1 + h^2) = h', and arcsin h = integral of h' R with (1 - h^2)
R' = h h' R, R(0) = 1.  At the root h is the series x.  Exact rationals
make identities like sin^2 + cos^2 = 1 hold with zero tolerance, good
engine self-checks.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from . import expressions as ex
from .errors import UnknownFunction
from .series import (
    Rational,
    TruncatedSeries,
    add,
    identity_series,
    mul,
    one_series,
    require_zero_constant,
    scale,
    sub,
    zero_series,
)

Rule = Callable[[TruncatedSeries], TruncatedSeries]


def _sin_cos_at(h: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """k S_k = sum_j j h_j C_(k-j) and k C_k = -sum_j j h_j S_(k-j)."""
    dh = [(j, j * hj) for j, hj in enumerate(h.coefficients) if hj]
    s, c = [Fraction(0)], [Fraction(1)]
    for k in range(1, h.order + 1):
        s.append(Fraction(sum(d * c[k - j] for j, d in dh if j <= k), k))
        c.append(Fraction(-sum(d * s[k - j] for j, d in dh if j <= k), k))
    return TruncatedSeries(tuple(s)), TruncatedSeries(tuple(c))


def _tan_at(h: TruncatedSeries) -> TruncatedSeries:
    """k T_k = k h_k + sum_j j h_j P_(k-j) with P = T^2, each P_m from T_1 .. T_(m-1)."""
    dh = [(j, j * hj) for j, hj in enumerate(h.coefficients) if hj]
    t, square = [Fraction(0)], []
    for k in range(1, h.order + 1):
        m = k - 1  # P_m is the last square T_k needs; T_i T_(m-i) and T_(m-i) T_i are one product
        pairs = 2 * sum(t[i] * t[m - i] for i in range(1, (m + 1) // 2) if t[i] and t[m - i])
        square.append(pairs + (0 if m % 2 else t[m // 2] ** 2))
        total = sum(d * square[k - j] for j, d in dh if j <= k and square[k - j])
        t.append(h.coefficients[k] + total / k if total else h.coefficients[k])
    return TruncatedSeries(tuple(t))


def _arctan_at(h: TruncatedSeries) -> TruncatedSeries:
    """Q_m = (m + 1) h_(m+1) - sum_j P_j Q_(m-j) with P = h^2, and k A_k = Q_(k-1)."""
    square = [(j, pj) for j, pj in enumerate(mul(h, h).coefficients) if pj]
    q = []
    for m in range(h.order):
        total = sum(pj * q[m - j] for j, pj in square if j <= m and q[m - j])
        q.append((m + 1) * h.coefficients[m + 1] - total)
    return TruncatedSeries((Fraction(0), *(qm / k for k, qm in enumerate(q, 1))))


def _arcsin_at(h: TruncatedSeries) -> TruncatedSeries:
    """2k R_k = sum_j (2k - j) P_j R_(k-j) with P = h^2, and k A_k = sum_j j h_j R_(k-j)."""
    square = [(j, pj) for j, pj in enumerate(mul(h, h).coefficients) if pj]
    dh = [(j, j * hj) for j, hj in enumerate(h.coefficients) if hj]
    a, r = [Fraction(0)], [Fraction(1)]
    for k in range(1, h.order + 1):  # an empty sum is the int 0, and 0 / k a float
        total = sum(d * r[k - j] for j, d in dh if j <= k and r[k - j])
        a.append(total / k if total else Fraction(0))
        total = sum((2 * k - j) * pj * r[k - j] for j, pj in square if j <= k and r[k - j])
        r.append(total / (2 * k) if total else Fraction(0))
    return TruncatedSeries(tuple(a))


_AT_SERIES: dict[str, Rule] = {
    "sin": lambda h: _sin_cos_at(h)[0],
    "cos": lambda h: _sin_cos_at(h)[1],
    "tan": _tan_at,
    "arcsin": _arcsin_at,
    "arctan": _arctan_at,
    "id": lambda h: h,
}


def _power(h: TruncatedSeries, exponent: int) -> TruncatedSeries:
    """h^exponent by squaring; zero above the order, since h(0) = 0."""
    if not 0 <= exponent <= h.order:
        return zero_series(h.order)
    result, square = one_series(h.order), h
    while exponent:
        if exponent & 1:
            result = mul(result, square)
        exponent >>= 1
        if exponent:
            square = mul(square, square)
    return result


def _rule(ast: ex.FunctionExpr) -> tuple[Rule, Rational]:
    """ast as the map h -> ast(h) on series with h(0) = 0, and the
    constant term of every such ast(h), which h does not change.

    One walk over the tree; it raises what evaluating ast raises, in
    evaluation order: an unknown name or a composition whose inner
    constant term is nonzero, outer before inner and left before right.
    """
    if isinstance(ast, ex.Primitive):
        if ast.name not in _AT_SERIES:
            known = ", ".join(sorted(_AT_SERIES))
            raise UnknownFunction(f"unknown primitive {ast.name!r} (known: {known})")
        rule = _AT_SERIES[ast.name]
        return rule, rule(zero_series(0)).coefficients[0]
    if isinstance(ast, ex.Monomial):
        c, k = ast.coefficient, ast.exponent
        return (lambda h: scale(_power(h, k), c)), c if k == 0 else Fraction(0)
    if isinstance(ast, (ex.Sum, ex.Difference)):
        (left, a), (right, b) = _rule(ast.left), _rule(ast.right)
        if isinstance(ast, ex.Sum):
            return (lambda h: add(left(h), right(h))), a + b
        return (lambda h: sub(left(h), right(h))), a - b
    if isinstance(ast, ex.Scale):
        (child, a), factor = _rule(ast.child), ast.coefficient
        return (lambda h: scale(child(h), factor)), factor * a
    if isinstance(ast, ex.Compose):
        (outer, a), (inner, b) = _rule(ast.outer), _rule(ast.inner)
        require_zero_constant(b)
        return (lambda h: outer(inner(h))), a
    raise TypeError(f"not a FunctionExpr node: {ast!r}")


def eval_expr(ast: ex.FunctionExpr, order: int) -> TruncatedSeries:
    """Evaluate a parsed expression to a series of exactly the given order.

    Each node is evaluated at the series of the node it is composed
    with (x at the root), so `a o b` is a evaluated at b and no node
    calls compose: O(n^2) rational operations per primitive and O(n^2
    log k) per power x^k.  The result is the series that Horner
    composition of the nodes' own series gives, and the same errors are
    raised in the same order.
    """
    rule, _ = _rule(ast)
    return rule(identity_series(order))


def eval_text(text: str, order: int) -> TruncatedSeries:
    """Parse and evaluate in one step."""
    return eval_expr(ex.parse(text), order)
