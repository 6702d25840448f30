"""The named primitives at a series, and AST evaluation.

Each primitive is evaluated at a series h with h(0) = 0 through its
differential equation (Brent and Kung, J. ACM 25(4), 1978): sin h and
cos h together from S' = C h' and C' = -S h', tan h = S / C,
arctan h = integral of h' / (1 + h^2) and arcsin h = integral of
h' (1 - h^2)^(-1/2), each O(n^2) rational operations.  At the root h is
the series x.  All of them are series of rationals, so identities like
sin^2 + cos^2 = 1 hold with zero tolerance and make good engine
self-checks.
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
    derive,
    divide,
    identity_series,
    integrate,
    mul,
    one_series,
    pow_binomial,
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


def _arctan_at(h: TruncatedSeries) -> TruncatedSeries:
    one_plus_square = add(one_series(h.order), mul(h, h))
    return integrate(divide(derive(h), one_plus_square)).truncate(h.order)


def _arcsin_at(h: TruncatedSeries) -> TruncatedSeries:
    root = pow_binomial(sub(one_series(h.order), mul(h, h)), Fraction(-1, 2))
    return integrate(mul(derive(h), root)).truncate(h.order)


_AT_SERIES: dict[str, Rule] = {
    "sin": lambda h: _sin_cos_at(h)[0],
    "cos": lambda h: _sin_cos_at(h)[1],
    "tan": lambda h: divide(*_sin_cos_at(h)),
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
