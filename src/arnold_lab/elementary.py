"""Exact Taylor generators for the named primitives, and AST evaluation.

At x, sin, cos, arctan and arcsin come from their closed-form coefficients
and tan is the exact quotient of sin by cos.  At a series h with h(0) = 0
each primitive follows from its differential equation (Brent and Kung,
J. ACM 25(4), 1978): sin h and cos h together from S' = C h' and
C' = -S h', tan h = S / C, arctan h = integral of h' / (1 + h^2) and
arcsin h = integral of h' (1 - h^2)^(-1/2), each O(n^2) rational
operations.  All of them are series of rationals, so identities like
sin^2 + cos^2 = 1 hold with zero tolerance and make good engine
self-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable

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
    make_series,
    monomial_series,
    mul,
    one_series,
    pow_binomial,
    require_zero_constant,
    scale,
    sub,
    zero_series,
)


def sin_series(order: int) -> TruncatedSeries:
    coeffs = [Fraction(0)] * (order + 1)
    for k in range((order + 1) // 2):
        coeffs[2 * k + 1] = Fraction((-1) ** k, factorial(2 * k + 1))
    return make_series(coeffs)


def cos_series(order: int) -> TruncatedSeries:
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(0, order // 2 + 1):
        coeffs[2 * k] = Fraction((-1) ** k, factorial(2 * k))
    return make_series(coeffs)


def tan_series(order: int) -> TruncatedSeries:
    return divide(sin_series(order), cos_series(order))


def arctan_series(order: int) -> TruncatedSeries:
    coeffs = [Fraction(0)] * (order + 1)
    for k in range((order + 1) // 2):
        coeffs[2 * k + 1] = Fraction((-1) ** k, 2 * k + 1)
    return make_series(coeffs)


def arcsin_series(order: int) -> TruncatedSeries:
    coeffs = [Fraction(0)] * (order + 1)
    for k in range((order + 1) // 2):
        coeffs[2 * k + 1] = Fraction(comb(2 * k, k), 4**k * (2 * k + 1))
    return make_series(coeffs)


PRIMITIVES: dict[str, Callable[[int], TruncatedSeries]] = {
    "sin": sin_series,
    "cos": cos_series,
    "tan": tan_series,
    "arcsin": arcsin_series,
    "arctan": arctan_series,
    "id": identity_series,
}


def primitive_series(name: str, order: int) -> TruncatedSeries:
    try:
        generator = PRIMITIVES[name]
    except KeyError:
        known = ", ".join(sorted(PRIMITIVES))
        raise UnknownFunction(f"unknown primitive {name!r} (known: {known})") from None
    return generator(order)


# the primitives at a series h with h(0) = 0, to the order of h


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


_AT_SERIES: dict[str, Callable[[TruncatedSeries], TruncatedSeries]] = {
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


def _constant_term(ast: ex.FunctionExpr) -> Rational:
    """The constant term of ast's series, which no inner series changes.

    Raises what evaluating ast raises, in evaluation order: an unknown
    name or a composition whose inner constant term is nonzero, outer
    before inner and left before right.
    """
    if isinstance(ast, ex.Primitive):
        return primitive_series(ast.name, 0).coefficients[0]
    if isinstance(ast, ex.Monomial):
        return monomial_series(ast.coefficient, ast.exponent, 0).coefficients[0]
    if isinstance(ast, ex.Sum):
        return _constant_term(ast.left) + _constant_term(ast.right)
    if isinstance(ast, ex.Difference):
        return _constant_term(ast.left) - _constant_term(ast.right)
    if isinstance(ast, ex.Scale):
        return ast.coefficient * _constant_term(ast.child)
    if isinstance(ast, ex.Compose):
        outer = _constant_term(ast.outer)
        require_zero_constant(_constant_term(ast.inner))
        return outer
    raise TypeError(f"not a FunctionExpr node: {ast!r}")


def _evaluate(ast: ex.FunctionExpr, h: TruncatedSeries | None, order: int) -> TruncatedSeries:
    """ast evaluated at h, or at x when h is None; _constant_term has
    already checked every name and every composition."""
    if isinstance(ast, ex.Primitive):
        return primitive_series(ast.name, order) if h is None else _AT_SERIES[ast.name](h)
    if isinstance(ast, ex.Monomial):
        if h is None:
            return monomial_series(ast.coefficient, ast.exponent, order)
        return scale(_power(h, ast.exponent), ast.coefficient)
    if isinstance(ast, ex.Sum):
        return add(_evaluate(ast.left, h, order), _evaluate(ast.right, h, order))
    if isinstance(ast, ex.Difference):
        return sub(_evaluate(ast.left, h, order), _evaluate(ast.right, h, order))
    if isinstance(ast, ex.Scale):
        return scale(_evaluate(ast.child, h, order), ast.coefficient)
    return _evaluate(ast.outer, _evaluate(ast.inner, h, order), order)


def eval_expr(ast: ex.FunctionExpr, order: int) -> TruncatedSeries:
    """Evaluate a parsed expression to a series of exactly the given order.

    Each node is evaluated at the series of the node it is composed
    with (x at the root), so `a o b` is a evaluated at b and no node
    calls compose: O(n^2) rational operations per primitive and O(n^2
    log k) per power x^k.  The result is the series that Horner
    composition of the nodes' own series gives, and the same errors are
    raised in the same order.
    """
    _constant_term(ast)
    return _evaluate(ast, None, order)


def eval_text(text: str, order: int) -> TruncatedSeries:
    """Parse and evaluate in one step."""
    return eval_expr(ex.parse(text), order)
