"""Exact Taylor generators for the named primitives, and AST evaluation.

sin, cos, arctan and arcsin come from their closed-form coefficients; tan
is the exact quotient of sin by cos.  All of them are series of rationals,
so identities like sin^2 + cos^2 = 1 hold with zero tolerance and make good
engine self-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable

from . import expressions as ex
from .errors import UnknownFunction
from .series import (
    TruncatedSeries,
    add,
    compose,
    divide,
    identity_series,
    make_series,
    monomial_series,
    scale,
    sub,
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


def eval_expr(ast: ex.FunctionExpr, order: int) -> TruncatedSeries:
    """Evaluate a parsed expression to a series of exactly the given order."""
    if isinstance(ast, ex.Primitive):
        return primitive_series(ast.name, order)
    if isinstance(ast, ex.Monomial):
        return monomial_series(ast.coefficient, ast.exponent, order)
    if isinstance(ast, ex.Sum):
        return add(eval_expr(ast.left, order), eval_expr(ast.right, order))
    if isinstance(ast, ex.Difference):
        return sub(eval_expr(ast.left, order), eval_expr(ast.right, order))
    if isinstance(ast, ex.Scale):
        return scale(eval_expr(ast.child, order), ast.coefficient)
    if isinstance(ast, ex.Compose):
        outer = eval_expr(ast.outer, order)
        inner = eval_expr(ast.inner, order)
        return compose(outer, inner)
    raise TypeError(f"not a FunctionExpr node: {ast!r}")


def eval_text(text: str, order: int) -> TruncatedSeries:
    """Parse and evaluate in one step."""
    return eval_expr(ex.parse(text), order)
