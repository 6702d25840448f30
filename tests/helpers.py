"""Seeded corpus generators shared by unit and acceptance tests, and the
oracles the tests hold the production routes to."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from arnold_lab.errors import UnknownFunction
from arnold_lab.expressions import (
    Compose,
    Difference,
    FunctionExpr,
    Monomial,
    Primitive,
    Scale,
    Sum,
)
from arnold_lab.inversion import _check_invertible
from arnold_lab.numeric import FLAT_BRACKET
from arnold_lab.series import (
    TruncatedSeries,
    add,
    compose,
    divide,
    identity_series,
    make_series,
    monomial_series,
    pow_binomial,
    scale,
    sub,
    valuation,
)


def check_increasing(fn) -> None:
    """Fail an assertion unless fn strictly increases along 10 001 evenly
    spaced points of FLAT_BRACKET, its ends included."""
    lo, hi = FLAT_BRACKET
    samples = 10_000
    previous = fn(lo)
    step = (hi - lo) / samples
    for i in range(1, samples + 1):
        value = fn(lo + i * step)
        assert value > previous, f"{fn.__name__} is not strictly increasing near {lo + i * step}"
        previous = value


def bisection_inverse(f, y: float, bracket: tuple[float, float]) -> float:
    """The oracle for SeriesFn inverses: plain bisection of the bracket.

    Halve until the ends are adjacent doubles and return 0.5 * (lo + hi).
    There is no iteration cap, so tiny targets get their exact double.
    The flat roots of numeric_inverse are held to beat its worst error.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    increasing = f(hi) >= f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (f(mid) < y) == increasing:
            lo = mid
        else:
            hi = mid


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


# the primitives at x from their closed-form Taylor coefficients
CLOSED_FORMS = {
    "sin": sin_series,
    "cos": cos_series,
    "tan": tan_series,
    "arcsin": arcsin_series,
    "arctan": arctan_series,
    "id": identity_series,
}


def closed_form(name: str, order: int) -> TruncatedSeries:
    """The named primitive at x, or the UnknownFunction eval_expr raises."""
    if name not in CLOSED_FORMS:
        known = ", ".join(sorted(CLOSED_FORMS))
        raise UnknownFunction(f"unknown primitive {name!r} (known: {known})")
    return CLOSED_FORMS[name](order)


def horner_eval_expr(ast: FunctionExpr, order: int) -> TruncatedSeries:
    """The oracle for eval_expr: every node expanded at x (the primitives
    by their closed forms), outer before inner and left before right, and
    each `a o b` joined by Horner compose."""
    if isinstance(ast, Primitive):
        return closed_form(ast.name, order)
    if isinstance(ast, Monomial):
        return monomial_series(ast.coefficient, ast.exponent, order)
    if isinstance(ast, Sum):
        return add(horner_eval_expr(ast.left, order), horner_eval_expr(ast.right, order))
    if isinstance(ast, Difference):
        return sub(horner_eval_expr(ast.left, order), horner_eval_expr(ast.right, order))
    if isinstance(ast, Scale):
        return scale(horner_eval_expr(ast.child, order), ast.coefficient)
    if isinstance(ast, Compose):
        outer = horner_eval_expr(ast.outer, order)
        inner = horner_eval_expr(ast.inner, order)
        return compose(outer, inner)
    raise TypeError(f"not a FunctionExpr node: {ast!r}")


def lagrange_inverse_oracle(f: TruncatedSeries) -> TruncatedSeries:
    """Reversion via Lagrange's formula: b_n = (1/n) [x^(n-1)] (x/f)^n.

    The oracle for compositional_inverse: independent of its triangular solve.
    """
    a1 = _check_invertible(f)
    order = f.order
    # h = f/x normalized to constant term 1, so (x/f)^n = a1^-n * h^-n
    h_norm = scale(TruncatedSeries(f.coefficients[1:]), 1 / a1)
    b = [Fraction(0), 1 / a1]
    for n in range(2, order + 1):
        powered = pow_binomial(h_norm.truncate(n - 1), -n)
        b.append(powered.coefficients[n - 1] / (n * a1**n))
    return TruncatedSeries(tuple(b))


# rendering; parse(render(ast)) is structurally equal to ast for any
# canonical tree (Scale never directly over Monomial or Scale)

def _render_compose_operand(node: FunctionExpr) -> str:
    if isinstance(node, Primitive):
        return node.name
    if isinstance(node, Monomial) and node.coefficient == 1:
        return _render_monomial(node)
    return f"({render(node)})"


def _render_monomial(node: Monomial) -> str:
    base = "x" if node.exponent == 1 else f"x^{node.exponent}"
    if node.coefficient == 1:
        return base
    return f"{node.coefficient} * {base}"


def _render_term(node: FunctionExpr) -> str:
    if isinstance(node, (Sum, Difference)):
        return f"({render(node)})"
    return render(node)


def render(ast: FunctionExpr) -> str:
    """Canonical text for an AST: the oracle for parse, which must read it back."""
    if isinstance(ast, Primitive):
        return ast.name
    if isinstance(ast, Monomial):
        return _render_monomial(ast)
    if isinstance(ast, Sum):
        return f"{render(ast.left)} + {_render_term(ast.right)}"
    if isinstance(ast, Difference):
        return f"{render(ast.left)} - {_render_term(ast.right)}"
    if isinstance(ast, Scale):
        if isinstance(ast.child, Primitive):
            child = ast.child.name
        else:
            child = f"({render(ast.child)})"
        return f"{ast.coefficient} * {child}"
    if isinstance(ast, Compose):
        left = _render_compose_operand(ast.outer)
        if isinstance(ast.inner, Compose):
            right = render(ast.inner)
        else:
            right = _render_compose_operand(ast.inner)
        return f"{left} o {right}"
    raise TypeError(f"not a FunctionExpr node: {ast!r}")


# small coefficients keep bignum growth inside the reversion benign
def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if value != 0 or not nonzero:
            return value


def random_invertible_series(rng: random.Random, max_order: int = 16) -> TruncatedSeries:
    """a0 = 0, a1 != 0, the reversion corpus."""
    order = rng.randint(1, max_order)
    coeffs = [Fraction(0), random_rational(rng, nonzero=True)]
    coeffs += [random_rational(rng) for _ in range(order - 1)]
    return make_series(coeffs)


def random_tangent_series(
    rng: random.Random, order: int | None = None, max_order: int = 16
) -> TruncatedSeries:
    """x + O(x^2): the tangency condition holds exactly."""
    if order is None:
        order = rng.randint(2, max_order)
    coeffs = [Fraction(0), Fraction(1)]
    coeffs += [random_rational(rng) for _ in range(order - 1)]
    return make_series(coeffs)


def random_tangent_pair(rng: random.Random, max_order: int = 16):
    """Two tangent series of a shared order that differ at some index up to
    it, the order itself included."""
    order = rng.randint(3, max_order)
    while True:
        f = random_tangent_series(rng, order=order)
        g = random_tangent_series(rng, order=order)
        if valuation(sub(f, g)) is not None:
            return f, g


_NAMES = ("sin", "cos", "tan", "arcsin", "arctan", "id", "foo", "bar")


def random_ast(rng: random.Random, depth: int = 6) -> FunctionExpr:
    """A canonical FunctionExpr: Scale never wraps Monomial or Scale."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Primitive(rng.choice(_NAMES))
        return Monomial(random_rational(rng, nonzero=True), rng.randint(1, 9))
    kind = rng.randint(0, 3)
    if kind == 0:
        return Sum(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 1:
        return Difference(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 2:
        return Compose(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    child = random_ast(rng, depth - 1)
    if isinstance(child, (Monomial, Scale)):
        child = Primitive(rng.choice(_NAMES))
    return Scale(random_rational(rng, nonzero=True), child)
