"""Reference values computed apart from arnold_lab.

Nothing here imports the program.  The exact half builds Taylor series
over Fraction by routes the program does not use: tan from the
recurrence T' = 1 + T^2 instead of sin/cos division, arcsin and arctan
from their closed-form coefficients instead of integrated binomial
powers, composition by summing powers of the inner series instead of
Horner's rule, and reversion by fixed-point substitution instead of a
triangular solve.  The numeric half uses mpmath at 40 digits or more.

An expression is a tuple of primitive names read outer to inner:
("tan", "sin") is tan o sin.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath

INVERSE_NAME = {"sin": "arcsin", "arcsin": "sin", "tan": "arctan", "arctan": "tan"}
MP_FUNCTION = {"sin": mpmath.sin, "tan": mpmath.tan, "arcsin": mpmath.asin, "arctan": mpmath.atan}


def cli_text(names: tuple[str, ...]) -> str:
    """The expression in the program's grammar, e.g. "tan o sin"."""
    return " o ".join(names)


# exact truncated series: lists of Fraction, index k holds x^k


def mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def compose(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    """outer(inner(x)) as sum_k outer_k * inner^k; inner(0) must be 0."""
    if inner[0] != 0:
        raise ValueError("inner series must vanish at 0")
    out = [Fraction(0)] * (order + 1)
    out[0] = outer[0]
    power = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        power = mul(power, inner, order)
        if outer[k]:
            for j in range(k, order + 1):
                out[j] += outer[k] * power[j]
    return out


def primitive(name: str, order: int) -> list[Fraction]:
    c = [Fraction(0)] * (order + 1)
    if name == "sin":
        for k in range((order + 1) // 2):
            c[2 * k + 1] = Fraction((-1) ** k, factorial(2 * k + 1))
    elif name == "arctan":
        for k in range((order + 1) // 2):
            c[2 * k + 1] = Fraction((-1) ** k, 2 * k + 1)
    elif name == "arcsin":
        for k in range((order + 1) // 2):
            c[2 * k + 1] = Fraction(factorial(2 * k), 4**k * factorial(k) ** 2 * (2 * k + 1))
    elif name == "tan":
        # T' = 1 + T^2 gives (n + 1) t_(n+1) = [n == 0] + sum_(i+j=n) t_i t_j
        for n in range(order):
            square = sum((c[i] * c[n - i] for i in range(n + 1)), Fraction(0))
            c[n + 1] = ((1 if n == 0 else 0) + square) / (n + 1)
    else:
        raise ValueError(f"unknown primitive {name!r}")
    return c


def expand(names: tuple[str, ...], order: int) -> list[Fraction]:
    result = primitive(names[-1], order)
    for name in reversed(names[:-1]):
        result = compose(primitive(name, order), result, order)
    return result


def revert(f: list[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse of f = x + O(x^2) by fixed-point substitution.

    b <- b - (f(b) - x) fixes at least one more coefficient per pass.
    """
    if f[0] != 0 or f[1] != 1:
        raise ValueError("revert needs f = x + O(x^2)")
    b = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    for _ in range(order - 1):
        residual = compose(f, b, order)
        residual[1] -= 1
        if not any(residual):
            break
        b = [bk - rk for bk, rk in zip(b, residual)]
    return b


def first_divergence(f: list[Fraction], g: list[Fraction]) -> int:
    for k, (a, b) in enumerate(zip(f, g)):
        if a != b:
            return k
    raise ValueError("series agree through their order")


def horner(coefficients, x):
    """The polynomial at x, exactly for Fraction arguments, in mpmath for mpf."""
    acc = 0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


# mpmath side


def mp_apply(names: tuple[str, ...], x):
    for name in reversed(names):
        x = MP_FUNCTION[name](x)
    return x


def mp_inverse(names: tuple[str, ...], x):
    """The true inverse function of the composition, evaluated by mpmath."""
    return mp_apply(tuple(INVERSE_NAME[n] for n in reversed(names)), x)


def remainder_bound(names: tuple[str, ...], order: int, x, radius=mpmath.mpf(1) / 2):
    """Bound on |inverse(x) - its Taylor polynomial of the given order|.

    Cauchy's estimate |b_k| <= M / r^k with M the largest |inverse| on the
    circle |z| = r (sampled at 64 points, doubled for safety) gives
    sum_(k > order) M (x/r)^k = M (x/r)^(order+1) / (1 - x/r).
    """
    circle = (radius * mpmath.expjpi(mpmath.mpf(2 * j) / 64) for j in range(64))
    m = 2 * max(abs(mp_inverse(names, z)) for z in circle)
    q = x / radius
    return m * q ** (order + 1) / (1 - q)


def flat_inverses(x):
    """(u, t) = (p^-1(x), q^-1(x)) for q(y) = y + y^2, p = q + exp(-1/y).

    t is the positive root of the quadratic; u solves p(u) = x by Newton's
    method started at t, where p and q agree to within exp(-1/t).
    """
    t = (mpmath.sqrt(1 + 4 * x) - 1) / 2
    u = t
    for _ in range(100):
        value = u + u * u + mpmath.exp(-1 / u) - x
        slope = 1 + 2 * u + mpmath.exp(-1 / u) / (u * u)
        step = value / slope
        u -= step
        if abs(step) <= abs(u) * mpmath.mpf(2) ** (-mpmath.mp.prec + 4):
            break
    return u, t
