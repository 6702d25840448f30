"""Series reversion: the compositional inverse of f = a1 x + a2 x^2 + ...

Two independent routes are provided.  compositional_inverse solves the
triangular system read off from f(inverse(x)) = x one coefficient at a
time; lagrange_inverse_oracle assembles the same series from the Lagrange
inversion formula.  They must agree exactly, and the test suite holds them
to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertible
from .series import (
    Rational,
    TruncatedSeries,
    compose,
    pow_binomial,
    rational_to_json,
    scale,
    series_to_json,
)


@dataclass(frozen=True)
class InverseWitness:
    """A compositional inverse together with its perturbation residuals.

    residuals[i] is R_n for n = i + 2, where R_n = b_n + a_n / a1^(n+1):
    the part of the n-th inverse coefficient not explained by the leading
    perturbation term.  With a1 = 1 this reduces to b_n + a_n, and R_n
    depends only on a_2 .. a_(n-1).
    """

    inverse: TruncatedSeries
    residuals: tuple[Rational, ...]

    def to_json_dict(self, with_residuals: bool = True) -> dict:
        out = {"inverse": series_to_json(self.inverse)}
        if with_residuals:
            out["residuals"] = [rational_to_json(r) for r in self.residuals]
        return out


def _check_invertible(f: TruncatedSeries) -> Rational:
    if f.coefficients[0] != 0:
        raise NotInvertible("series with nonzero constant term has no compositional inverse")
    if f.order < 1 or f.coefficients[1] == 0:
        raise NotInvertible("series with zero linear coefficient has no compositional inverse")
    return f.coefficients[1]


def compositional_inverse(f: TruncatedSeries) -> InverseWitness:
    """Invert f by the triangular solve hiding in compose(f, inverse) = x.

    Coefficient n of compose(f, b) is affine in b_n with slope a1 once
    b_1 .. b_(n-1) are fixed.  So: evaluate the composition with b_n = 0,
    read off coefficient n, and correct b_n by the shortfall over a1.
    """
    a1 = _check_invertible(f)
    order = f.order
    b = [Fraction(0), 1 / a1]
    for n in range(2, order + 1):
        b.append(Fraction(0))
        partial = TruncatedSeries(tuple(b))
        constant_part = compose(f.truncate(n), partial).coefficients[n]
        # target coefficient of x^n in the identity is 0
        b[n] = -constant_part / a1
    inverse = TruncatedSeries(tuple(b))
    residuals = tuple(
        b[n] + f.coefficients[n] / a1 ** (n + 1) for n in range(2, order + 1)
    )
    return InverseWitness(inverse=inverse, residuals=residuals)


def lagrange_inverse_oracle(f: TruncatedSeries) -> TruncatedSeries:
    """Reversion via Lagrange's formula: b_n = (1/n) [x^(n-1)] (x/f)^n.

    Independent of the triangular solve above; used to cross-check it.
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
