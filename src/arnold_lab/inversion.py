"""Series reversion: the compositional inverse of f = a1 x + a2 x^2 + ...

Two independent routes are provided.  compositional_inverse solves the
triangular system read off from f(inverse(x)) = x one coefficient at a
time; lagrange_inverse_oracle assembles the same series from the Lagrange
inversion formula and Miller's powers.  They must agree exactly, and the
test suite holds them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertible
from .series import (
    Rational,
    TruncatedSeries,
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

    Coefficient n of compose(f, b) is a1 b_n + sum_{k=2..n} a_k [x^n] b^k,
    where [x^n] b^k = sum_j b_j [x^(n-j)] b^(k-1) only involves b_1 .. b_(n-1):
    grow a table of the powers of b by one column per step, then pick the
    b_n that makes coefficient n vanish.  O(n^3) rational operations.
    """
    a1 = _check_invertible(f)
    a = f.coefficients
    b = [Fraction(0), 1 / a1]
    powers = [None, b]  # powers[k][m] = [x^m] b^k
    for n in range(2, f.order + 1):
        powers.append([Fraction(0)] * n)
        for k in range(2, n + 1):
            powers[k].append(sum(b[j] * powers[k - 1][n - j] for j in range(1, n - k + 2) if b[j]))
        # target coefficient of x^n in the identity is 0
        b.append(-sum(a[k] * powers[k][n] for k in range(2, n + 1) if a[k]) / a1)
    inverse = TruncatedSeries(tuple(b))
    residuals = tuple(b[n] + a[n] / a1 ** (n + 1) for n in range(2, f.order + 1))
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
