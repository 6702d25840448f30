"""Series reversion: the compositional inverse of f = a1 x + a2 x^2 + ...

compositional_inverse solves the triangular system read off from
f(inverse(x)) = x one coefficient at a time, over integers after a Hurwitz
rescaling.  The test suite holds it exactly equal to an independent route,
the Lagrange inversion formula with Miller's powers (tests/helpers.py).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .errors import NotInvertible, Record
from .series import Rational, TruncatedSeries, rational_to_json, series_to_json


class InverseWitness(Record):
    """A compositional inverse together with its perturbation residuals.

    residuals[i] is R_n for n = i + 2, where R_n = b_n + a_n / a1^(n+1):
    the part of the n-th inverse coefficient not explained by the leading
    perturbation term.  With a1 = 1 this reduces to b_n + a_n, and R_n
    depends only on a_2 .. a_(n-1).
    """

    _fields = ("inverse", "residuals")

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
    """Invert f by the triangular solve hiding in compose(f, inverse) = x,
    on Python ints.

    Rescale to h(x) = f(c x) / (c a1) = x + sum_k h_k x^k, with c the lcm of
    the denominators of k! a_k / a1 for k >= 2, so that every Hurwitz
    coefficient H_k = k! h_k is an integer.  The inverse hb of h then has
    integer Hurwitz coefficients HB_n = n! hb_n, and
    b_n = HB_n / (n! c^(n-1) a1^n).  Coefficient n of h(hb) is
    hb_n + sum_{k=2..n} h_k [x^n] hb^k, and it vanishes for n >= 2: with
    T[k][m] = m! [x^m] hb^k, grown one column per step by
    T[k][n] = sum_j C(n, j) HB_j T[k-1][n-j], which only involves
    HB_1 .. HB_(n-1) for k >= 2,

        HB_n = -sum_{k=2..n} H_k (T[k][n] // k!).

    The division is exact: n! [x^n] hb^k / k! is the sum, over the
    partitions of {1..n} into k blocks, of the products of HB_(block size),
    an integer.  O(n^3) integer operations on numbers near n! in size and
    no gcd, then one Fraction per coefficient.
    """
    a1 = _check_invertible(f)
    a = f.coefficients
    order = f.order
    fact = [factorial(k) for k in range(order + 1)]
    ratios = [fact[k] * a[k] / a1 for k in range(2, order + 1)]
    c = lcm(1, *(r.denominator for r in ratios))
    H = [0, 1] + [int(r * c ** (k - 1)) for k, r in enumerate(ratios, 2)]
    HB = [0, 1]
    table = [None, HB]  # table[k][m] = m! [x^m] hb^k; table[1] is HB itself
    for n in range(2, order + 1):
        weights = [(j, comb(n, j) * HB[j]) for j in range(1, n) if HB[j]]
        table.append([0] * n)
        for k in range(2, n + 1):
            lower = table[k - 1]
            table[k].append(sum(w * lower[n - j] for j, w in weights if j <= n - k + 1))
        HB.append(-sum(H[k] * (table[k][n] // fact[k]) for k in range(2, n + 1) if H[k]))
    num, den = a1.numerator, a1.denominator
    b = [Fraction(0)] + [
        Fraction(HB[n] * den**n, fact[n] * c ** (n - 1) * num**n)
        for n in range(1, order + 1)
    ]
    inverse = TruncatedSeries(tuple(b))
    residuals = tuple(b[n] + a[n] / a1 ** (n + 1) for n in range(2, order + 1))
    return InverseWitness(inverse=inverse, residuals=residuals)
