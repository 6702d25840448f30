"""series core: construction, ring operations, composition, calculus."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnold_lab.errors import BinomialDomain, CompositionDomain, DivisionDomain, InvalidInput
from arnold_lab.series import (
    TruncatedSeries,
    add,
    compose,
    derive,
    divide,
    identity_series,
    integrate,
    make_series,
    mul,
    one_series,
    pow_binomial,
    rational_from_json,
    rational_to_json,
    scale,
    series_from_json,
    series_to_json,
    sub,
    valuation,
    zero_series,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def series_st(min_order=1, max_order=16):
    return st.lists(rationals, min_size=min_order + 1, max_size=max_order + 1).map(make_series)


class TestConstruction:
    def test_identity(self):
        s = make_series([0, 1])
        assert s.order == 1
        assert s.coefficients == (F(0), F(1))

    def test_direct(self):
        s = make_series([0, 1, 1])
        assert s.order == 2
        assert s.coefficients == (F(0), F(1), F(1))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            make_series([])

    def test_accepts_strings_and_fractions(self):
        s = make_series(["1/2", F(3, 4), 2])
        assert s.coefficients == (F(1, 2), F(3, 4), F(2))

    def test_truncate(self):
        s = make_series([0, 1, 2, 3])
        assert s.truncate(1).coefficients == (F(0), F(1))
        with pytest.raises(InvalidInput):
            s.truncate(9)


class TestLinearOps:
    def test_sub_example(self):
        a = make_series([0, 1, 1, 0])
        b = make_series([0, 1, 0, 1])
        assert sub(a, b) == make_series([0, 0, 1, -1])

    def test_scale_law(self):
        assert scale(make_series([0, 1, 1]), F(1, 2)) == make_series([0, F(1, 2), F(1, 2)])

    def test_min_order_contract(self):
        a = make_series([0, 1, 7, 9])
        b = make_series([0, 1])
        assert add(a, b).order == 1


class TestMul:
    def test_polynomial_product(self):
        a = make_series([0, 1, 1, 0, 0])
        b = make_series([0, 1, -1, 0, 0])
        assert mul(a, b) == make_series([0, 0, 1, 0, -1])

    def test_one_is_neutral(self):
        s = make_series([2, 3, 5])
        assert mul(s, one_series(2)) == s

    def test_truncation_drops_degree_two(self):
        x = make_series([0, 1])
        assert mul(x, x) == zero_series(1)


class TestCompose:
    def test_expand_example(self):
        outer = make_series([0, 1, 1, 0, 0])
        inner = make_series([0, 1, 0, 1, 0])
        assert compose(outer, inner) == make_series([0, 1, 1, 1, 2])

    def test_identity_neutral(self):
        s = make_series([0, 2, 3, 4])
        assert compose(s, identity_series(3)) == s

    def test_rejects_constant_term(self):
        with pytest.raises(CompositionDomain):
            compose(make_series([0, 1]), make_series([1, 1]))


class TestDivide:
    def test_geometric(self):
        assert divide(make_series([0, 1, 0, 0]), make_series([1, -1, 0, 0])) == make_series(
            [0, 1, 1, 1]
        )

    def test_one_divisor(self):
        s = make_series([4, 5, 6])
        assert divide(s, one_series(2)) == s

    def test_rejects_zero_constant(self):
        with pytest.raises(DivisionDomain):
            divide(make_series([1, 1]), make_series([0, 1]))


class TestCalculus:
    def test_derive(self):
        assert derive(make_series([0, 1, 1])) == make_series([1, 2])

    def test_derive_constant(self):
        assert derive(make_series([7])) == zero_series(0)

    def test_integrate(self):
        assert integrate(make_series([1, 1])) == make_series([0, 1, F(1, 2)])

    @given(series_st(max_order=10))
    def test_round_trip(self, s):
        assert derive(integrate(s)) == s


class TestPowBinomial:
    def test_inverse_geometric(self):
        assert pow_binomial(make_series([1, 1, 0]), F(-1)) == make_series([1, -1, 1])

    def test_square_root(self):
        root = pow_binomial(make_series([1, 1, 0]), F(1, 2))
        assert root == make_series([1, F(1, 2), F(-1, 8)])
        assert mul(root, root) == make_series([1, 1, 0])

    def test_rejects_other_constants(self):
        with pytest.raises(BinomialDomain):
            pow_binomial(make_series([2, 1]), F(1, 2))

    @given(
        st.lists(rationals, min_size=1, max_size=8),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    )
    def test_exponent_addition(self, tail, p, q):
        base = make_series([F(1)] + tail)
        assert mul(pow_binomial(base, p), pow_binomial(base, q)) == pow_binomial(base, p + q)


class TestValuation:
    def test_plain(self):
        assert valuation(make_series([0, 0, 1, 0, -1])) == 2

    def test_flat(self):
        assert valuation(zero_series(8)) is None

    def test_constant(self):
        assert valuation(make_series([3, 1])) == 0


class TestRingLaws:
    @settings(max_examples=100)
    @given(series_st(), series_st(), series_st())
    def test_add_mul_laws(self, a, b, c):
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @settings(max_examples=100)
    @given(
        series_st(max_order=10),
        series_st(max_order=10).map(lambda s: TruncatedSeries((F(0),) + s.coefficients[1:])),
        series_st(max_order=10).map(lambda s: TruncatedSeries((F(0),) + s.coefficients[1:])),
    )
    def test_compose_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @settings(max_examples=100)
    @given(
        series_st(max_order=12),
        st.tuples(
            rationals.filter(lambda r: r != 0),
            st.lists(rationals, min_size=1, max_size=12),
        ).map(lambda t: make_series([t[0]] + t[1])),
    )
    def test_divide_inverts_mul(self, n, d):
        q = divide(n, d)
        order = min(n.order, d.order)
        assert mul(q, d.truncate(order)) == n.truncate(order)


class TestJson:
    def test_rational_round_trip(self):
        r = F(-22, 7)
        encoded = rational_to_json(r)
        assert encoded == {"num": "-22", "den": "7"}
        assert rational_from_json(encoded) == r

    def test_series_round_trip(self):
        s = make_series([0, F(1, 3), -2])
        obj = series_to_json(s)
        assert obj["order"] == 2
        assert series_from_json(obj) == s

    def test_malformed(self):
        with pytest.raises(InvalidInput):
            rational_from_json({"num": "1"})
        with pytest.raises(InvalidInput):
            series_from_json({"order": 3, "coefficients": [rational_to_json(F(1))]})
