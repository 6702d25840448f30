"""Reversion: round trips, the Lagrange cross-check, perturbation residuals."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arnold_lab import series
from arnold_lab.elementary import eval_text
from arnold_lab.errors import NotInvertible
from arnold_lab.inversion import compositional_inverse
from arnold_lab.series import compose, identity_series, make_series
from helpers import lagrange_inverse_oracle, random_invertible_series, random_rational

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def invertible_st(max_order=12):
    return st.tuples(
        rationals.filter(lambda r: r != 0),
        st.lists(rationals, min_size=0, max_size=max_order - 1),
    ).map(lambda t: make_series([F(0), t[0]] + t[1]))


class TestExamples:
    def test_identity_self_inverse(self):
        assert compositional_inverse(make_series([0, 1])).inverse == make_series([0, 1])

    def test_signed_catalan(self):
        w = compositional_inverse(make_series([0, 1, 1, 0, 0, 0]))
        assert w.inverse == make_series([0, 1, -1, 2, -5, 14])
        assert compose(make_series([0, 1, 1, 0, 0, 0]), w.inverse) == identity_series(5)

    def test_general_slope(self):
        w = compositional_inverse(make_series([0, 2]))
        assert w.inverse.coefficients[1] == F(1, 2)

    def test_residual_values(self):
        # R_n = b_n + a_n when a1 = 1
        w = compositional_inverse(make_series([0, 1, 1, 0, 0, 0]))
        assert w.residuals == (F(0), F(2), F(-5), F(14))

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            compositional_inverse(make_series([1, 1]))
        with pytest.raises(NotInvertible):
            compositional_inverse(make_series([0, 0, 1]))
        with pytest.raises(NotInvertible):
            compositional_inverse(make_series([0]))

    def test_lagrange_identity(self):
        assert lagrange_inverse_oracle(make_series([0, 1, 0])) == identity_series(2)

    def test_lagrange_catalan(self):
        assert lagrange_inverse_oracle(make_series([0, 1, -1, 0, 0])) == make_series(
            [0, 1, 1, 2, 5]
        )

    def test_lagrange_rejects_like_triangular(self):
        with pytest.raises(NotInvertible):
            lagrange_inverse_oracle(make_series([0, 0, 1]))

    def test_witness_json(self):
        w = compositional_inverse(make_series([0, 1, 1]))
        full = w.to_json_dict()
        assert set(full) == {"inverse", "residuals"}
        assert full["residuals"] == [{"num": "0", "den": "1"}]
        assert set(w.to_json_dict(with_residuals=False)) == {"inverse"}


class TestProperties:
    @settings(max_examples=100)
    @given(invertible_st())
    def test_round_trip(self, f):
        inverse = compositional_inverse(f).inverse
        assert compose(f, inverse) == identity_series(f.order)
        assert compose(inverse, f) == identity_series(f.order)

    @settings(max_examples=100)
    @given(invertible_st())
    @example(make_series([0, F(-3, 7), F(2, 5), F(1, 1000003), F(-7, 3), F(5, 11)]))
    @example(make_series([0, F(1000003, 2), F(-1, 1000003), F(3, 4)]))
    @example(make_series([0, F(5, 3)]))
    @example(make_series([0, -1]))
    def test_oracle_equality(self, f):
        assert lagrange_inverse_oracle(f) == compositional_inverse(f).inverse

    @settings(max_examples=60)
    @given(invertible_st(max_order=8), st.data())
    def test_structural_identity(self, v, data):
        # inverse(u o v) = inverse(v) o inverse(u)
        u = data.draw(invertible_st(max_order=8))
        order = min(u.order, v.order)
        u, v = u.truncate(order), v.truncate(order)
        left = compositional_inverse(compose(u, v)).inverse
        right = compose(
            compositional_inverse(v).inverse, compositional_inverse(u).inverse
        )
        assert left == right


class TestPerturbationLaw:
    def test_seeded_pairs(self):
        rng = random.Random(1203)
        for _ in range(50):
            order = rng.randint(3, 12)
            n = rng.randint(2, order)
            a1 = random_rational(rng, nonzero=True)
            shared = [random_rational(rng) for _ in range(2, n)]
            delta = random_rational(rng, nonzero=True)
            a_n = random_rational(rng)
            tail_f = [random_rational(rng) for _ in range(n + 1, order + 1)]
            tail_g = [random_rational(rng) for _ in range(n + 1, order + 1)]
            f = make_series([F(0), a1] + shared + [a_n] + tail_f)
            g = make_series([F(0), a1] + shared + [a_n + delta] + tail_g)
            bf = compositional_inverse(f).inverse.coefficients[n]
            bg = compositional_inverse(g).inverse.coefficients[n]
            # b_n - B_n = -(a_n - A_n) / a1^(n+1), and a_n - A_n = -delta here
            assert bf - bg == delta / a1 ** (n + 1)

    def test_residual_universality(self):
        # with a1 = 1 and a2 .. a_(n-1) shared, R_n ignores a_n and beyond
        rng = random.Random(7711)
        for _ in range(50):
            order = rng.randint(3, 12)
            n = rng.randint(2, order)
            shared = [random_rational(rng) for _ in range(2, n)]
            def build():
                tail = [random_rational(rng) for _ in range(n, order + 1)]
                return make_series([F(0), F(1)] + shared + tail)
            f, g = build(), build()
            rf = compositional_inverse(f).residuals[n - 2]
            rg = compositional_inverse(g).residuals[n - 2]
            assert rf == rg

    def test_residual_r3_depends_on_a2(self):
        # R_3 = 2 a2^2: identical for series sharing a2, not universal in general
        f = make_series([0, 1, 3, 5, 7])
        g = make_series([0, 1, 3, -2, 9])
        h = make_series([0, 1, 4, 5, 7])
        rf = compositional_inverse(f).residuals
        rg = compositional_inverse(g).residuals
        rh = compositional_inverse(h).residuals
        assert rf[1] == rg[1] == F(2 * 3 * 3)
        assert rh[1] == F(2 * 4 * 4) != rf[1]

    def test_general_slope_residuals(self):
        # for a1 != 1 the stored residual is b_n + a_n / a1^(n+1)
        f = make_series([0, 2, 3, 1])
        w = compositional_inverse(f)
        b = w.inverse.coefficients
        assert w.residuals == (b[2] + F(3, 8), b[3] + F(1, 16))


class TestElementaryPairs:
    def test_tan_sin_reversion(self):
        rng = random.Random(5)
        f = random_invertible_series(rng, max_order=10)
        # the seeded generator and hypothesis cover different corners
        assert compose(f, compositional_inverse(f).inverse) == identity_series(f.order)

    def test_power_table_solve_takes_no_series_products(self, monkeypatch):
        f = eval_text("tan o sin", 24)
        calls = []
        multiply = series.mul

        def counting(a, b):
            calls.append(None)
            return multiply(a, b)

        monkeypatch.setattr(series, "mul", counting)
        compositional_inverse(f)
        assert calls == []

    def test_oracle_equality_at_order_40(self):
        for order in (40, 64):
            for text in ("tan o sin", "arcsin o arctan", "tan o arcsin", "arctan o sin"):
                f = eval_text(text, order)
                assert compositional_inverse(f).inverse == lagrange_inverse_oracle(f), text
