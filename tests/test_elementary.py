"""Generators: frozen coefficients, identities, inverse pairs, evaluation."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnold_lab import elementary, series
from arnold_lab.elementary import eval_expr, eval_text
from arnold_lab.errors import CompositionDomain, UnknownFunction
from arnold_lab.expressions import parse
from arnold_lab.inversion import compositional_inverse
from arnold_lab.series import (
    TruncatedSeries,
    add,
    compose,
    identity_series,
    make_series,
    mul,
    one_series,
    sub,
    valuation,
    zero_series,
)

from helpers import arcsin_series, arctan_series, horner_eval_expr, random_ast


def recurrence_sin_cos(order):
    """Independent route: c_(k+2) = -c_k / ((k+1)(k+2)) from c1 = 1 / c0 = 1."""
    sin = [F(0)] * (order + 1)
    cos = [F(0)] * (order + 1)
    if order >= 1:
        sin[1] = F(1)
    cos[0] = F(1)
    for k in range(order - 1):
        sin[k + 2] = -sin[k] / ((k + 1) * (k + 2))
        cos[k + 2] = -cos[k] / ((k + 1) * (k + 2))
    return make_series(sin), make_series(cos)


class TestGenerators:
    def test_sin_cos_match_recurrence(self):
        sin_r, cos_r = recurrence_sin_cos(15)
        assert eval_text("sin", 15) == sin_r
        assert eval_text("cos", 15) == cos_r

    def test_sin_frozen(self):
        assert eval_text("sin", 5) == make_series([0, 1, 0, F(-1, 6), 0, F(1, 120)])

    def test_cos_order_zero(self):
        assert eval_text("cos", 0) == make_series([1])

    def test_pythagorean(self):
        s, c = eval_text("sin", 12), eval_text("cos", 12)
        assert add(mul(s, s), mul(c, c)) == one_series(12)

    def test_tan_frozen(self):
        assert eval_text("tan", 5) == make_series([0, 1, 0, F(1, 3), 0, F(2, 15)])
        assert eval_text("tan", 1) == make_series([0, 1])

    def test_tan_times_cos_is_sin(self):
        order = 11
        assert mul(eval_text("tan", order), eval_text("cos", order)) == eval_text("sin", order)

    def test_arctan_frozen(self):
        assert eval_text("arctan", 5) == make_series([0, 1, 0, F(-1, 3), 0, F(1, 5)])
        assert eval_text("arctan", 1) == make_series([0, 1])

    def test_arcsin_frozen(self):
        assert eval_text("arcsin", 5) == make_series([0, 1, 0, F(1, 6), 0, F(3, 40)])

    def test_arctan_arcsin_at_order_2000(self):
        assert eval_text("arctan", 2000) == arctan_series(2000)
        assert eval_text("arcsin", 2000) == arcsin_series(2000)

    def test_inverse_pairs_compose_to_identity(self):
        order = 9
        tan, arctan = eval_text("tan", order), eval_text("arctan", order)
        sin, arcsin = eval_text("sin", order), eval_text("arcsin", order)
        assert compose(arctan, tan) == identity_series(order)
        assert compose(sin, arcsin) == identity_series(order)

    def test_reversion_reproduces_named_inverses(self):
        for order in (11, 40):
            tan, arctan = eval_text("tan", order), eval_text("arctan", order)
            sin, arcsin = eval_text("sin", order), eval_text("arcsin", order)
            assert compositional_inverse(tan).inverse == arctan
            assert compositional_inverse(sin).inverse == arcsin
            assert compositional_inverse(arcsin).inverse == sin


class TestEvalExpr:
    def test_composition(self):
        assert eval_text("tan o sin", 7) == compose(eval_text("tan", 7), eval_text("sin", 7))

    def test_polynomial_padded(self):
        assert eval_text("x + x^2", 5) == make_series([0, 1, 1, 0, 0, 0])

    def test_rejects_unit_constant_composition(self):
        with pytest.raises(CompositionDomain):
            eval_text("cos o cos", 6)

    def test_unknown_primitive(self):
        with pytest.raises(UnknownFunction):
            eval_text("sinh", 4)

    def test_scale_difference_parens(self):
        assert eval_text("1/2 * (tan - sin)", 5) == scale_check()

    def test_identity_primitive(self):
        assert eval_text("id", 6) == identity_series(6)

    def test_order_zero(self):
        assert eval_text("x", 0) == zero_series(0)

    def test_monomial_above_order_vanishes(self):
        assert eval_text("x^9", 4) == zero_series(4)

    def test_eval_expr_matches_eval_text(self):
        ast = parse("arcsin o arctan")
        assert eval_expr(ast, 9) == eval_text("arcsin o arctan", 9)


def scale_check():
    from arnold_lab.series import scale

    return scale(sub(eval_text("tan", 5), eval_text("sin", 5)), F(1, 2))


class TestHeadlineSeries:
    def test_tan_sin_frozen(self):
        expected = make_series(
            [0, 1, 0, F(1, 6), 0, F(-1, 40), 0, F(-107, 5040), 0, F(-73, 24192), 0,
             F(41897, 39916800), 0]
        )
        assert eval_text("tan o sin", 12) == expected

    def test_first_difference_at_seven(self):
        diff = sub(eval_text("tan o sin", 12), eval_text("sin o tan", 12))
        assert valuation(diff) == 7
        assert diff.coefficients[7] == F(1, 30)


# the expressions of the exact_limit benchmark workload
LIMIT_TEXTS = ("tan o sin", "sin o tan", "arcsin o arctan", "arctan o arcsin",
               "tan o arcsin", "arcsin o tan", "arctan o sin", "sin o arctan")
PRIMITIVE_NAMES = ("sin", "cos", "tan", "arcsin", "arctan", "id")


def outcome(evaluate, ast, order):
    """The series, or the type and message of what evaluating raised."""
    try:
        return evaluate(ast, order)
    except Exception as exc:
        return type(exc), str(exc)


class TestEvalOracle:
    """eval_expr evaluates each node at a series; horner_eval_expr composes
    every node's own series by Horner.  The two must agree exactly."""

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(0, 30))
    def test_matches_horner_composition(self, seed, order):
        ast = random_ast(random.Random(seed))
        result = outcome(eval_expr, ast, order)
        assert result == outcome(horner_eval_expr, ast, order)
        if isinstance(result, TruncatedSeries):
            assert all(type(c) is F for c in result.coefficients)

    @pytest.mark.parametrize(
        "text", ["foo o cos", "(sin o cos) o foo", "foo o sin o cos", "sin o cos"]
    )
    def test_error_precedence(self, text):
        ast = parse(text)
        expected = outcome(horner_eval_expr, ast, 5)
        assert type(expected) is tuple
        assert outcome(eval_expr, ast, 5) == expected

    def test_exact_limit_expressions_at_order_64(self):
        # the bare names pin each root leaf to its closed form
        for text in LIMIT_TEXTS + PRIMITIVE_NAMES:
            assert eval_text(text, 64) == horner_eval_expr(parse(text), 64), text

    def test_coefficients_are_fractions(self):
        # an empty sum is the int 0, and 0 / k would be the float 0.0
        cases = [(text, 24) for text in LIMIT_TEXTS]
        cases += [("3/7 * (x^3 + tan) o arcsin o x^2", 17), ("arctan o x^2", 1),
                  ("arcsin o (x - x^3)", 0), ("cos o tan o sin - 2*x", 20)]
        for text, order in cases:
            f = eval_text(text, order)
            assert all(type(c) is F for c in f.coefficients), text
            if f.order >= 1 and f.coefficients[0] == 0 and f.coefficients[1] != 0:
                w = compositional_inverse(f)
                assert all(type(c) is F for c in w.inverse.coefficients + w.residuals), text

    def test_tan_sin_takes_no_compose(self, monkeypatch):
        calls = []
        original = series.compose

        def counting(outer, inner):
            calls.append(None)
            return original(outer, inner)

        for module in (series, elementary):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
        eval_text("tan o sin", 24)
        assert calls == []

    def test_arctan_arcsin_take_no_division_or_binomial_power(self, monkeypatch):
        # and tan neither: all three are their own recurrences
        originals = (series.divide, series.pow_binomial)

        def refuse(*args):
            raise AssertionError("tan, arctan and arcsin are their own recurrences")

        for module in (series, elementary):
            for name, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, name, refuse)
        for text in ("arcsin", "arctan", "arcsin o arctan", "arctan o arcsin",
                     "tan", "tan o sin", "sin o tan", "tan o arcsin", "arcsin o tan"):
            assert eval_text(text, 24).order == 24, text

    @pytest.mark.parametrize("inner", ["x", "arcsin", "x + 1/3*x^3", "1/2*x", "x - x", "tan"])
    def test_tan_is_sin_over_cos(self, inner):
        for order in (0, 1, 2, 3, 7, 24, 41, 64):
            tan = eval_text(f"tan o ({inner})", order)
            sin, cos = eval_text(f"sin o ({inner})", order), eval_text(f"cos o ({inner})", order)
            assert tan == series.divide(sin, cos), order
            assert all(type(c) is F for c in tan.coefficients), order
