"""The exact limit computation and its report."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnold_lab.elementary import eval_text
from arnold_lab.errors import ConditionViolated, IndistinguishableToOrder
from arnold_lab.inversion import compositional_inverse
from arnold_lab.limits import ArnoldReport, arnold_ratio
from arnold_lab.series import make_series, sub, valuation
from helpers import random_tangent_pair


class TestFirstDivergence:
    """N, the first index where f and g differ, as arnold_ratio reports it."""

    def test_direct(self):
        assert arnold_ratio(make_series([0, 1, 1, 0]), make_series([0, 1, 0, 1])).N == 2

    def test_headline(self):
        f = eval_text("tan o sin", 12)
        g = eval_text("sin o tan", 12)
        assert arnold_ratio(f, g).N == 7
        assert valuation(sub(f, g)) == 7

    def test_indistinguishable(self):
        s = eval_text("sin", 8)
        assert valuation(sub(s, s)) is None
        with pytest.raises(IndistinguishableToOrder, match="through order 8"):
            arnold_ratio(s, s)


class TestArnoldRatio:
    def test_headline(self):
        report = arnold_ratio(eval_text("tan o sin", 12), eval_text("sin o tan", 12))
        assert report.N == 7
        assert report.numerator_leading == F(1, 30)
        assert report.denominator_leading == F(1, 30)
        assert report.limit == 1

    def test_hand_checked_quadratic_cubic(self):
        report = arnold_ratio(make_series([0, 1, 1, 0, 0]), make_series([0, 1, 0, 1, 0]))
        assert report.N == 2
        assert report.numerator_leading == 1
        assert report.denominator_leading == 1
        assert report.limit == 1
        assert report.f_inverse == make_series([0, 1, -1, 2, -5])

    def test_coincident_rejected(self):
        with pytest.raises(IndistinguishableToOrder):
            arnold_ratio(eval_text("sin", 8), eval_text("sin", 8))

    def test_condition_violated(self):
        with pytest.raises(ConditionViolated):
            arnold_ratio(eval_text("cos", 6), eval_text("sin", 6))
        with pytest.raises(ConditionViolated):
            arnold_ratio(make_series([0, 2, 1]), make_series([0, 2, 0, 1]))

    def test_order_N_suffices(self):
        report = arnold_ratio(make_series([0, 1, 1]), make_series([0, 1, 0]))
        assert report.N == 2
        assert report.limit == 1
        assert report.f_inverse == make_series([0, 1, -1])

    def test_mixed_orders_use_common_part(self):
        report = arnold_ratio(make_series([0, 1, 1, 0, 0, 9]), make_series([0, 1, 0, 1, 0]))
        assert report.N == 2
        assert report.f_inverse.order == 4

    def test_report_json(self):
        report = arnold_ratio(make_series([0, 1, 1, 0]), make_series([0, 1, 0, 1]))
        obj = report.to_json_dict()
        assert set(obj) == {
            "N", "numerator_leading", "denominator_leading", "limit", "f_inverse", "g_inverse",
        }
        assert obj["N"] == 2
        assert obj["limit"] == {"num": "1", "den": "1"}


class TestAnalyticCorpus:
    @settings(max_examples=100)
    @given(st.integers(0, 2**48))
    def test_limit_is_one_and_indices_align(self, seed):
        f, g = random_tangent_pair(random.Random(seed), max_order=12)
        report = arnold_ratio(f, g)
        assert report.limit == 1
        assert report.denominator_leading == report.numerator_leading
        n = valuation(sub(f, g))
        assert report.N == n
        assert valuation(sub(report.g_inverse, report.f_inverse)) == n

    @settings(max_examples=60)
    @given(st.integers(0, 2**48))
    def test_antisymmetry(self, seed):
        f, g = random_tangent_pair(random.Random(seed), max_order=10)
        fw = arnold_ratio(f, g)
        bw = arnold_ratio(g, f)
        assert fw.N == bw.N
        assert fw.numerator_leading == -bw.numerator_leading
        assert fw.denominator_leading == -bw.denominator_leading
        assert fw.limit == bw.limit == 1


class TestLemmaIdentity:
    """R_N(f) == R_N(g): the residual R_N = b_N + a_N depends only on
    a_2 .. a_(N-1), where f and g agree, so b_N(g) - b_N(f) = a_N(f) - a_N(g)."""

    def test_headline_at_order_7(self):
        f, g = eval_text("tan o sin", 7), eval_text("sin o tan", 7)
        f_witness, g_witness = compositional_inverse(f), compositional_inverse(g)
        assert (f.coefficients[7], g.coefficients[7]) == (F(-107, 5040), F(-55, 1008))
        assert f_witness.inverse.coefficients[7] == F(-341, 5040)
        assert g_witness.inverse.coefficients[7] == F(-173, 5040)
        assert f_witness.residuals[7 - 2] == g_witness.residuals[7 - 2] == F(-4, 45)

    @settings(max_examples=100)
    @given(st.integers(0, 2**48))
    def test_residual_at_N_is_shared(self, seed):
        f, g = random_tangent_pair(random.Random(seed), max_order=12)
        n = valuation(sub(f, g))
        f_residuals = compositional_inverse(f).residuals
        assert f_residuals[n - 2] == compositional_inverse(g).residuals[n - 2]
