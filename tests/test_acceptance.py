"""Acceptance gate: one test per headline claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and runtime bound is asserted, not just printed.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from arnold_lab.elementary import eval_text
from arnold_lab.errors import ParseError
from arnold_lab.expressions import parse
from arnold_lab.inversion import compositional_inverse
from arnold_lab.limits import arnold_ratio
from arnold_lab.numeric import (
    SeriesFn,
    counterexample_pair,
    counterexample_ratio,
    flatness_check,
    geometric_sample,
    sweep,
)
from arnold_lab.series import compose, identity_series, make_series
from helpers import (
    lagrange_inverse_oracle,
    random_ast,
    random_invertible_series,
    random_tangent_pair,
    render,
)

E_INV = 0.36787944117144233


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_headline_limit_via_cli():
    with criterion(1, "tan o sin vs sin o tan has N = 7 and limit exactly 1"):
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "arnold_lab", "limit",
                "--f", "tan o sin", "--g", "sin o tan", "--order", "12",
            ],
            capture_output=True,
            text=True,
            timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["N"] == 7
        assert payload["limit"] == {"num": "1", "den": "1"}
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def _corpus(count=100, seed=20260813):
    rng = random.Random(seed)
    return [random_invertible_series(rng, max_order=16) for _ in range(count)]


def test_criterion_2_round_trip_exactness():
    with criterion(2, "100 random series invert to exact two-sided identities"):
        start = time.perf_counter()
        for f in _corpus():
            inverse = compositional_inverse(f).inverse
            ident = identity_series(f.order)
            assert compose(f, inverse) == ident
            assert compose(inverse, f) == ident
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "triangular reversion equals Lagrange inversion on the corpus"):
        for f in _corpus():
            assert compositional_inverse(f).inverse == lagrange_inverse_oracle(f)


def test_criterion_4_perturbation_law():
    with criterion(4, "b_n - B_n tracks the perturbation exactly; R_n is shared"):
        rng = random.Random(41)
        for _ in range(50):
            f = random_invertible_series(rng, max_order=12)
            while f.order < 3:
                f = random_invertible_series(rng, max_order=12)
            n = rng.randint(2, f.order)
            delta = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
            bumped = list(f.coefficients)
            bumped[n] += delta
            g = make_series(bumped)
            a1 = f.coefficients[1]
            bf = compositional_inverse(f).inverse.coefficients[n]
            bg = compositional_inverse(g).inverse.coefficients[n]
            # delta is defined g minus f, so f's coefficient is A_n + (-delta)
            assert bf - bg == delta / a1 ** (n + 1)

            # slope-1 copies share a_2..a_{n-1}, so their R_n agree
            unit_f = make_series([f.coefficients[0], F(1)] + list(f.coefficients[2:]))
            unit_bumped = list(unit_f.coefficients)
            unit_bumped[n] += delta
            unit_g = make_series(unit_bumped)
            rf = compositional_inverse(unit_f).residuals[n - 2]
            rg = compositional_inverse(unit_g).residuals[n - 2]
            assert rf == rg


def test_criterion_5_analytic_corpus():
    with criterion(5, "200 analytic tangent pairs give limit 1; sweeps contract"):
        rng = random.Random(51)
        for _ in range(200):
            f, g = random_tangent_pair(rng)
            assert arnold_ratio(f, g).limit == F(1)
        pairs = [
            ("tan o sin", "sin o tan"),
            ("x + x^2", "x + x^3"),
            ("x + 2 * x^2", "x + x^2"),
        ]
        for f_text, g_text in pairs:
            f = SeriesFn(eval_text(f_text, 12))
            g = SeriesFn(eval_text(g_text, 12))
            table = sweep(f, g, [0.2, 0.1, 0.05])
            assert all(row.flags == () for row in table.rows)
            ab = [abs(row.ratio_AB_BC - 1.0) for row in table.rows]
            bc = [abs(row.ratio_BC_ED - 1.0) for row in table.rows]
            assert ab[0] > ab[1] > ab[2]
            assert bc[0] > bc[1] > bc[2]


def test_criterion_6_counterexample_limit():
    with criterion(6, "flat-pair ratio lands on 1/e and matches its closed form"):
        start = time.perf_counter()
        assert abs(counterexample_ratio(1e-6) - E_INV) < 1e-5
        lo, hi, points = 1e-12, 0.5, 400
        step = (math.log(hi) - math.log(lo)) / (points - 1)
        for k in range(points):
            t = math.exp(math.log(lo) + k * step)
            expected = math.exp(-1.0 / (1.0 + t))
            assert abs(counterexample_ratio(t) - expected) <= 1e-12 * expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_7_mean_value_ratio_splits():
    with criterion(7, "at x = 1e-3 the chord ratio is 1 but the height ratio is 1/e"):
        f, g = counterexample_pair()
        sample = geometric_sample(f, g, 1e-3)
        assert abs(sample.ratio_AB_BC - 1.0) < 1e-2
        assert abs(sample.ratio_BC_ED - E_INV) < 1e-2


def test_criterion_8_divergence_diagnostic():
    with criterion(8, "log |DD'|/|FD'| increases along the sweep and passes 100"):
        f, g = counterexample_pair()
        q = g.inverse()
        values = [
            geometric_sample(f, g, q(t)).log_ratio_DDp_FDp
            for t in (1e-1, 1e-2, 1e-3)
        ]
        assert values[0] < values[1] < values[2]
        assert values[2] > 100.0
        # abscissa is t + t^2, hence the 2 ln(1+t) beyond the 1/t + 2 ln t trend
        for t, value in zip((1e-1, 1e-2, 1e-3), values):
            exact = 1.0 / t + 2.0 * math.log(t) + 2.0 * math.log1p(t)
            assert value == pytest.approx(exact, rel=1e-9)


def test_criterion_9_flatness():
    with criterion(9, "n-th derivative bounds of theta collapse toward 0"):
        xs = [0.1, 0.05, 0.01, 0.005]
        for n in (1, 5, 10, 20):
            values = flatness_check(n, xs)
            assert all(v > 0.0 for v in values)
            assert values[-2] > values[-1]
        probe = flatness_check(20, [0.01])[0]
        assert abs(probe - 3.7e-4) <= 0.1 * 3.7e-4


def test_criterion_10_structural_identity():
    with criterion(10, "inverse of tan o sin is exactly arcsin o arctan"):
        forward = eval_text("tan o sin", 12)
        backward = eval_text("arcsin o arctan", 12)
        assert compositional_inverse(forward).inverse == backward


def test_criterion_11_parser():
    with criterion(11, "500 AST round trips and the grammar error offsets"):
        rng = random.Random(111)
        for _ in range(500):
            ast = random_ast(rng)
            assert parse(render(ast)) == ast
        for text, offset in (("sin((", 4), ("x + + x", 5), ("tan o", 6)):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.offset == offset
