"""Numeric lab: flat functions, the flat inverses, geometric channels, sweeps.

Frozen reference values in this file were produced with 60 to 700 digit
arithmetic (mpmath) on the defining formulas; the doubles produced here
must land within the stated tolerances of them.
"""

import json
import math
import random
import sys

import mpmath
import pytest

from arnold_lab import inversion, numeric
from arnold_lab.elementary import eval_text
from arnold_lab.errors import InvalidInput
from arnold_lab.inversion import compositional_inverse
from arnold_lab.numeric import (
    CSV_COLUMNS,
    CSV_HEADER,
    ROWS_PER_PIECE,
    GeometricSample,
    InverseFn,
    SeriesFn,
    SweepTable,
    counterexample_pair,
    counterexample_ratio,
    counterexample_sweep,
    flatness_check,
    geometric_sample,
    log_theta,
    numeric_inverse,
    p,
    q,
    sweep,
    theta,
)

from helpers import bisection_inverse, check_increasing

E_INV = 0.36787944117144233


# the whole-table serializations that SweepTable.pieces replaced, kept as its oracle
def _whole_csv(table):
    lines = [CSV_HEADER]
    for r in table.rows:
        cells = ["%.17g" % getattr(r, name) for name in CSV_COLUMNS]
        cells.append(";".join(r.flags))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _whole_json(table):
    return json.dumps({
        "metadata": {
            "f": table.f_label,
            "g": table.g_label,
            "bracket": list(table.bracket) if table.bracket else None,
            "tol": numeric.RESIDUAL_TOL if table.bracket else None,
        },
        "rows": [{"x": r.x, "AB": r.AB, "BC": r.BC, "ED": r.ED, "DDp": r.DDp, "FDp": r.FDp,
                  "ratio_AB_BC": r.ratio_AB_BC, "ratio_BC_ED": r.ratio_BC_ED,
                  "ratio_DDp_FDp": r.ratio_DDp_FDp, "log_ratio_DDp_FDp": r.log_ratio_DDp_FDp,
                  "flags": list(r.flags)} for r in table.rows],
    }) + "\n"


class TestTheta:
    def test_zero(self):
        assert theta(0.0) == 0.0

    def test_one(self):
        assert theta(1.0) == pytest.approx(E_INV, rel=1e-15)

    def test_even(self):
        assert theta(-0.25) == theta(0.25)

    def test_log_channel_survives_underflow(self):
        assert theta(0.001) == 0.0
        assert log_theta(0.001) == -1000.0
        assert log_theta(0.0) == float("-inf")


def _mp_flat_roots(y):
    """(p^-1(y), q^-1(y)) to 60 digits for y > 0: q's root in closed form,
    p's by Newton on p from it."""
    with mpmath.workdps(60):
        x = mpmath.mpf(y)
        v = 2 * x / (1 + mpmath.sqrt(1 + 4 * x))
        u = v
        for _ in range(100):
            th = mpmath.exp(-1 / u)
            step = (u + u * u + th - x) / (1 + 2 * u + th / (u * u))
            u -= step
            if abs(step) <= u * mpmath.mpf(2) ** -190:
                break
        return u, v


def _ulps(got, want):
    return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


# targets y = q(t): t log-spaced from 0.5 down to 1e-7, and t = 0.5 (1 - 2^-k)
# crowding the top of the bracket, where a naive Newton loop swings
# between neighbouring doubles
FLAT_GRID = [q(0.5 * 2e-7 ** (i / 399)) for i in range(1, 400)]
FLAT_GRID += [q(0.5 * (1 - 2.0 ** -k)) for k in range(1, 53)]
_rng = random.Random(15)
FLAT_RANDOM = [q(10 ** _rng.uniform(-7, math.log10(0.5))) for _ in range(300)]
FLAT_RANDOM += [_rng.uniform(0.0, q(0.5)) for _ in range(300)]
FLAT_RANDOM += [q(10 ** _rng.uniform(-300, -7)) for _ in range(100)]


@pytest.fixture(scope="module")
def mp_flat_roots():
    return {y: _mp_flat_roots(y) for y in FLAT_GRID + FLAT_RANDOM}


class TestNumericInverse:
    def test_bracket_invalid(self):
        # a target outside base(FLAT_BRACKET) has no root there: NaN, not an exception
        for base in (p, q):
            for y in (10.0, base(0.5) * (1 + 2.0 ** -52), -1e-300, float("nan")):
                assert math.isnan(numeric_inverse(base, y)), (base.__name__, y)

    def test_residual_check_rejects_another_base(self):
        # sin increases on the bracket, but the solver knows only p and q
        assert math.isnan(numeric_inverse(math.sin, 0.3))

    def test_round_trip(self):
        for y in (0.01, 0.1, 0.3, 0.7):
            x = numeric_inverse(p, y)
            assert abs(p(x) - y) <= 1e-12 * max(1.0, abs(y))

    def test_within_two_ulps_of_mpmath(self, mp_flat_roots):
        for y, (u, v) in mp_flat_roots.items():
            assert _ulps(numeric_inverse(p, y), u) <= 2.0, y
            assert _ulps(numeric_inverse(q, y), v) <= 2.0, y

    def test_closer_than_bisection_on_the_grid(self, mp_flat_roots):
        for base, index in ((p, 0), (q, 1)):
            worst = max(_ulps(numeric_inverse(base, y), mp_flat_roots[y][index]) for y in FLAT_GRID)
            worst_bisection = max(_ulps(bisection_inverse(base, y, (0.0, 0.5)), mp_flat_roots[y][index])
                                  for y in FLAT_GRID)
            assert worst < worst_bisection, base.__name__

    def test_p_root_never_above_q_root(self):
        # a pair in the wrong order makes a flat row configuration_violated
        for y in FLAT_GRID + FLAT_RANDOM + [0.0, 5e-324, 1e-200, 1e-3, q(0.5)]:
            assert numeric_inverse(p, y) <= numeric_inverse(q, y), y

    def test_tiny_target_is_exact(self):
        assert numeric_inverse(q, 1e-100) == pytest.approx(1e-100, rel=1e-15, abs=0)

    def test_few_evaluations_per_flat_inverse(self, monkeypatch):
        calls = []
        monkeypatch.setattr(numeric, "theta", lambda x: calls.append(x) or theta(x))
        for y in FLAT_GRID + FLAT_RANDOM:
            calls.clear()
            numeric_inverse(p, y)
            # the residual takes 1, and each Newton step, and the step that stops
            # the loop, one more; p(0) and p(0.5) were evaluated once, at import
            assert len(calls) <= 1 + 7, y

    def test_edge_targets(self):
        # x * x underflows below 1e-162: no ZeroDivisionError on the way to y itself
        for y in (0.0, 5e-324, 1e-310, sys.float_info.min, 1e-200):
            assert numeric_inverse(p, y) == y and numeric_inverse(q, y) == y, y
        assert numeric_inverse(q, q(0.5)) == 0.5
        u, _ = _mp_flat_roots(q(0.5))
        assert _ulps(numeric_inverse(p, q(0.5)), u) <= 2.0
        assert numeric_inverse(p, p(0.5)) == 0.5
        assert math.isnan(numeric_inverse(q, p(0.5)))
        # so the sweep's row there is unresolved
        assert sweep(*counterexample_pair(), [p(0.5)]).rows[0].flags == ("unresolved",)


class TestMonotoneConstruction:
    def test_counterexample_blocks_validate(self):
        check_increasing(p)
        check_increasing(q)

    def test_decreasing_bracket_rejected(self):
        # q' = 1 + 2x < 0 left of -1/2, so q(x - 2) decreases on the bracket
        def shifted(x):
            return q(x - 2.0)

        with pytest.raises(AssertionError, match="shifted is not strictly increasing"):
            check_increasing(shifted)

    def test_pair_is_built_without_evaluating_p_or_q(self, monkeypatch):
        calls = []
        for name in ("p", "q"):
            base = getattr(numeric, name)
            monkeypatch.setattr(numeric, name, lambda x, base=base: calls.append(x) or base(x))
        f, g = counterexample_pair()
        assert calls == []
        assert f.inverse() is numeric.p and g.inverse() is numeric.q
        # InverseFn only names the inverses; the flat provider solves the roots
        assert not callable(f) and not callable(g)


class TestCounterexampleChannels:
    def setup_method(self):
        self.f, self.g = counterexample_pair()

    def test_moderate_x_matches_high_precision(self):
        s = geometric_sample(self.f, self.g, 0.11)
        assert s.ratio_AB_BC == pytest.approx(0.830223136904, rel=1e-9)
        assert s.ratio_BC_ED == pytest.approx(0.402890321529, rel=1e-9)
        assert "mirrored" in s.flags

    def test_small_x_matches_high_precision(self):
        s = geometric_sample(self.f, self.g, 0.01)
        assert s.ratio_AB_BC == pytest.approx(0.980580675691, rel=1e-9)
        assert s.ratio_BC_ED == pytest.approx(0.371504190134, rel=1e-9)
        # u and v are the same double here; v - u = theta(u) / (1 + u + v) > 0 still
        # puts the row in the mirrored picture
        assert numeric_inverse(p, 0.01) == numeric_inverse(q, 0.01)
        assert s.flags == ("mirrored",)

    def test_deep_x_needs_log_space(self):
        s = geometric_sample(self.f, self.g, 0.001)
        assert s.ratio_AB_BC == pytest.approx(0.99800598007, rel=1e-9)
        assert s.ratio_BC_ED == pytest.approx(0.368246769955, rel=1e-9)
        assert s.AB == 0.0 and s.BC == 0.0 and s.ED == 0.0
        assert s.flags == ("mirrored", "logspace")

    def test_channel_identities(self):
        s = geometric_sample(self.f, self.g, 0.11)
        assert s.FDp == s.BC
        assert s.DDp == pytest.approx(0.11 * 0.11, rel=1e-15)
        # ED is theta at the abscissa itself
        assert s.ED == pytest.approx(theta(0.11), rel=1e-12)

    def test_one_bisection_per_inverse(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return numeric_inverse(*args, **kwargs)

        monkeypatch.setattr(numeric, "numeric_inverse", counting)
        geometric_sample(self.f, self.g, 0.01)
        assert len(calls) == 2

    def test_bc_ed_bound_holds_down_to_tiny_t(self):
        ts = [10 ** (-k / 4) for k in range(4, 81)]  # 0.1 down to 1e-20
        table = counterexample_sweep(ts)
        for t, row in zip(ts, table.rows):
            assert abs(row.ratio_BC_ED - E_INV) <= 0.4 * t, t

    def test_bc_ed_bound_against_exact_inverse_e(self):
        # |ratio - 1/e| <= 0.4 t + 2.5 ulp(1/e), as derived in counterexample_ratio,
        # from the top of the bracket down to the smallest normal t
        with mpmath.workdps(50):
            e_inv = mpmath.exp(-1)
        ulp = 2.0 ** -54
        assert math.ulp(E_INV) == ulp
        ts = {0.5 * (sys.float_info.min / 0.5) ** (k / 599) for k in range(599)}
        ts = sorted(ts | {sys.float_info.min, 1e-20}, reverse=True)  # 1e-20: the double nearest 1/e
        for t, row in zip(ts, counterexample_sweep(ts).rows):
            assert abs(mpmath.mpf(row.ratio_BC_ED) - e_inv) <= 0.4 * t + 2.5 * ulp, t

    def test_tiny_t_log_ratio(self):
        row = counterexample_sweep([1e-100]).rows[0]
        assert row.log_ratio_DDp_FDp == pytest.approx(1e100, rel=1e-12)

    def test_hand_built_pair_takes_log_route(self):
        # the route follows the inverses p and q, not the object that built the pair
        f, g = InverseFn(p), InverseFn(q)
        for x in (0.11, 0.03, 0.02, 0.001):
            assert geometric_sample(f, g, x) == geometric_sample(self.f, self.g, x), x

    def test_divergence_diagnostic_frozen(self):
        q = self.g.inverse()
        expected = {0.1: 5.58545017362, 0.01: 90.8095602897, 0.001: 986.186488443}
        for t, value in expected.items():
            s = geometric_sample(self.f, self.g, q(t))
            assert s.log_ratio_DDp_FDp == pytest.approx(value, rel=1e-9)


class TestGeometricSampleGeneric:
    def setup_method(self):
        self.f = SeriesFn(eval_text("tan o sin", 12))
        self.g = SeriesFn(eval_text("sin o tan", 12))

    def test_analytic_pair_near_one(self):
        s = geometric_sample(self.f, self.g, 0.3)
        assert abs(s.ratio_AB_BC - 1) < 0.15
        assert abs(s.ratio_BC_ED - 1) < 0.15
        # against 30-digit evaluation of the true (non-truncated) pair
        assert s.ratio_AB_BC == pytest.approx(1.04387635036, rel=2e-3)
        assert s.ratio_BC_ED == pytest.approx(1.10686236751, rel=2e-3)

    def test_coincident_pair(self):
        s = geometric_sample(self.f, SeriesFn(eval_text("tan o sin", 12)), 0.2)
        assert s.AB == 0.0
        assert s.ED == 0.0
        assert math.isnan(s.ratio_AB_BC)
        assert "indeterminate" in s.flags

    @staticmethod
    def assert_flagged(row, x, flag):
        assert row.x == x and row.flags == (flag,)
        assert all(math.isnan(getattr(row, name)) for name in GeometricSample._fields[1:-1])

    def test_configuration_violated(self):
        f = SeriesFn(eval_text("x + x^2", 6))
        g = SeriesFn(eval_text("x + 2 * x^2", 6))
        self.assert_flagged(geometric_sample(f, g, 0.1), 0.1, "configuration_violated")

    def test_diagonal_g_rejected(self):
        f = SeriesFn(eval_text("x + x^2", 6))
        g = SeriesFn(eval_text("x", 6))
        self.assert_flagged(geometric_sample(f, g, 0.1), 0.1, "configuration_violated")

    def test_every_failure_is_a_returned_row(self):
        # each failure comes back as the flag of a row, so a direct call never raises
        x_plus = SeriesFn(eval_text("x + x^2", 6))
        tan = SeriesFn(eval_text("tan", 12))
        cases = [
            (x_plus, SeriesFn(eval_text("x + 2 * x^2", 6)), 0.1, "configuration_violated"),
            (x_plus, SeriesFn(eval_text("x", 6)), 0.1, "configuration_violated"),
            (tan, SeriesFn(eval_text("sin", 12)), 1e308, "configuration_violated"),  # f(x) = inf
            (self.f, self.g, 0.01, "unresolved"),
            (self.f, self.g, 1e-310, "unresolved"),  # f(x) = g(x) = x, but the series differ
        ]
        for f, g, x, flag in cases:
            self.assert_flagged(geometric_sample(f, g, x), x, flag)
        row = geometric_sample(self.f, SeriesFn(eval_text("tan o sin", 12)), 0.2)
        assert row.flags == ("indeterminate",) and row.AB == 0.0

    def test_series_inverse_is_built_once(self):
        assert self.f.inverse() is self.f.inverse()

    def test_series_and_bisection_inverses_agree(self):
        series = eval_text("tan o sin", 12)
        fn = SeriesFn(series)
        by_series = SeriesFn(compositional_inverse(series).inverse)(0.1)
        by_bisection = bisection_inverse(fn, 0.1, (0.0, 0.5))
        assert by_series == pytest.approx(by_bisection, abs=1e-10)
        # 30-digit inversion of the true function
        assert by_series == pytest.approx(0.09983440995178777, abs=1e-10)


class TestMvtRatio:
    def test_counterexample_near_origin(self):
        f, g = counterexample_pair()
        assert abs(geometric_sample(f, g, 1e-3).ratio_AB_BC - 1.0) < 1e-2

    def test_coincident_is_nan(self):
        f = SeriesFn(eval_text("tan o sin", 8))
        assert math.isnan(geometric_sample(f, f, 0.1).ratio_AB_BC)

    def test_analytic_pair(self):
        f = SeriesFn(eval_text("tan o sin", 12))
        g = SeriesFn(eval_text("sin o tan", 12))
        assert abs(geometric_sample(f, g, 0.1).ratio_AB_BC - 1.0) < 0.02


class TestCounterexampleRatio:
    def test_frozen_value(self):
        assert counterexample_ratio(0.1) == pytest.approx(0.4028903, abs=5e-8)

    def test_tends_to_inverse_e(self):
        assert abs(counterexample_ratio(1e-6) - E_INV) < 1e-5

    def test_matches_closed_form_everywhere(self):
        t = 1e-12
        while t < 0.5:
            expected = math.exp(-1.0 / (1.0 + t))
            assert abs(counterexample_ratio(t) - expected) <= 1e-12 * expected
            t *= 3.7

    def test_matches_raw_quotient_when_doubles_survive(self):
        for t in (0.05, 0.1, 0.2, 0.45):
            raw = theta(t) / theta(t + t * t)
            assert counterexample_ratio(t) == pytest.approx(raw, rel=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.2, 1.0, 1.5):
            with pytest.raises(InvalidInput):
                counterexample_ratio(bad)


class TestFlatness:
    def test_frozen_values(self):
        assert flatness_check(20, [0.01])[0] == pytest.approx(3.7200759760e-4, rel=1e-9)
        assert flatness_check(1, [0.5])[0] == pytest.approx(2 * math.exp(-2), rel=1e-12)

    def test_positive_and_eventually_decreasing(self):
        for n in (1, 5, 10, 20):
            values = flatness_check(n, [0.1, 0.05, 0.01, 0.005])
            assert all(v > 0 for v in values)
            assert values[-2] > values[-1]

    def test_domain(self):
        with pytest.raises(InvalidInput):
            flatness_check(0, [0.1])
        with pytest.raises(InvalidInput):
            flatness_check(41, [0.1])
        with pytest.raises(InvalidInput):
            flatness_check(3, [1.0])
        with pytest.raises(InvalidInput):
            flatness_check(3, [0.0])


class TestSweep:
    def test_requires_decreasing(self):
        f, g = counterexample_pair()
        with pytest.raises(InvalidInput):
            sweep(f, g, [0.1, 0.2])
        with pytest.raises(InvalidInput):
            sweep(f, g, [])

    @pytest.mark.parametrize("xs", [[0.3, math.nan, 0.1], [math.nan], [math.nan, 0.1]])
    def test_nan_abscissa_rejected(self, xs):
        series_pair = SeriesFn(eval_text("tan o sin", 12)), SeriesFn(eval_text("sin o tan", 12))
        for f, g in (counterexample_pair(), series_pair):
            with pytest.raises(InvalidInput, match="strictly decreasing"):
                sweep(f, g, xs)

    def test_pair_it_cannot_sample_is_refused_before_any_row(self):
        # only the flat pair or two callables yield rows; any other pair would
        # raise from each row as it is read, so sweep refuses it up front
        series = SeriesFn(eval_text("sin", 12))
        for f, g in [(InverseFn(q), InverseFn(p)), (InverseFn(p), series),
                     (series, InverseFn(q)), (InverseFn(p), InverseFn(p))]:
            with pytest.raises(InvalidInput, match="cannot sample"):
                sweep(f, g, [0.1, 0.05])

    def test_counterexample_trend(self):
        table = counterexample_sweep([0.1, 0.01, 0.001, 0.0001])
        ratios = [r.ratio_BC_ED for r in table.rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - E_INV) < 1e-3
        logs = [r.log_ratio_DDp_FDp for r in table.rows]
        assert all(b > a for a, b in zip(logs, logs[1:]))

    def test_flagged_row_continues(self):
        f, g = counterexample_pair()
        table = sweep(f, g, [0.8, 0.11])  # 0.8 is outside q(bracket)
        assert table.rows[0].flags == ("unresolved",)
        assert math.isnan(table.rows[0].ratio_BC_ED)
        assert table.rows[1].ratio_BC_ED == pytest.approx(0.402890321529, rel=1e-9)

    def test_zero_and_subnormal_x_are_unresolved(self):
        # -1/x, -1/u or -1/v overflows there: no log channel survives
        f, g = counterexample_pair()
        table = sweep(f, g, [0.1, 0.0])
        assert table.rows[0].flags == ("mirrored",)
        assert table.rows[1].flags == ("unresolved",)
        for xs in ([5e-324], [1e-310]):
            row = sweep(f, g, xs).rows[0]
            assert row.flags == ("unresolved",)
            assert math.isnan(row.ratio_BC_ED) and math.isnan(row.log_ratio_DDp_FDp)
        assert sweep(f, g, [3e-308]).rows[0].flags == ("mirrored", "logspace")

    def test_not_monotone_row_is_unresolved(self, monkeypatch):
        # a root that misses its residual is NaN, and its row unresolved;
        # the rows around it are still computed
        xs = [0.1, 0.01, 0.001]
        expected = list(sweep(*counterexample_pair(), xs).rows)
        solve = numeric.numeric_inverse

        def failing(base, y):
            return math.nan if y == 0.01 else solve(base, y)

        monkeypatch.setattr(numeric, "numeric_inverse", failing)
        rows = list(sweep(*counterexample_pair(), xs).rows)
        assert rows[1].flags == ("unresolved",) and math.isnan(rows[1].ratio_BC_ED)
        assert [rows[0], rows[2]] == [expected[0], expected[2]]

    def test_rows_are_computed_as_they_are_read(self, monkeypatch):
        computed = []
        sample = numeric.geometric_sample
        monkeypatch.setattr(numeric, "geometric_sample",
                            lambda f, g, x: computed.append(x) or sample(f, g, x))
        table = sweep(*counterexample_pair(), [0.1, 0.01, 0.001])
        assert len(table.rows) == 3 and computed == []
        assert table.rows[1].x == 0.01 and computed == [0.01]
        assert table.rows[-1].x == 0.001 and computed == [0.01, 0.001]
        "".join(table.pieces("json"))
        assert computed == [0.01, 0.001, 0.1, 0.01, 0.001]

    def test_all_rows_flagged(self):
        f = SeriesFn(eval_text("x + x^2", 6))
        g = SeriesFn(eval_text("x + 2 * x^2", 6))
        table = sweep(f, g, [0.2, 0.1])
        assert all(r.flags == ("configuration_violated",) for r in table.rows)

    def test_csv_shape(self):
        table = counterexample_sweep([0.1, 0.001])
        text = "".join(table.pieces("csv"))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        deep = lines[2].split(",")
        assert deep[1] == "0" and deep[2] == "0"  # underflowed raws print as 0
        assert deep[9] == "mirrored;logspace"

    def test_json_mirror(self):
        table = counterexample_sweep([0.1])
        obj = json.loads("".join(table.pieces("json")))
        assert obj["metadata"]["f"] == "inverse(p)"
        assert obj["metadata"]["g"] == "inverse(q)"
        assert len(obj["rows"]) == 1
        assert obj["rows"][0]["ratio_BC_ED"] == pytest.approx(0.402890321529, rel=1e-9)
        assert obj["metadata"]["bracket"] == [0.0, 0.5]
        assert obj["metadata"]["tol"] == 1e-12
        f = SeriesFn(eval_text("tan o sin", 8))
        g = SeriesFn(eval_text("sin o tan", 8))
        metadata = json.loads("".join(sweep(f, g, [0.1]).pieces("json")))["metadata"]
        assert metadata["bracket"] is None
        assert metadata["tol"] is None

    def test_csv_mirrors_json_rows(self):
        f = SeriesFn(eval_text("tan o sin", 12))
        g = SeriesFn(eval_text("sin o tan", 12))
        tables = [
            sweep(*counterexample_pair(), [0.8, 0.11, 0.001]),
            sweep(f, g, [0.3, 0.1, 0.001]),
            sweep(f, SeriesFn(eval_text("tan o sin", 12)), [0.2]),  # identical pair
            sweep(SeriesFn(eval_text("x + x^2", 6)), SeriesFn(eval_text("x + 2 * x^2", 6)), [0.1]),
        ]
        seen = set()
        for table in tables:
            header, *lines = "".join(table.pieces("csv")).rstrip("\n").split("\n")
            rows = json.loads("".join(table.pieces("json")))["rows"]
            assert len(lines) == len(rows)
            for line, row in zip(lines, rows):
                assert header.split(",") == [key for key in row if key != "ratio_DDp_FDp"]
                *numbers, flags = line.split(",")
                assert numbers == ["%.17g" % row[key] for key in header.split(",")[:-1]]
                assert flags == ";".join(row["flags"])
                seen.update(row["flags"])
        assert {"mirrored", "logspace", "unresolved", "indeterminate",
                "configuration_violated"} <= seen

    # the edges of one piece and of many: 8 full pieces, then one row more
    @pytest.mark.parametrize("count", [1, ROWS_PER_PIECE, ROWS_PER_PIECE + 1,
                                       8 * ROWS_PER_PIECE, 8 * ROWS_PER_PIECE + 1])
    def test_pieces_join_to_the_whole_table(self, count):
        f = SeriesFn(eval_text("tan o sin", 12))
        g = SeriesFn(eval_text("sin o tan", 12))
        violated = (SeriesFn(eval_text("x + x^2", 6)), SeriesFn(eval_text("x + 2 * x^2", 6)))
        # every flag, NaN ratios, and infinities of both signs
        pool = [
            *sweep(*counterexample_pair(), [0.8, 0.11, 0.001]).rows,
            *sweep(f, g, [0.3, 0.1, 0.001]).rows,
            *sweep(f, SeriesFn(eval_text("tan o sin", 12)), [0.2]).rows,  # identical pair
            *sweep(*violated, [0.1]).rows,
            GeometricSample(0.5, math.inf, 1.0, 2.0, 0.25, 1.0, math.inf, 0.5, 0.0, -math.inf, ()),
        ]
        assert {flag for row in pool for flag in row.flags} == {
            "mirrored", "logspace", "unresolved", "indeterminate", "configuration_violated"}
        rows = tuple(pool[k % len(pool)] for k in range(count))
        for bracket in (None, numeric.FLAT_BRACKET):
            table = SweepTable(rows, "f label", "g label", bracket)
            csv_pieces, json_pieces = list(table.pieces("csv")), list(table.pieces("json"))
            chunks = -(-count // ROWS_PER_PIECE)
            assert len(csv_pieces) == 1 + chunks
            assert len(json_pieces) == 2 + chunks
            assert "".join(csv_pieces) == _whole_csv(table)
            assert "".join(json_pieces) == _whole_json(table)

    def test_series_sweep_reverts_each_function_once(self, monkeypatch):
        calls = []

        def counting(series):
            calls.append(series)
            return compositional_inverse(series)

        monkeypatch.setattr(inversion, "compositional_inverse", counting)
        f = SeriesFn(eval_text("tan o sin", 12))
        g = SeriesFn(eval_text("sin o tan", 12))
        table = sweep(f, g, [0.3, 0.2, 0.1])
        assert len(table.rows) == 3
        assert len(calls) == 2
