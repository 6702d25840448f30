"""End-to-end checks of the command-line front end via subprocess."""

import contextlib
import decimal
import io
import json
import math
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc

import pytest

from arnold_lab import cli, numeric
from arnold_lab.cli import console_main
from arnold_lab.numeric import ROWS_PER_PIECE

E_INV = 0.36787944117144233


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "arnold_lab", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestEval:
    def test_identity_json(self):
        proc = run_cli("eval", "--expr", "x", "--order", "3")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["order"] == 3
        assert payload["coefficients"] == [
            {"num": "0", "den": "1"},
            {"num": "1", "den": "1"},
            {"num": "0", "den": "1"},
            {"num": "0", "den": "1"},
        ]

    def test_text_format(self):
        proc = run_cli("eval", "--expr", "sin", "--order", "3", "--format", "text")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "order 3"
        assert lines[2] == "x^1: 1"
        assert lines[4] == "x^3: -1/6"

    def test_parse_error_exit_2(self):
        proc = run_cli("eval", "--expr", "sin((", "--order", "5")
        assert proc.returncode == 2
        assert "offset 4" in proc.stderr

    def test_order_zero_is_usage_error(self):
        proc = run_cli("eval", "--expr", "x", "--order", "0")
        assert proc.returncode == 4

    def test_order_above_bound_is_usage_error(self):
        # unbounded, the two huge orders end in MemoryError or OverflowError
        for order in ("10001", "4611686018427387904", "9223372036854775807"):
            proc = run_cli("eval", "--expr", "x", "--order", order)
            assert proc.returncode == 4, order
            assert "--order must be <= 10000" in proc.stderr

    def test_missing_required_flag(self):
        proc = run_cli("eval", "--expr", "x")
        assert proc.returncode == 4

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_digits_past_int_max_str_digits(self, fmt):
        # 1559! has 4303 digits, past the 4300 that str() converts by default
        proc = run_cli("eval", "--expr", "sin", "--order", "1559", "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        digits = str(decimal.Decimal(math.factorial(1559)))  # Decimal(int) has no digit limit
        assert len(digits) == 4303
        if fmt == "json":
            assert json.loads(proc.stdout)["coefficients"][-1] == {"num": "-1", "den": digits}
        else:
            assert proc.stdout.endswith(f"\nx^1559: -1/{digits}\n")

    def test_digits_past_int_max_str_digits_are_not_read_back(self):
        # the limit still guards input: the last coefficient printed above is refused
        digits = str(decimal.Decimal(math.factorial(1559)))
        for den in (f'"{digits}"', digits):
            blob = '{"order": 1, "coefficients": [{"num": 0, "den": 1}, {"num": 1, "den": %s}]}'
            proc = run_cli("invert", "--series-json", blob % den)
            assert proc.returncode == 3, den[:1]
            assert proc.stderr.startswith("arnold-lab: error: malformed"), proc.stderr


class TestInvert:
    def test_expr_frozen(self):
        proc = run_cli("invert", "--expr", "x + x^2", "--order", "5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        nums = [c["num"] for c in payload["inverse"]["coefficients"]]
        assert nums == ["0", "1", "-1", "2", "-5", "14"]
        assert [c["num"] for c in payload["residuals"]] == ["0", "2", "-5", "14"]

    def test_with_residuals(self):
        # residuals are always printed, and the flag that once asked for them is gone
        proc = run_cli("invert", "--expr", "x + x^2", "--order", "4")
        payload = json.loads(proc.stdout)
        assert [c["num"] for c in payload["residuals"]] == ["0", "2", "-5"]
        for flag in ("--with-residuals", "--with-residuals=yes"):
            proc = run_cli("invert", "--expr", "x + x^2", "--order", "4", flag)
            assert (proc.returncode, proc.stdout) == (4, "")
            assert proc.stderr == f"arnold-lab: error: unrecognized arguments: {flag}\n"

    def test_not_invertible_exit_3(self):
        proc = run_cli("invert", "--expr", "x^2", "--order", "5")
        assert proc.returncode == 3

    def test_series_json_source(self):
        blob = json.dumps(
            {
                "order": 3,
                "coefficients": [
                    {"num": "0", "den": "1"},
                    {"num": "1", "den": "1"},
                    {"num": "1", "den": "1"},
                    {"num": "0", "den": "1"},
                ],
            }
        )
        proc = run_cli("invert", "--series-json", blob)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert [c["num"] for c in payload["inverse"]["coefficients"]] == ["0", "1", "-1", "2"]

    def test_order_above_payload_is_usage(self):
        blob = json.dumps(
            {
                "order": 2,
                "coefficients": [
                    {"num": "0", "den": "1"},
                    {"num": "1", "den": "1"},
                    {"num": "1", "den": "1"},
                ],
            }
        )
        proc = run_cli("invert", "--series-json", blob, "--order", "9")
        assert proc.returncode == 4

    def test_malformed_json_is_domain_error(self):
        proc = run_cli("invert", "--series-json", "{not json")
        assert proc.returncode == 3

    def test_deeply_nested_json_is_domain_error(self):
        proc = run_cli("invert", "--series-json", "[" * 100_000)
        assert proc.returncode == 3
        assert proc.stderr.startswith("arnold-lab: error: malformed JSON: maximum recursion")

    def test_zero_denominator_is_domain_error(self):
        blob = json.dumps(
            {
                "order": 1,
                "coefficients": [{"num": "0", "den": "1"}, {"num": "1", "den": "0"}],
            }
        )
        proc = run_cli("invert", "--series-json", blob)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    def test_non_integer_json_is_domain_error(self):
        zero = '{"num": "0", "den": "1"}'
        blobs = [
            '{"order": 1, "coefficients": [%s, {"num": 1.9, "den": "1"}]}' % zero,
            '{"order": 1, "coefficients": [%s, {"num": 1, "den": true}]}' % zero,
            '{"order": 1e400, "coefficients": [%s]}' % zero,
            '{"order": 1, "coefficients": [%s, {"num": 1e400, "den": 1}]}' % zero,
        ]
        for blob in blobs:
            proc = run_cli("invert", "--series-json", blob)
            assert proc.returncode == 3, blob
            assert "Traceback" not in proc.stderr, blob

    def test_expr_and_json_conflict(self):
        proc = run_cli("invert", "--expr", "x", "--series-json", "{}", "--order", "3")
        assert proc.returncode == 4


class TestLimit:
    def test_headline_pair(self):
        proc = run_cli("limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "12")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["N"] == 7
        assert payload["limit"] == {"num": "1", "den": "1"}
        assert payload["numerator_leading"] == {"num": "1", "den": "30"}

    def test_identical_expressions_exit_3(self):
        proc = run_cli("limit", "--f", "sin", "--g", "sin", "--order", "10")
        assert proc.returncode == 3

    def test_order_N_suffices(self):
        # the pair first differs at x^7; order 7 gives the inverses exactly through it
        proc = run_cli("limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "7")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["N"] == 7
        assert payload["limit"] == {"num": "1", "den": "1"}
        longer = json.loads(
            run_cli("limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "8").stdout
        )
        for side in ("f_inverse", "g_inverse"):
            assert payload[side]["order"] == 7
            assert payload[side]["coefficients"] == longer[side]["coefficients"][:8]

    def test_agreeing_through_order_exit_3(self):
        proc = run_cli("limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "6")
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1 and "agree through order 6" in proc.stderr

    def test_condition_violated(self):
        proc = run_cli("limit", "--f", "cos", "--g", "sin", "--order", "8")
        assert proc.returncode == 3


class TestCounterexample:
    def test_csv_output(self):
        proc = run_cli(
            "counterexample", "--t-min", "1e-4", "--t-max", "0.1", "--points", "5"
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("x,AB,BC,ED,DDp,FDp")
        last = lines[-1].split(",")
        assert last[7].startswith("0.3679") or last[7].startswith("0.368")

    def test_json_format(self):
        proc = run_cli(
            "counterexample",
            "--t-min", "1e-3", "--t-max", "0.1", "--points", "3",
            "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert len(payload["rows"]) == 3
        ratios = [row["ratio_BC_ED"] for row in payload["rows"]]
        assert ratios[0] > ratios[-1] > E_INV

    def test_single_point_is_t_max(self):
        proc = run_cli(
            "counterexample", "--t-min", "1e-3", "--t-max", "0.2", "--points", "1"
        )
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2
        # abscissa is q(t_max) = 0.2 + 0.04
        assert float(lines[1].split(",")[0]) == pytest.approx(0.24, rel=1e-12)

    def test_out_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        proc = run_cli(
            "counterexample",
            "--t-min", "1e-3", "--t-max", "0.1", "--points", "2",
            "--out", str(target),
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        body = target.read_text()
        assert body.startswith("x,AB,BC,ED")
        assert len(body.strip().split("\n")) == 3

    def test_out_to_missing_directory_is_usage(self, tmp_path):
        target = str(tmp_path / "missing" / "rows.csv")
        proc = run_cli(
            "counterexample",
            "--t-min", "1e-3", "--t-max", "1e-2", "--points", "3",
            "--out", target,
        )
        assert proc.returncode == 4
        assert target in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_t_min_is_usage(self):
        proc = run_cli("counterexample", "--t-min", "0", "--t-max", "0.1", "--points", "3")
        assert proc.returncode == 4

    def test_t_max_past_half_is_usage(self):
        proc = run_cli("counterexample", "--t-min", "0.1", "--t-max", "0.7", "--points", "3")
        assert proc.returncode == 4

    def test_collapsed_grid_is_usage(self):
        # two distinct t that q rounds to one x, and t that round to one double
        for t_min, t_max, points in (
            ("0.22000000000000008", "0.2200000000000001", "2"),
            ("0.1", "0.10000000000000002", "5"),
        ):
            proc = run_cli(
                "counterexample", "--t-min", t_min, "--t-max", t_max, "--points", points
            )
            assert proc.returncode == 4, t_min
            assert proc.stdout == ""
            assert f"--points {points} over [{t_min}, {t_max}]" in proc.stderr

    def test_subnormal_t_min_is_usage(self):
        # the log channels hold -1/t: it overflows below 1/DBL_MAX, and one ulp
        # above that the inverse still rounds t down to 1/DBL_MAX
        for t_min in ("5e-324", "5.56268464626801e-309", "2.225073858507201e-308"):
            proc = run_cli(
                "counterexample", "--t-min", t_min, "--t-max", "1e-300", "--points", "4"
            )
            assert proc.returncode == 4, t_min
            assert proc.stdout == ""
            assert "2.2250738585072014e-308" in proc.stderr

    def test_smallest_normal_t_min_is_finite(self):
        proc = run_cli(
            "counterexample",
            "--t-min", "2.2250738585072014e-308", "--t-max", "1e-300", "--points", "4",
        )
        assert proc.returncode == 0
        last = proc.stdout.strip().split("\n")[-1].split(",")
        # log(DDp/FDp) = 2 log x + 1/t
        assert float(last[8]) == pytest.approx(1 / 2.2250738585072014e-308, rel=1e-12)
        assert last[9] == "mirrored;logspace"

    @pytest.mark.parametrize("t_range", [
        ("1e-6", "1e-1", "25"),  # the README example
        ("2.2250738585072014e-308", "1e-300", "4"),
        ("1e-20", "0.02", "7"),  # both roots are the same double on every row
    ])
    def test_every_row_is_mirrored(self, t_range):
        # f(x) = u < v = g(x) < x, since v - u = theta(u) / (1 + u + v) > 0
        t_min, t_max, points = t_range
        proc = run_cli("counterexample", "--t-min", t_min, "--t-max", t_max, "--points", points)
        assert proc.returncode == 0
        rows = proc.stdout.strip().split("\n")[1:]
        assert len(rows) == int(points)
        assert all(row.split(",")[9].split(";")[0] == "mirrored" for row in rows), rows


class TestSweep:
    def test_explicit_xs(self):
        proc = run_cli(
            "sweep",
            "--f", "tan o sin", "--g", "sin o tan",
            "--xs", "0.3,0.2,0.1",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 4
        gaps = [abs(float(line.split(",")[6]) - 1.0) for line in lines[1:]]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_log_spaced_grid(self):
        proc = run_cli(
            "sweep",
            "--f", "tan o sin", "--g", "sin o tan",
            "--x-min", "0.05", "--x-max", "0.4", "--points", "4",
            "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        xs = [row["x"] for row in payload["rows"]]
        assert xs[0] == pytest.approx(0.4) and xs[-1] == pytest.approx(0.05)
        assert all(b < a for a, b in zip(xs, xs[1:]))

    def test_all_rows_violated_exit_5(self):
        proc = run_cli(
            "sweep", "--f", "x + x^2", "--g", "x + 2 * x^2", "--xs", "0.2,0.1"
        )
        assert proc.returncode == 5
        assert "configuration_violated" in proc.stdout

    def test_non_invertible_pair_is_domain_error(self):
        # x^2 has no compositional inverse; that is found before any row is
        # compared, so the exit code does not depend on the grid
        for xs in ("0.2,0.1", "0.9,0.8"):
            for f, g in (("x^2", "x^3"), ("sin", "x^2")):
                proc = run_cli("sweep", "--f", f, "--g", g, "--xs", xs)
                assert proc.returncode == 3, (f, g, xs)
                assert proc.stdout == ""
                assert "no compositional inverse" in proc.stderr

    def test_overflowing_rows_are_violated(self):
        # both series overflow to inf there, and inf == inf must not read as f(x) = g(x)
        for xs in ("1e300,1e200", "1e160,1e155"):
            proc = run_cli("sweep", "--f", "x + x^2", "--g", "x + 2 * x^2", "--xs", xs)
            assert proc.returncode == 5
            assert proc.stdout.count("configuration_violated") == 2
            assert "indeterminate" not in proc.stdout

    def test_rows_below_rounding_floor_are_unresolved(self):
        # the pair differs at x^7, so its gaps sink under the rounding of x, and
        # where f(x) and g(x) round to one double the series still differ
        proc = run_cli(
            "sweep", "--f", "tan o sin", "--g", "sin o tan",
            "--xs", "0.03,0.02,0.01,0.005,0.003,0.001",
        )
        assert proc.returncode == 0
        flags = [row.split(",")[-1] for row in proc.stdout.strip().split("\n")[1:]]
        assert flags == ["", "unresolved", "unresolved", "unresolved", "unresolved", "unresolved"]

    def test_subnormal_grid_flags_by_the_series(self):
        # f(x) = g(x) = x on every row: indeterminate only where the series agree
        grid = ("--x-min", "1e-320", "--x-max", "1e-300", "--points", "3")
        for g, code, flag in (("sin o tan", 5, "unresolved"), ("tan o sin", 0, "indeterminate")):
            proc = run_cli("sweep", "--f", "tan o sin", "--g", g, *grid)
            assert proc.returncode == code, g
            flags = [row.split(",")[-1] for row in proc.stdout.strip().split("\n")[1:]]
            assert flags == [flag] * 3, g

    def test_all_rows_below_floor_exit_5(self):
        proc = run_cli("sweep", "--f", "tan o sin", "--g", "sin o tan", "--xs", "0.01,0.005")
        assert proc.returncode == 5
        assert proc.stdout.count("unresolved") == 2

    def test_bad_xs_is_usage(self):
        proc = run_cli("sweep", "--f", "x", "--g", "sin", "--xs", "0.3,abc")
        assert proc.returncode == 4
        # non-finite abscissas would otherwise print unflagged NaN rows
        for grid in (
            ["--xs", "nan"],
            ["--xs", "inf,0.1"],
            ["--xs", "0.1,nan"],
            ["--x-min", "0.1", "--x-max", "inf", "--points", "3"],
        ):
            proc = run_cli("sweep", "--f", "x", "--g", "sin", *grid)
            assert proc.returncode == 4, grid

    def test_negative_xs_are_mirrored(self):
        pair = ("sweep", "--f", "tan o sin", "--g", "sin o tan")
        proc = run_cli(*pair, "--xs=-0.1,-0.2")
        assert proc.returncode == 0
        rows = proc.stdout.strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == ["mirrored", "mirrored"]
        # a value may start with "-"; the spaced form prints the same
        for spaced in (("--xs", "-0.1,-0.2"), ("--xs", "-.1,-0.2")):
            same = run_cli(*pair, *spaced)
            assert (same.returncode, same.stdout, same.stderr) == (0, proc.stdout, ""), spaced
        # a flag after --xs is still a flag
        missing = run_cli(*pair, "--xs", "--format", "json")
        assert missing.returncode == 4 and missing.stdout == ""
        assert "argument --xs: expected one argument" in missing.stderr

    def test_out_to_directory_is_usage(self, tmp_path):
        proc = run_cli("sweep", "--f", "x", "--g", "sin", "--xs", "0.1", "--out", str(tmp_path))
        assert proc.returncode == 4
        assert str(tmp_path) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_xs_with_range_flag_is_usage(self):
        for extra in (["--x-min", "0.2"], ["--x-max", "0.3"], ["--points", "1000000"],
                      ["--x-min", "0.2", "--x-max", "0.3", "--points", "1000000"]):
            proc = run_cli("sweep", "--f", "tan o sin", "--g", "sin o tan", "--xs", "0.1", *extra)
            assert proc.returncode == 4, extra
            assert proc.stdout == ""
            assert "--xs excludes" in proc.stderr

    def test_missing_grid_is_usage(self):
        proc = run_cli("sweep", "--f", "x", "--g", "sin", "--x-min", "0.1")
        assert proc.returncode == 4

    def test_collapsed_grid_is_usage(self):
        proc = run_cli(
            "sweep", "--f", "tan o sin", "--g", "sin o tan",
            "--x-min", "0.1", "--x-max", "0.1000000000000001", "--points", "5",
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "--points 5 over [0.1, 0.1000000000000001]" in proc.stderr

    def test_increasing_xs_rejected(self):
        for xs in ("0.1,0.2", "0.1,0.1"):  # a repeated value too, as a --points grid's is
            proc = run_cli("sweep", "--f", "tan o sin", "--g", "sin o tan", "--xs", xs)
            assert (proc.returncode, proc.stdout) == (4, ""), xs
            assert proc.stderr == "arnold-lab: error: --xs must be strictly decreasing\n", xs

    def test_parse_error_in_g(self):
        proc = run_cli("sweep", "--f", "x + x^2", "--g", "tan o", "--xs", "0.1")
        assert proc.returncode == 2
        assert "offset 6" in proc.stderr

    def test_thread_env_is_ignored(self):
        argv = ("sweep", "--f", "tan o sin", "--g", "sin o tan", "--xs", "0.3,0.2")
        unset = run_cli(*argv)
        malformed = run_cli(*argv, env_extra={"ARNOLD_LAB_THREADS": "zero"})
        assert unset.returncode == malformed.returncode == 0
        assert malformed.stdout == unset.stdout and malformed.stderr == ""


def _address_space_limit():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


class TestPointsBound:
    # unbounded, a grid of 10^8 points ends in a MemoryError under this limit;
    # a table at the bound itself peaks at about 0.5 GiB and is not run here
    GRIDS = (
        ("counterexample", "--t-min", "1e-6", "--t-max", "0.1"),
        ("sweep", "--f", "tan o sin", "--g", "sin o tan", "--x-min", "0.05", "--x-max", "0.4"),
    )

    @pytest.mark.parametrize("grid", GRIDS, ids=("counterexample", "sweep"))
    def test_points_above_bound_is_usage(self, grid):
        for points in ("100000000", "1000001"):
            proc = subprocess.run(
                [sys.executable, "-m", "arnold_lab", *grid, "--points", points],
                capture_output=True,
                text=True,
                timeout=60,
                preexec_fn=_address_space_limit,
            )
            assert proc.returncode == 4, (points, proc.stderr[-300:])
            assert proc.stdout == ""
            assert "--points must be <= 1000000" in proc.stderr


class _RecordingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def _in_process(argv):
    out, err = _RecordingStdout(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = console_main(argv)
    return code, out, err.getvalue()


def _child_env(unbuffered):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _assert_write_failed(code, stderr):
    assert code == 4, stderr
    lines = [line for line in stderr.splitlines() if "cannot write" in line]
    assert len(lines) == 1 and lines[0].startswith("arnold-lab: error: cannot write"), stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
BUFFERING = pytest.mark.parametrize("unbuffered", [True, False], ids=("unbuffered", "buffered"))
SMALL_TABLE = ("counterexample", "--t-min", "1e-6", "--t-max", "0.1", "--points", "50")


class TestWrites:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_is_written_a_piece_at_a_time(self, fmt):
        points = str(int(2.5 * ROWS_PER_PIECE))
        code, out, err = _in_process([
            "sweep", "--f", "tan o sin", "--g", "sin o tan",
            "--x-min", "0.05", "--x-max", "0.4", "--points", points, "--format", fmt,
        ])
        assert code == 0, err
        text = out.getvalue()
        assert len(out.sizes) >= 3
        assert max(out.sizes) <= len(text) / 2

    @pytest.mark.parametrize("argv", [
        ("sweep", "--f", "tan o sin", "--g", "sin o tan", "--x-min", "0.05", "--x-max", "0.4",
         "--format", "json"),
        ("counterexample", "--t-min", "1e-6", "--t-max", "0.1"),
    ], ids=("sweep-json", "counterexample-csv"))
    def test_table_is_not_held_in_memory(self, argv, tmp_path):
        out = str(tmp_path / "table")
        assert console_main([*argv, "--points", "2", "--out", out]) == 0  # imports what it runs
        tracemalloc.start()
        try:
            code = console_main([*argv, "--points", "20000", "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # the grid's floats take about 0.6 MiB; all 20000 rows at once took 7-10 MiB
        assert peak < 2 * 2**20, peak

    def test_each_row_is_computed_once(self, monkeypatch, tmp_path):
        computed = []
        sample = numeric.geometric_sample
        monkeypatch.setattr(numeric, "geometric_sample",
                            lambda f, g, x: computed.append(x) or sample(f, g, x))
        for fmt in ("csv", "json"):
            computed.clear()
            assert console_main(["sweep", "--f", "tan o sin", "--g", "sin o tan",
                                 "--x-min", "0.05", "--x-max", "0.4", "--points", "300",
                                 "--format", fmt, "--out", str(tmp_path / "table")]) == 0
            assert len(computed) == len(set(computed)) == 300

    @needs_dev_full
    def test_out_to_full_device_is_usage(self):
        code, out, err = _in_process([*SMALL_TABLE, "--out", "/dev/full"])
        assert out.getvalue() == ""
        _assert_write_failed(code, err)
        assert "cannot write --out '/dev/full'" in err

    @needs_dev_full
    @BUFFERING
    @pytest.mark.parametrize("argv", [("eval", "--expr", "sin", "--order", "5"), SMALL_TABLE],
                             ids=("eval", "counterexample"))
    def test_stdout_to_full_device_is_usage(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "arnold_lab", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=_child_env(unbuffered), timeout=60,
            )
        _assert_write_failed(proc.returncode, proc.stderr)
        assert "cannot write stdout" in proc.stderr

    @needs_dev_full
    @BUFFERING
    @pytest.mark.parametrize("argv", [("--help",), ("sweep", "--help"), ("counterexample", "--help")],
                             ids=("top", "sweep", "counterexample"))
    def test_help_to_full_device_is_usage(self, argv, unbuffered):
        # the help is written through _emit, like any other output
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "arnold_lab", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=_child_env(unbuffered), timeout=60,
            )
        _assert_write_failed(proc.returncode, proc.stderr)
        assert "cannot write stdout" in proc.stderr

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ("eval", "--expr", "sin", "--order", "3"), ("eval", "--help"),
        ("limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "12"),
    ], ids=("eval", "help", "limit"))
    def test_installed_script_to_full_device_is_usage(self, argv):
        # called as pip's wrapper calls it, sys.exit(target()), and buffered:
        # the target must flush stdout itself, or the exit-time flush fails again
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        module, name = re.search(r'^arnold-lab = "([\w.]+):(\w+)"$', pyproject.read_text(),
                                 re.MULTILINE).groups()
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; from {module} import {name}; sys.exit({name}())",
                 *argv],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=_child_env(unbuffered=False), timeout=60,
            )
        _assert_write_failed(proc.returncode, proc.stderr)
        assert "cannot write stdout" in proc.stderr

    @needs_dev_full
    @BUFFERING
    @pytest.mark.parametrize("argv, code", [
        (("limit", "--f", "x", "--g", "x", "--order", "3"), 3),
        (("eval", "--expr", "sin((", "--order", "3"), 2),
        (("limit", "--f", "x", "--g", "x"), 4),
    ], ids=("domain-error", "parse-error", "usage-error"))
    def test_stderr_to_full_device_keeps_the_exit_code(self, argv, code, unbuffered):
        # the error line cannot be written, and neither can a traceback or the exit-time flush
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "arnold_lab", *argv],
                stdout=subprocess.PIPE, stderr=full, text=True,
                env=_child_env(unbuffered), timeout=60,
            )
        assert (proc.returncode, proc.stdout) == (code, "")

    @BUFFERING
    def test_reader_that_closes_early_is_usage(self, unbuffered):
        # 2000 rows are far more than the pipe holds, so the writer is still
        # writing when the reader closes
        proc = subprocess.Popen(
            [sys.executable, "-m", "arnold_lab", "counterexample",
             "--t-min", "1e-6", "--t-max", "0.1", "--points", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_child_env(unbuffered),
        )
        assert proc.stdout.read(10) == b"x,AB,BC,ED"
        proc.stdout.close()
        stderr = proc.communicate(timeout=60)[1].decode()
        _assert_write_failed(proc.returncode, stderr)
        assert "cannot write stdout" in stderr


def _sh(command):
    # sh closes the descriptor before exec, so Python starts with sys.stdout or sys.stderr None
    return subprocess.run(["sh", "-c", f"{shlex.quote(sys.executable)} -m arnold_lab {command}"],
                          capture_output=True, text=True, timeout=60)


class TestClosedStreams:
    def test_closed_stdout_is_usage(self):
        proc = _sh("eval --expr sin --order 3 >&-")
        assert proc.returncode == 4
        assert proc.stderr == "arnold-lab: error: cannot write stdout: Bad file descriptor\n"

    def test_closed_stderr_keeps_the_exit_code(self):
        proc = _sh("limit --f x --g x --order 3 2>&-")
        assert proc.returncode == 3
        assert proc.stdout == proc.stderr == ""


# calls cli.main as the installed script does, with an exit handler registered first
_MAIN_WITH_EXIT_HANDLER = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "from arnold_lab.cli import main\n"
    "main()\n"
)


class TestExit:
    @pytest.mark.parametrize("argv, code", [
        (("limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "12"), 0),
        (("limit", "--f", "x", "--g", "x", "--order", "3"), 3),
    ], ids=("resolved", "domain-error"))
    def test_exit_handlers_run_after_the_freeze(self, argv, code):
        module = run_cli(*argv)
        proc = subprocess.run([sys.executable, "-c", _MAIN_WITH_EXIT_HANDLER, *argv],
                              capture_output=True, text=True, timeout=60)
        assert module.returncode == proc.returncode == code
        assert proc.stdout == module.stdout
        assert proc.stderr == module.stderr + "frozen at exit: True\n"

    def test_profiler_still_reports(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "arnold_lab", "eval", "--expr", "sin", "--order", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith('{"order": 3, ')
        assert re.search(r"^ +\d+ function calls", proc.stdout, re.MULTILINE), proc.stdout[:500]


class TestFastPath:
    """Every README example and benchmark invocation parses to its own command."""

    def test_readme_examples(self):
        from test_readme import readme_commands

        commands = readme_commands()
        assert len(commands) == 7
        for command in commands:
            argv = shlex.split(command)[1:]
            assert cli._parse(argv).command == argv[0], command

    @pytest.mark.parametrize("workload", ["exact_limit", "flat_sweep", "series_sweep"])
    def test_benchmark_invocations(self, workload, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "clibench"))
        import workloads

        for seed in (1, 2):
            for invocation in workloads.WORKLOADS[workload](seed).round():
                argv = list(invocation.argv)
                assert cli._parse(argv).command == argv[0], argv


LIMIT = ("limit", "--f", "tan o sin", "--g", "sin o tan")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        (),
        ("frobnicate",),
        ("--order", "3"),
        (*LIMIT, "--order", "3", "--zzz", "1"),
        (*LIMIT, "--order", "3", "stray"),
        ("sweep", "--f", "x", "--g", "x", "--x", "0.1"),
        (*LIMIT, "--order"),
        (*LIMIT, "--order", "--f"),
        (*LIMIT, "--order", "abc"),
        ("counterexample", "--t-min", "1e-6", "--t-max", "0.1", "--points", "2.5"),
        ("eval", "--expr", "x", "--order", "3", "--format", "csv"),
        (*LIMIT, "--order", "3", "--order", "4"),
        (*LIMIT, "--ord", "3", "--order=4"),
        ("limit", "--f", "x", "--order", "3"),
        ("invert", "--order", "3"),
        ("invert", "--expr", "x", "--series-json", "{}"),
        ("invert", "--expr", "x", "--order", "3", "--with-residuals=yes"),
        # a bound is checked as its flag is read: before the parse error, and before -h
        ("eval", "--expr", "sin((", "--order", "0"),
        ("invert", "--expr", "sin((", "--order", "0"),
        ("eval", "--expr", "x", "--order", "0", "--help"),
    ], ids=("no-command", "unknown-command", "flag-without-command", "unknown-flag",
            "stray-token", "ambiguous-flag", "missing-value", "flag-for-value", "bad-int",
            "bad-int-for-points", "bad-choice", "repeated-flag", "repeated-abbreviated",
            "missing-required", "one-of-missing", "one-of-both", "unknown-flag-with-value",
            "order-before-parse-error", "order-before-invert-parse-error", "order-before-help"))
    def test_one_line_on_stderr(self, argv):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        assert proc.stderr.startswith("arnold-lab: error: "), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("canonical, spelling", [
        ((*LIMIT, "--order", "12"), (*LIMIT, "--order=12")),
        ((*LIMIT, "--order", "12"), (*LIMIT, "--ord", "12")),
        ((*LIMIT, "--order", "12"), ("limit", "--ord=12", "--g", "sin o tan", "--f=tan o sin")),
        (("sweep", "--f", "tan o sin", "--g", "sin o tan", "--xs=-0.1,-0.2"),
         ("sweep", "--f", "tan o sin", "--g", "sin o tan", "--xs", "-0.1,-0.2")),
    ], ids=("equals", "abbreviated", "both", "dash-value"))
    def test_spellings_print_the_same(self, canonical, spelling):
        expected, proc = run_cli(*canonical), run_cli(*spelling)
        assert expected.returncode == 0 and expected.stdout
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, expected.stderr)

    @pytest.mark.parametrize("argv", [
        ("--help",), ("-h",), ("sweep", "--help"), ("invert", "-h"), ("eval", "--he"),
        ("limit", "--f", "x", "--zzz", "--help"),
    ], ids=("top", "top-short", "sweep", "invert", "abbreviated", "after-stray"))
    def test_help_returns_0(self, argv):
        code, out, err = _in_process(list(argv))
        assert (code, err) == (0, "")
        text = out.getvalue()
        assert text.startswith("usage: arnold-lab ") and "-h, --help" in text
        if argv[0].startswith("-"):
            assert all(name in text for name in cli._OPTIONS)
        else:
            assert all(flag in text for flag in cli._OPTIONS[argv[0]][1])


class TestTopLevel:
    def test_no_command_is_usage(self):
        proc = run_cli()
        assert proc.returncode == 4

    def test_unknown_command_is_usage(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 4

    def test_console_script_entry(self):
        assert console_main(["eval", "--expr", "x", "--order", "2"]) == 0
