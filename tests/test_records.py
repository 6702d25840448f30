"""The immutable records (series, expression nodes, reports, sweep rows)
and the modules a start of the command line imports."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arnold_lab.errors import InvalidInput
from arnold_lab.expressions import Difference, Monomial, Primitive, Sum, parse
from arnold_lab.numeric import GeometricSample, SweepTable
from arnold_lab.series import TruncatedSeries, make_series

ROOT = Path(__file__).resolve().parents[1]

SLOW_IMPORTS = ("dataclasses", "inspect", "typing")
# the exact side of the package, and what only it uses
EXACT_SIDE = ("fractions", "decimal", "json", "arnold_lab.series", "arnold_lab.inversion",
              "arnold_lab.elementary", "arnold_lab.expressions", "arnold_lab.limits")


def sample(**changes) -> GeometricSample:
    values = dict(x=0.1, AB=1.0, BC=2.0, ED=3.0, DDp=4.0, FDp=2.0, ratio_AB_BC=0.5,
                  ratio_BC_ED=2 / 3, ratio_DDp_FDp=2.0, log_ratio_DDp_FDp=0.69, flags=())
    return GeometricSample(**{**values, **changes})


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running code."""
    # -S keeps site, and whatever its .pth files import, out of the picture
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; {code}; print(*sorted(sys.modules), sep='\\n')"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_command_line_imports_no_slow_modules():
    loaded = loaded_modules("import arnold_lab.cli")
    assert "arnold_lab.cli" in loaded
    assert loaded.isdisjoint(SLOW_IMPORTS), sorted(loaded & set(SLOW_IMPORTS))
    assert "arnold_lab.numeric" not in loaded


def test_package_imports_no_submodule():
    loaded = loaded_modules("import arnold_lab")
    assert "arnold_lab" in loaded
    assert not [name for name in loaded if name.startswith("arnold_lab.")]


@pytest.mark.parametrize("argv", [
    ["limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "8"],
    ["eval", "--expr", "tan o sin", "--order", "8"],
    ["invert", "--expr", "tan o sin", "--order", "8"],
], ids=("limit", "eval", "invert"))
def test_exact_side_loads_no_numeric(argv):
    # these subcommands have no --out, so stdout goes to the null device
    loaded = loaded_modules(f"import os; from arnold_lab.cli import console_main; "
                            f"sink = sys.stdout = open(os.devnull, 'w'); "
                            f"rc = console_main({argv!r}); "
                            f"sys.stdout = sys.__stdout__; sink.close(); assert rc == 0")
    assert "arnold_lab.numeric" not in loaded


def test_counterexample_loads_none_of_the_exact_side(tmp_path):
    argv = ["counterexample", "--t-min", "1e-6", "--t-max", "0.1", "--points", "25",
            "--out", str(tmp_path / "table.csv")]
    loaded = loaded_modules(f"from arnold_lab.cli import console_main; "
                            f"assert console_main({argv!r}) == 0")
    assert "arnold_lab.numeric" in loaded
    assert loaded.isdisjoint(SLOW_IMPORTS), sorted(loaded & set(SLOW_IMPORTS))
    assert loaded.isdisjoint(EXACT_SIDE), sorted(loaded & set(EXACT_SIDE))
    assert (tmp_path / "table.csv").read_text().count("\n") == 26


def test_equality_needs_the_same_type():
    a, b = Primitive("sin"), Monomial(Fraction(1), 2)
    assert Sum(a, b) == Sum(a, b)
    assert Sum(a, b) != Difference(a, b)
    assert Primitive("x") != ("x",)
    assert make_series([0, 1]) != (Fraction(0), Fraction(1))


def test_equal_parses_hash_equal():
    first, second = parse("tan o sin - 2 * x^3"), parse("tan o sin - 2 * x^3")
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first, second, parse("sin o tan")}) == 2


def test_fields_are_read_only():
    series, row = make_series([0, 1]), sample()
    with pytest.raises(AttributeError):
        series.coefficients = (Fraction(1),)
    with pytest.raises(AttributeError):
        row.AB = 0.0
    with pytest.raises(AttributeError):
        del row.flags
    assert series == make_series([0, 1]) and row == sample()


def test_construction_by_position_or_keyword():
    assert Monomial(Fraction(2), 3) == Monomial(exponent=3, coefficient=Fraction(2))
    assert SweepTable((), "f", "g", (0.0, 0.5)).bracket == (0.0, 0.5)


@pytest.mark.parametrize("build", [
    lambda: Monomial(Fraction(1)),                              # missing
    lambda: Monomial(coefficient=Fraction(1)),                  # missing keyword
    lambda: Monomial(coefficient=Fraction(1), exp=2),           # unknown keyword
    lambda: Primitive(nam="x"),                                 # unknown, count right
    lambda: Monomial(Fraction(1), 2, 3),                        # too many
    lambda: Monomial(Fraction(1), coefficient=Fraction(2)),     # repeated
    lambda: Monomial(Fraction(2), exponent=3),                  # mixed
    lambda: SweepTable((), "f", "g"),                           # missing the last field
])
def test_wrong_fields_are_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_empty_series_is_invalid():
    with pytest.raises(InvalidInput):
        TruncatedSeries(())


def test_repr_names_every_field():
    assert repr(Primitive("sin")) == "Primitive(name='sin')"
    assert repr(Sum(Primitive("sin"), Monomial(Fraction(1), 2))) == (
        "Sum(left=Primitive(name='sin'), right=Monomial(coefficient=Fraction(1, 1), exponent=2))"
    )


def test_copy_and_pickle_round_trip():
    tree = parse("2 * sin o tan + x^3")
    row = sample(flags=("mirrored",))
    for record in (tree, row, make_series([0, 1, "1/3"])):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
