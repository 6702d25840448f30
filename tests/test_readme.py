"""Every command under "Command line" in README.md, pinned byte for byte.

Each `arnold-lab ...` line of the first code block in that section runs
through console_main in-process; the SHA-256 of its stdout and stderr and
its exit code must match PINS.  An example with no pin fails, so a new
README example needs its digests added here.  JSON_PINS holds the JSON
sweep tables, which no README example prints, the same way.  The Python
block under "Library quick tour" runs too, and each value its comments
state is checked.
"""

import ast
import contextlib
import hashlib
import io
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from arnold_lab.cli import console_main

README = Path(__file__).resolve().parents[1] / "README.md"

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of b""

# command line -> (exit code, sha256 of stdout, sha256 of stderr)
PINS = {
    'arnold-lab eval --expr "tan o sin" --order 8': (
        0, "b36c560c84c58041e64d8f9d9d9c03f9f2b53f9fac419d8af48f659d1cb7f72a",
        EMPTY,
    ),
    'arnold-lab eval --expr "sin" --order 5 --format text': (
        0, "cb567b62b3596a8e72897280f1290e3a65e4990df34d2d22b91f1c46fd4e0902",
        EMPTY,
    ),
    'arnold-lab invert --expr "x + x^2" --order 5': (
        0, "2d46e063ab506b23343fa90b1dbda0efe39706331ebfd41a2a4386af9732b92b",
        EMPTY,
    ),
    'arnold-lab limit --f "tan o sin" --g "sin o tan" --order 12': (
        0, "08a9cb05f35d94db03f5d5dea4ca7c7af05569e5f41b86750ffb3333e382e84e",
        EMPTY,
    ),
    'arnold-lab counterexample --t-min 1e-6 --t-max 1e-1 --points 25': (
        0, "05bc460ba51f068234ea486f1db4c99e87b336d498a983ba1a35c06cebb6acf7",
        EMPTY,
    ),
    'arnold-lab sweep --f "tan o sin" --g "sin o tan" --xs "0.3,0.2,0.1"': (
        0, "a4fd0b6c6bffb44cd2c1b7ee62c30658d96db4ee7287132163acc3ac39a672d9",
        EMPTY,
    ),
    'arnold-lab sweep --f "tan o sin" --g "sin o tan" --x-min 0.05 --x-max 0.4 --points 4': (
        0, "ecdd63094098617c6f1a6df783d465c4b299ec458a56d85be0b7ebf8d38ed3af",
        EMPTY,
    ),
}

JSON_PINS = {
    'arnold-lab sweep --f "tan o sin" --g "sin o tan" --x-min 0.05 --x-max 0.4 --points 4 --format json': (
        0, "8e08c43b57acf1899457df1b69ea4c89b55370abfd5a242f6b8b33260f0e8d95",
        EMPTY,
    ),
    'arnold-lab counterexample --t-min 1e-6 --t-max 1e-1 --points 25 --format json': (
        0, "ba40fbee969f0ea7b2dc0d9c315402b7b0dc397f1d5c49986f1f7056f04a83b6",
        EMPTY,
    ),
}


def readme_commands() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = []
    for line in block.splitlines():
        command = line.split("#", 1)[0].strip()
        if command.startswith("arnold-lab "):
            commands.append(command)
    return commands


def run(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = console_main(shlex.split(command)[1:])
    digest = [hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err)]
    return code, *digest


def test_readme_has_examples():
    assert len(readme_commands()) >= 7


@pytest.mark.parametrize("command", readme_commands())
def test_readme_example_is_pinned(command):
    assert command in PINS, f"no pin for README example {command!r}: {run(command)}"
    assert run(command) == PINS[command]


@pytest.mark.parametrize("command", sorted(JSON_PINS))
def test_json_table_is_pinned(command):
    assert run(command) == JSON_PINS[command]


def quick_tour_values() -> tuple[dict, list]:
    """Run the quick tour's Python block statement by statement: its
    namespace afterwards, and the value of each bare expression in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick tour\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_quick_tour_does_what_its_comments_say():
    namespace, values = quick_tour_values()
    n, limit, same_inverse, ratio_bc_ed, flags, closed_form, row_count, _ = values
    assert n == 7
    assert limit == Fraction(1, 1)
    assert same_inverse is True
    assert repr(ratio_bc_ed).startswith("0.36824")
    assert flags == ("mirrored", "logspace")
    assert repr(closed_form).startswith("0.36787980")
    assert row_count == 3
    assert namespace["text"].count("\n") == 1 + row_count
