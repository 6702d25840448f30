"""Hypothesis fuzz of the command line, in-process: whatever the argv,
console_main ends with one of the documented exit codes, never a traceback;
and cli._parse reads each argv as argparse, built from the same tables,
reads it, apart from two documented differences."""

import argparse
import contextlib
import functools
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arnold_lab import cli
from arnold_lab.cli import console_main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}

# the expression language's tokens and a few near misses, so that random
# text parses often and otherwise fails somewhere interesting
_TOKENS = ("sin", "cos", "tan", "arcsin", "arctan", "id", "foo", "x", "o", "∘",
           "+", "-", "*", "/", "^", "(", ")", "0", "1", "2", "7", " ")

expressions = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
    st.sampled_from(["tan o sin", "sin o tan", "arcsin o arctan", "x + x^2", "x"]),
    st.builds(lambda op, n: op.join(["sin"] * n), st.sampled_from([" o ", " + "]),
              st.integers(1, 3000)),
)
orders = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from(["abc", "1.5", "", "4611686018427387904", "9223372036854775807"]),
)
reals = st.one_of(
    st.floats(min_value=1e-30, max_value=1.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.1", "0.49", "1e-320", "abc"]),
)
points = st.integers(-1, 5).map(str)
xs_lists = st.lists(
    st.sampled_from(["0.3", "0.2", "0.1", "0.01", "-0.1", "0", "1e-320", "1e300",
                     "nan", "inf", "-inf", "abc", ""]),
    max_size=4,
).map(",".join)

# JSON values for "order", "num" and "den": integers and integer strings,
# and the values that are not integers (floats, Infinity, NaN, bools, null)
json_values = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(str),
    st.sampled_from([1.9, float("inf"), float("nan"), True, False, None,
                     "1/2", " 1", "", "1.0", "0x1"]),
)


def _series_blob(order, pairs):
    coefficients = [{"num": num, "den": den} for num, den in pairs]
    if order == "fit":
        order = len(coefficients) - 1
    return json.dumps({"order": order, "coefficients": coefficients})


series_blobs = st.one_of(
    st.builds(
        _series_blob,
        st.one_of(st.just("fit"), json_values),
        st.lists(st.tuples(json_values, json_values), max_size=5),
    ),
    st.text(max_size=12),
)


def flag(name, values):
    return values.map(lambda value: [name, value])


def maybe(parts):
    return st.one_of(st.just([]), parts)


def command(*parts):
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


formats = st.sampled_from(["json", "text", "csv"])

argvs = st.one_of(
    command(st.just(["eval"]), flag("--expr", expressions), flag("--order", orders),
            maybe(flag("--format", formats))),
    command(st.just(["invert"]),
            st.one_of(flag("--expr", expressions), flag("--series-json", series_blobs)),
            maybe(flag("--order", orders)), maybe(st.just(["--with-residuals"]))),
    command(st.just(["limit"]), flag("--f", expressions), flag("--g", expressions),
            flag("--order", orders)),
    command(st.just(["counterexample"]), flag("--t-min", reals), flag("--t-max", reals),
            flag("--points", points), maybe(flag("--format", formats))),
    command(st.just(["sweep"]), flag("--f", expressions), flag("--g", expressions),
            st.one_of(
                flag("--xs", xs_lists),
                command(flag("--x-min", reals), flag("--x-max", reals), flag("--points", points)),
            ),
            maybe(flag("--order", orders)), maybe(flag("--format", formats))),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return console_main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=200)
@given(argv=argvs)
@example(argv=["eval", "--expr", " o ".join(["sin"] * 1000), "--order", "3"])
@example(argv=["eval", "--expr", " + ".join(["x"] * 1000), "--order", "3"])
@example(argv=["eval", "--expr", "2 * " * 1000 + "x", "--order", "3"])
@example(argv=["eval", "--expr", "1" * 5000 + " * x", "--order", "3"])
@example(argv=["eval", "--expr", "foo o cos", "--order", "5"])
@example(argv=["eval", "--expr", "(sin o cos) o foo", "--order", "5"])
@example(argv=["eval", "--expr", "foo o sin o cos", "--order", "5"])
@example(argv=["sweep", "--f", "1" * 400 + " * x", "--g", "x", "--xs", "0.1"])
@example(argv=["eval", "--expr", "x", "--order", "4611686018427387904"])
@example(argv=["limit", "--f", "tan o sin", "--g", "sin o tan", "--order", "9223372036854775807"])
@example(argv=["counterexample", "--t-min", "5e-324", "--t-max", "1e-300", "--points", "4"])
@example(argv=["invert", "--series-json", '{"order": 1e400, "coefficients": []}'])
@example(argv=["invert", "--series-json", '{"order": 1, "coefficients": '
                                          '[{"num": 0, "den": 1}, {"num": 1e400, "den": 1}]}'])
@example(argv=["invert", "--series-json", '{"order": %s, "coefficients": []}' % ("1" * 5000)])
def test_every_argv_ends_in_a_documented_exit_code(argv):
    assert run(argv) in DOCUMENTED_EXIT_CODES


# values by the flag's type: ones that convert, and ones that are empty,
# negative, non-numeric or, for a flag with choices, not among them
_GOOD = {int: ["1", "3", "12", " 8", "0"], float: ["1e-6", "0.1", "0.3", "nan", "inf", "1e999"],
         str: ["tan o sin", "x + x^2", "0.3,0.2", ""]}
_ODD = {int: ["-3", "1.5", "", "abc", "nan"], float: ["-0.1", "-inf", "", "abc"],
        str: ["json", "csv", "text", "-0.1,-0.2", "-", "--order"]}


@st.composite
def option_argvs(draw):
    """COMMAND and its flags in any order, each required one mostly there and
    each value mostly one its type converts; sometimes a flag repeated,
    abbreviated or unknown, a store_true flag given a value, or the last
    value missing."""
    name = draw(st.sampled_from(sorted(cli._OPTIONS)))
    options = cli._OPTIONS[name][1]
    flags = [flag for flag in draw(st.permutations(list(options)))
             if draw(st.integers(0, 4)) > (0 if options[flag].get("required") else 2)]
    if draw(st.integers(0, 3)) == 0:
        stray = draw(st.sampled_from([*options, "--ord", "--help", "-h", "--", "--order=3"]))
        flags.insert(draw(st.integers(0, len(flags))), stray)
    argv = [name]
    for flag in flags:
        argv.append(flag)
        keywords = options.get(flag, {})
        if "action" in keywords and draw(st.integers(0, 3)):
            continue
        kind = keywords.get("type", str)
        good = keywords.get("choices") or _GOOD[kind]
        argv.append(draw(st.sampled_from(good if draw(st.integers(0, 3)) else _ODD[kind])))
    if draw(st.integers(0, 7)) == 0:
        argv.pop()
    return argv


class Refused(Exception):
    pass


@functools.cache
def reference_parser():
    """argparse's parser of the command line, from cli._OPTIONS and cli._ONE_OF."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise Refused(message)

    parser = Parser(prog="arnold-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in cli._OPTIONS.items():
        command = sub.add_parser(name, help=help_text)
        one_of = cli._ONE_OF.get(name, ())
        group = command.add_mutually_exclusive_group(required=True) if one_of else command
        for flag, keywords in options.items():
            (group if flag in one_of else command).add_argument(flag, **keywords)
    return parser


def reference(argv):
    """argparse's reading of argv: the repr of each value, "help", or None if refused."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args = reference_parser().parse_args(argv)
        except SystemExit:  # it exits after printing the help
            return "help"
        except Refused:
            return None
    # repr tells NaN from NaN, and an int from an equal float
    return {key: repr(value) for key, value in vars(args).items()}


def reading(argv):
    """cli._parse's reading of argv, in the terms of reference, and its usage error."""
    try:
        args = cli._parse(list(argv))
    except cli._Usage as exc:
        return None, str(exc)
    if args.command == "help":
        return "help", None
    return {key: repr(value) for key, value in vars(args).items()}, None


def dash_value(argv):
    """Whether a token that starts with "-" and is no flag of the command follows a flag."""
    flags = (*cli._OPTIONS[argv[0]][1], *cli._HELP)
    return any(flag.startswith("-") and token.startswith("-") and token not in flags
               for flag, token in zip(argv[1:], argv[2:]))


@settings(max_examples=1000)
@given(argv=option_argvs())
@example(argv=["invert", "--expr", "x + x^2", "--order", "5", "--with-residuals"])
@example(argv=["sweep", "--f", "tan o sin", "--g", "sin o tan", "--xs", "0.3,0.2", "--order", " 8"])
@example(argv=["counterexample", "--t-min", "nan", "--t-max", "1e999", "--points", "3"])
@example(argv=["sweep", "--f", "x", "--g", "x", "--x", "0.1"])
@example(argv=["eval", "--ord=3", "--ex", "x", "--format=text"])
@example(argv=["eval", "--expr", "x", "--order", "3", "--order", "4"])
@example(argv=["sweep", "--f", "x", "--g", "x", "--xs", "-0.1,-0.2"])
@example(argv=["invert", "--expr", "x", "--with-residuals=yes"])
@example(argv=["invert", "--expr", "x", "--series-json", "{}", "--help"])
@example(argv=["invert", "--with-residuals", "0.3,0.2", "-h"])
def test_parse_agrees_with_argparse(argv):
    theirs, (ours, error) = reference(argv), reading(argv)
    if theirs is not None and ours is None:
        # argparse keeps the last value of a repeated flag; _parse refuses it
        assert error.endswith("not allowed twice"), (argv, error)
    elif theirs is None and ours is not None:
        # argparse takes a value that starts with "-" for a flag, and refuses it
        assert dash_value(argv), (argv, ours)
    else:
        assert ours == theirs, argv
