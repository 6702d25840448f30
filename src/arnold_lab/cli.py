"""Command-line front end.

Exit codes: 0 success, 2 expression parse error, 3 domain error (series
not invertible, tangency condition violated, ...), 4 usage error, 5 empty
result (a sweep where no row could be computed).
"""

from __future__ import annotations

import errno
import gc
import math
import os
import sys

# each subcommand imports the rest of what it runs, so counterexample
# loads none of the exact side and limit, eval and invert none of numeric
from .errors import ArnoldLabError, InvalidInput, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 4
EXIT_EMPTY = 5

# the largest --order accepted; far beyond it a series does not fit in memory
MAX_ORDER = 10_000
# the largest --points accepted; a table that long peaks at about 0.1 GiB
MAX_POINTS = 1_000_000


# each subcommand's help and options, flag -> the keywords of add_argument;
# argparse's parser and the fast path of console_main are both built from it
_OPTIONS = {
    "eval": ("expand an expression into a series", {
        "--expr": {"required": True},
        "--order": {"type": int, "required": True},
        "--format": {"choices": ("json", "text"), "default": "json"},
    }),
    "invert": ("compositional inverse of a series", {
        "--expr": {},
        "--series-json": {},
        "--order": {"type": int},
        "--with-residuals": {"action": "store_true", "default": False},
    }),
    "limit": ("exact limit of (f-g)/(g_inv-f_inv)", {
        "--f": {"required": True},
        "--g": {"required": True},
        "--order": {"type": int, "required": True},
    }),
    "counterexample": ("sweep the flat pair toward 0", {
        "--t-min": {"type": float, "required": True},
        "--t-max": {"type": float, "required": True},
        "--points": {"type": int, "required": True},
        "--out": {},
        "--format": {"choices": ("csv", "json"), "default": "csv"},
    }),
    "sweep": ("geometric ratios of an expression pair", {
        "--f": {"required": True},
        "--g": {"required": True},
        "--xs": {"help": "comma-separated, strictly decreasing"},
        "--x-min": {"type": float},
        "--x-max": {"type": float},
        "--points": {"type": int},
        "--order": {"type": int, "default": 12},
        "--out": {},
        "--format": {"choices": ("csv", "json"), "default": "csv"},
    }),
}
# the flags of which a subcommand takes exactly one
_ONE_OF = {"invert": ("--expr", "--series-json")}

# types.SimpleNamespace, without importing types; vars() of it is what
# argparse's Namespace gives
_Namespace = type(sys.implementation)


def _fast_args(argv: list[str]):
    """The options of COMMAND (--flag value)*, or None for argparse to parse.

    It takes only exact flags, each at most once, each value converted by
    the flag's type into its choices and not starting with "-", and every
    required flag; a store_true flag takes no value.  Everything else,
    help, abbreviations, --flag=value and each error, is argparse's.
    """
    name = argv[0] if argv else None
    if name not in _OPTIONS:
        return None
    options = _OPTIONS[name][1]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if "action" in keywords:
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is refused like a negative one
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    one_of = _ONE_OF.get(name)
    if one_of and sum(flag in given for flag in one_of) != 1:
        return None
    args = _Namespace(command=name)
    for flag, keywords in options.items():
        if keywords.get("required") and flag not in given:
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, keywords.get("default")))
    return args


def _build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on bad usage; remap to this tool's usage code
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

        # argparse drops an OSError from writing --help, and leaves a failed line in
        # stderr's buffer for the exit-time flush; both streams are written here instead
        def _print_message(self, message, file=None):
            if file is sys.stdout:
                _emit([message])
            else:
                _to_stderr(message)

    parser = Parser(prog="arnold-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _OPTIONS.items():
        command = sub.add_parser(name, help=help_text)
        one_of = _ONE_OF.get(name, ())
        group = command.add_mutually_exclusive_group(required=True) if one_of else command
        for flag, keywords in options.items():
            (group if flag in one_of else command).add_argument(flag, **keywords)
    return parser


def _parse_args(argv: list[str]):
    """argparse's parse of argv, for what _fast_args refuses."""
    import re

    for k in range(len(argv) - 1, 0, -1):  # argparse takes "-0.1,-0.2" for an option
        if argv[k - 1] == "--xs" and re.match(r"-[0-9.]", argv[k]):
            argv[k - 1 : k + 1] = [f"--xs={argv[k]}"]
    return _build_parser().parse_args(argv)


def _emit(pieces, out_path: str | None = None) -> None:
    """Write the pieces of one output, in order, to --out or stdout."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        elif sys.stdout is None:  # descriptor 1 was closed when Python started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        target = f"--out {out_path!r}" if out_path else "stdout"
        raise _Usage(f"cannot write {target}: {exc.strerror or exc}") from None


def _series_text(series) -> str:
    from .series import rational_text

    lines = [f"order {series.order}"]
    lines += [f"x^{k}: {rational_text(c)}" for k, c in enumerate(series.coefficients)]
    return "\n".join(lines)


def _log_spaced(lo: float, hi: float, points: int) -> list[float]:
    """points values from hi down to lo, uniform in log."""
    if _count(points, "--points", MAX_POINTS) == 1:
        return [hi]
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    values = [math.exp(math.log(hi) - k * step) for k in range(points)]
    values[0], values[-1] = hi, lo
    return values


def _falling(xs: list[float], lo: float, hi: float, points: int) -> None:
    # a grid of distinct values can still round to a repeated abscissa
    if any(a <= b for a, b in zip(xs, xs[1:])):
        raise _Usage(f"--points {points} over [{lo!r}, {hi!r}] repeats an abscissa; "
                     "use fewer points or a wider range")


def _expand(text: str, order: int):
    """The series of an expression, its order checked after the parse."""
    from .elementary import eval_expr
    from .expressions import parse

    return eval_expr(parse(text), _order(order))


def _cmd_eval(args) -> int:
    import json

    from .series import series_to_json

    series = _expand(args.expr, args.order)
    text = json.dumps(series_to_json(series)) if args.format == "json" else _series_text(series)
    _emit([text + "\n"])
    return EXIT_OK


def _cmd_invert(args) -> int:
    import json

    from .inversion import compositional_inverse
    from .series import series_from_json

    if args.expr is not None:
        if args.order is None:
            raise _Usage("--order is required with --expr")
        series = _expand(args.expr, args.order)
    else:
        try:
            obj = json.loads(args.series_json)
        # JSONDecodeError, an integer past int_max_str_digits, or nesting past the stack
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"malformed JSON: {exc}") from exc
        series = series_from_json(obj)
        if args.order is not None:
            if args.order > series.order:
                raise _Usage(
                    f"--order {args.order} exceeds the series order {series.order}"
                )
            series = series.truncate(_order(args.order))
    witness = compositional_inverse(series)
    _emit([json.dumps(witness.to_json_dict(with_residuals=args.with_residuals)) + "\n"])
    return EXIT_OK


def _cmd_limit(args) -> int:
    import json

    from .limits import arnold_ratio

    order = _order(args.order)
    report = arnold_ratio(_expand(args.f, order), _expand(args.g, order))
    _emit([json.dumps(report.to_json_dict()) + "\n"])
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    from . import numeric

    t_min, t_max, points = args.t_min, args.t_max, args.points
    t_bound = numeric.FLAT_BRACKET[1]  # t is the root q solves on its bracket
    if not 0.0 < t_min < t_max < t_bound:
        raise _Usage(f"need 0 < --t-min < --t-max < {t_bound}")
    if t_min < sys.float_info.min:
        # -1/t must stay finite for every root the inverse can round t to
        raise _Usage(f"need --t-min >= {sys.float_info.min!r}, the smallest normal double")
    xs = [numeric.q(t) for t in _log_spaced(t_min, t_max, points)]
    _falling(xs, t_min, t_max, points)
    table = numeric.sweep(*numeric.counterexample_pair(), xs)
    _emit(table.pieces(args.format), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import numeric

    order = _order(args.order)
    f = numeric.SeriesFn(_expand(args.f, order))
    g = numeric.SeriesFn(_expand(args.g, order))
    if args.xs is not None:
        if (args.x_min, args.x_max, args.points) != (None, None, None):
            raise _Usage("--xs excludes --x-min, --x-max and --points")
        try:
            xs = [float(part) for part in args.xs.split(",") if part.strip()]
        except ValueError as exc:
            raise _Usage(f"--xs must be comma-separated numbers: {exc}")
        if not xs:
            raise _Usage("--xs is empty")
        if not all(math.isfinite(x) for x in xs):
            raise _Usage("--xs values must be finite")
    else:
        if args.x_min is None or args.x_max is None or args.points is None:
            raise _Usage("need --xs or all of --x-min/--x-max/--points")
        if not 0.0 < args.x_min < args.x_max < math.inf:
            raise _Usage("need 0 < --x-min < --x-max < inf")
        xs = _log_spaced(args.x_min, args.x_max, args.points)
        _falling(xs, args.x_min, args.x_max, args.points)
    table = numeric.sweep(f, g, xs)
    kinds = set()  # the distinct flags, noted in the one pass that computes and writes the rows
    rows = map(lambda row: kinds.add(row.flags) or row, table.rows)
    table = numeric.SweepTable(rows, table.f_label, table.g_label, table.bracket)
    _emit(table.pieces(args.format), args.out)
    if all("configuration_violated" in flags or "unresolved" in flags for flags in kinds):
        return EXIT_EMPTY
    return EXIT_OK


class _Usage(Exception):
    pass


def _count(value: int, flag: str, bound: int) -> int:
    if value < 1:
        raise _Usage(f"{flag} must be >= 1")
    if value > bound:
        raise _Usage(f"{flag} must be <= {bound}")
    return value


def _order(value: int) -> int:
    return _count(value, "--order", MAX_ORDER)


_COMMANDS = {
    "eval": _cmd_eval,
    "invert": _cmd_invert,
    "limit": _cmd_limit,
    "counterexample": _cmd_counterexample,
    "sweep": _cmd_sweep,
}


def console_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _fast_args(argv) or _parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        return _report(f"error: {exc}", EXIT_USAGE)
    except ParseError as exc:
        return _report(f"parse error: {exc}", EXIT_PARSE)
    except ArnoldLabError as exc:
        return _report(f"error: {exc}", EXIT_DOMAIN)


def _report(message: str, code: int) -> int:
    _to_stderr(f"arnold-lab: {message}\n")
    return code


def _to_stderr(text: str) -> None:
    if sys.stderr is None:  # descriptor 2 was closed at start-up
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:  # nowhere to report it; the exit-time flush of stderr must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main() -> None:
    code = console_main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # reported already; the exit-time flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # the interpreter's last collection of every loaded module's cycles is wasted work;
    # freezing them skips only that: atexit handlers, flushes and profiler reports still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
