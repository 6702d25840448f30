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
# the flags _parse holds to 1 <= value <= bound, as it reads them
_BOUNDS = {"--order": MAX_ORDER, "--points": MAX_POINTS}


# each subcommand's help and options, flag -> add_argument's keywords for it;
# _parse reads every command line by this table, and _cmd_help prints it
_OPTIONS = {
    "eval": ("expand an expression into a series", {
        "--expr": {"required": True},
        "--order": {"type": int, "required": True},
        "--format": {"choices": ("json", "text"), "default": "json"},
    }),
    "invert": ("compositional inverse of a series", {
        "--expr": {"help": "exactly one of --expr and --series-json"},
        "--series-json": {"help": "exactly one of --expr and --series-json"},
        "--order": {"type": int},
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
_HELP = ("-h", "--help")
# types.SimpleNamespace, without importing types
_Namespace = type(sys.implementation)


def _parse(argv: list[str]):
    """The namespace of COMMAND (--flag VALUE | --flag=VALUE)* by _OPTIONS: each flag
    exact or a unique prefix, given once, its value the next token unless that is a
    flag, even where it starts with "-".  -h or --help gives the help command's."""
    name = argv[0] if argv else None
    if name in _HELP:
        return _Namespace(command="help", name=None)
    if name not in _OPTIONS:
        raise _Usage(f"argument command: {name!r} is not one of {', '.join(_OPTIONS)}"
                     if argv else "the following arguments are required: command")
    options = _OPTIONS[name][1]
    given, unknown = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, text = token.partition("=")
        if flag not in options and flag not in _HELP:
            matches = [known for known in (*options, "--help")
                       if flag.startswith("--") and flag != "--" and known.startswith(flag)]
            if len(matches) > 1:
                raise _Usage(f"ambiguous option: {flag} could match {', '.join(matches)}")
            if not matches:  # refused at the end, as a later -h or --help still counts
                unknown.append(token)
                continue
            flag = matches[0]
        if flag in _HELP:
            return _Namespace(command="help", name=name)
        keywords = options[flag]
        if flag in given:
            raise _Usage(f"argument {flag}: not allowed twice")
        if not equals:
            text = next(tokens, None)
            if text is None or text in options or text in _HELP:
                raise _Usage(f"argument {flag}: expected one argument")
        kind = keywords.get("type", str)
        try:
            value = kind(text)
        except ValueError:
            raise _Usage(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
        if value not in keywords.get("choices", (value,)):
            choices = ", ".join(keywords["choices"])
            raise _Usage(f"argument {flag}: {text!r} is not one of {choices}")
        bound = _BOUNDS.get(flag)
        if bound and not 1 <= value <= bound:
            raise _Usage(f"{flag} must be >= 1" if value < 1 else f"{flag} must be <= {bound}")
        given[flag] = value
    if unknown:
        raise _Usage(f"unrecognized arguments: {' '.join(unknown)}")
    missing = [flag for flag in options if options[flag].get("required") and flag not in given]
    if missing:
        raise _Usage(f"the following arguments are required: {', '.join(missing)}")
    args = _Namespace(command=name)
    for flag, keywords in options.items():
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, keywords.get("default")))
    return args


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
    if points == 1:
        return [hi]
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    values = [math.exp(math.log(hi) - k * step) for k in range(points)]
    values[0], values[-1] = hi, lo
    return values


# a grid of distinct values can still round to a repeated abscissa
_REPEATS = "--points %d over [%r, %r] repeats an abscissa; use fewer points or a wider range"


def _falling(xs: list[float], problem: str) -> None:
    if any(a <= b for a, b in zip(xs, xs[1:])):
        raise _Usage(problem)


def _cmd_help(args) -> int:
    """Print the commands, or one command's flags, as _OPTIONS declares them."""
    if args.name is None:
        about, rows = __doc__.strip(), [(name, text) for name, (text, _) in _OPTIONS.items()]
    else:
        about, options = _OPTIONS[args.name]
        rows = []
        for flag, keywords in options.items():
            value = "|".join(keywords.get("choices", ())) or flag[2:].upper().replace("-", "_")
            notes = (keywords.get("help"), keywords.get("required") and "required",
                     keywords.get("default") and f"default {keywords['default']}")
            rows.append((f"{flag} {value}", "; ".join(note for note in notes if note)))
    rows.append(("-h, --help", "print this help and exit"))
    table = "".join(f"  {left:27}{right}".rstrip() + "\n" for left, right in rows)
    _emit([f"usage: arnold-lab {args.name or 'COMMAND'} [--flag VALUE]...\n\n{about}\n\n{table}"])
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .elementary import eval_text
    from .series import json_text

    series = eval_text(args.expr, args.order)
    text = json_text(series) if args.format == "json" else _series_text(series)
    _emit([text + "\n"])
    return EXIT_OK


def _cmd_invert(args) -> int:
    from .elementary import eval_text
    from .inversion import compositional_inverse
    from .series import json_text, series_from_json

    if (args.expr is None) == (args.series_json is None):
        raise _Usage("one of the arguments --expr --series-json is required" if args.expr is None
                     else "argument --series-json: not allowed with argument --expr")
    if args.expr is not None:
        if args.order is None:
            raise _Usage("--order is required with --expr")
        series = eval_text(args.expr, args.order)
    else:
        import json  # the only JSON the program reads

        try:
            obj = json.loads(args.series_json)
        # JSONDecodeError, an integer past int_max_str_digits, or nesting past the stack
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"malformed JSON: {exc}") from exc
        series = series_from_json(obj)
        if args.order is not None:
            if args.order > series.order:
                raise _Usage(f"--order {args.order} exceeds the series order {series.order}")
            series = series.truncate(args.order)
    witness = compositional_inverse(series)
    _emit([json_text(witness) + "\n"])
    return EXIT_OK


def _cmd_limit(args) -> int:
    from .elementary import eval_text
    from .limits import arnold_ratio
    from .series import json_text

    report = arnold_ratio(eval_text(args.f, args.order), eval_text(args.g, args.order))
    _emit([json_text(report) + "\n"])
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
    _falling(xs, _REPEATS % (points, t_min, t_max))
    table = numeric.sweep(*numeric.counterexample_pair(), xs)
    _emit(table.pieces(args.format), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import numeric
    from .elementary import eval_text

    f = numeric.SeriesFn(eval_text(args.f, args.order))
    g = numeric.SeriesFn(eval_text(args.g, args.order))
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
        _falling(xs, "--xs must be strictly decreasing")
    else:
        if args.x_min is None or args.x_max is None or args.points is None:
            raise _Usage("need --xs or all of --x-min/--x-max/--points")
        if not 0.0 < args.x_min < args.x_max < math.inf:
            raise _Usage("need 0 < --x-min < --x-max < inf")
        xs = _log_spaced(args.x_min, args.x_max, args.points)
        _falling(xs, _REPEATS % (args.points, args.x_min, args.x_max))
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


_COMMANDS = {
    "help": _cmd_help,
    "eval": _cmd_eval,
    "invert": _cmd_invert,
    "limit": _cmd_limit,
    "counterexample": _cmd_counterexample,
    "sweep": _cmd_sweep,
}


def console_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        return _report(f"error: {exc}", EXIT_USAGE)
    except ParseError as exc:
        return _report(f"parse error: {exc}", EXIT_PARSE)
    except ArnoldLabError as exc:
        return _report(f"error: {exc}", EXIT_DOMAIN)


def _report(message: str, code: int) -> int:
    try:
        if sys.stderr is not None:  # None: descriptor 2 was closed at start-up
            sys.stderr.write(f"arnold-lab: {message}\n")
            sys.stderr.flush()
    except OSError:  # nowhere to report it; the exit-time flush of stderr must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


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
