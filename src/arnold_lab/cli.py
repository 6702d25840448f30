"""Command-line front end.

Exit codes: 0 success, 2 expression parse error, 3 domain error (series
not invertible, tangency condition violated, ...), 4 usage error, 5 empty
result (a sweep where no row could be computed).
"""

from __future__ import annotations

import argparse
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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; remap to this tool's usage code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # argparse drops an OSError from writing --help; stdout goes through _emit instead
    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _emit([message])
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arnold-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="expand an expression into a series")
    p_eval.add_argument("--expr", required=True)
    p_eval.add_argument("--order", type=int, required=True)
    p_eval.add_argument("--format", choices=("json", "text"), default="json")

    p_inv = sub.add_parser("invert", help="compositional inverse of a series")
    source = p_inv.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr")
    source.add_argument("--series-json", dest="series_json")
    p_inv.add_argument("--order", type=int)
    p_inv.add_argument("--with-residuals", action="store_true")

    p_lim = sub.add_parser("limit", help="exact limit of (f-g)/(g_inv-f_inv)")
    p_lim.add_argument("--f", required=True)
    p_lim.add_argument("--g", required=True)
    p_lim.add_argument("--order", type=int, required=True)

    p_cex = sub.add_parser("counterexample", help="sweep the flat pair toward 0")
    p_cex.add_argument("--t-min", type=float, required=True)
    p_cex.add_argument("--t-max", type=float, required=True)
    p_cex.add_argument("--points", type=int, required=True)
    p_cex.add_argument("--out")
    p_cex.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sweep = sub.add_parser("sweep", help="geometric ratios of an expression pair")
    p_sweep.add_argument("--f", required=True)
    p_sweep.add_argument("--g", required=True)
    p_sweep.add_argument("--xs", help="comma-separated, strictly decreasing; "
                         "write --xs=-0.1,-0.2 when the first value is negative")
    p_sweep.add_argument("--x-min", type=float)
    p_sweep.add_argument("--x-max", type=float)
    p_sweep.add_argument("--points", type=int)
    p_sweep.add_argument("--order", type=int, default=12)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _emit(pieces, out_path: str | None = None) -> None:
    """Write the pieces of one output, in order, to --out or stdout."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
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
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"arnold-lab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"arnold-lab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ArnoldLabError as exc:
        print(f"arnold-lab: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    code = console_main()
    try:
        sys.stdout.flush()
    except OSError:  # reported already; the exit-time flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
