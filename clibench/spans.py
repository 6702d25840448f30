"""Traced invocations: spans recorded from outside the program.

Run as

    python spans.py OUT.json [arnold-lab arguments...]

with arnold_lab importable.  It wraps the public functions listed in
TIMED in every arnold_lab module namespace that refers to them, counts
the calls listed in COUNTED, runs the command line through
cli.console_main, and writes the spans to OUT.json when the command ends.
Each thread keeps its own parent chain, so spans opened in the sweep's
worker threads are roots of their own trees.

The benchmark reads each file back with summarize() and combines the
summaries with layer_metrics().
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

MODULES = ("cli", "elementary", "expressions", "inversion", "limits", "numeric", "series")

# (module, function) -> span name; SeriesFn.inverse is a method
TIMED = {
    ("cli", "console_main"): "cli.console_main",
    ("expressions", "parse"): "expressions.parse",
    ("elementary", "eval_expr"): "elementary.eval_expr",
    ("series", "compose"): "series.compose",
    ("series", "divide"): "series.divide",
    ("series", "pow_binomial"): "series.pow_binomial",
    ("inversion", "compositional_inverse"): "inversion.compositional_inverse",
    ("limits", "arnold_ratio"): "limits.arnold_ratio",
    ("numeric", "counterexample_pair"): "numeric.counterexample_pair",
    ("numeric", "counterexample_sweep"): "numeric.counterexample_sweep",
    ("numeric", "numeric_inverse"): "numeric.numeric_inverse",
    ("numeric", "geometric_sample"): "numeric.geometric_sample",
    ("numeric", "sweep"): "numeric.sweep",
    ("numeric", "thread_cap"): "numeric.thread_cap",
    ("numeric", "SeriesFn.inverse"): "numeric.series_inverse",
}
COUNTED = {("series", "mul"): "series.mul"}


def _coefficient_bits(witness) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in witness.inverse.coefficients
    )


# a number recorded on the span, from the call's result
VALUES = {
    "inversion.compositional_inverse": _coefficient_bits,
    "numeric.sweep": lambda table: len(table.rows),
    "numeric.thread_cap": lambda workers: workers,
}


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, thread, name, start_ns, end_ns, value)
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def timed(self, name: str, fn):
        value_of = VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [0])
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                value = value_of(result) if value_of and result is not None else None
                self.spans.append((span_id, parent, threading.get_ident(), name, start, end, value))

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"arnold_lab.{name}") for name in MODULES}
        wrappers = [(key, name, self.timed) for key, name in TIMED.items()]
        wrappers += [(key, name, self.counted) for key, name in COUNTED.items()]
        for (module_name, attribute), span_name, wrap in wrappers:
            owner = modules[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = wrap(span_name, original)
            setattr(owner, leaf, wrapper)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    from arnold_lab import cli

    try:
        return cli.console_main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(out_path)


# aggregation, in the benchmark process

TIME_LAYERS = {
    "expressions.parse_s": "expressions.parse",
    "elementary.eval_expr_s": "elementary.eval_expr",
    "series.compose_s": "series.compose",
    "series.divide_s": "series.divide",
    "series.pow_binomial_s": "series.pow_binomial",
    "inversion.compositional_inverse_s": "inversion.compositional_inverse",
    "numeric.counterexample_pair_s": "numeric.counterexample_pair",
    "numeric.numeric_inverse_s": "numeric.numeric_inverse",
    "numeric.sweep_s": "numeric.sweep",
}
SELF_LAYERS = {
    "cli.self_s": "cli.console_main",
    "limits.arnold_ratio_self_s": "limits.arnold_ratio",
    "numeric.geometric_sample_self_s": "numeric.geometric_sample",
}
CALL_LAYERS = {
    "elementary.eval_expr_calls": "elementary.eval_expr",
    "series.compose_calls": "series.compose",
    "inversion.compositional_inverse_calls": "inversion.compositional_inverse",
}


def summarize(trace: dict) -> dict[str, float]:
    """Span time and calls of one traced invocation, by layer.

    A layer's time counts only its outermost spans, so recursion is not
    counted twice; self time subtracts the direct children.  Times in the
    sweep's worker threads are summed over threads and include waits for
    the interpreter lock.
    """
    spans = {s[0]: s for s in trace["spans"]}
    child_ns: dict[int, int] = {}
    by_name: dict[str, list[tuple]] = {}
    for span in spans.values():
        child_ns[span[1]] = child_ns.get(span[1], 0) + span[5] - span[4]
        by_name.setdefault(span[3], []).append(span)

    def outermost(span) -> bool:
        parent = spans.get(span[1])
        while parent is not None:
            if parent[3] == span[3]:
                return False
            parent = spans.get(parent[1])
        return True

    out = {}
    for metric, name in TIME_LAYERS.items():
        out[metric] = sum(s[5] - s[4] for s in by_name.get(name, ()) if outermost(s)) / 1e9
    for metric, name in SELF_LAYERS.items():
        out[metric] = sum(s[5] - s[4] - child_ns.get(s[0], 0) for s in by_name.get(name, ())) / 1e9
    for metric, name in CALL_LAYERS.items():
        out[metric] = len(by_name.get(name, ()))
    out["series.mul_calls"] = trace["counts"].get("series.mul", 0)
    sweeps = by_name.get("numeric.sweep", ())
    out["rows"] = sum(s[6] or 0 for s in sweeps)
    out["sweep_ns"] = sum(s[5] - s[4] for s in sweeps)
    out["numeric_inverse_calls"] = len(by_name.get("numeric.numeric_inverse", ()))
    out["series_inverse_calls"] = len(by_name.get("numeric.series_inverse", ()))
    out["workers"] = max(
        [0] + [s[6] for s in by_name.get("numeric.thread_cap", ()) if spans.get(s[1], ("",) * 4)[3] == "numeric.sweep"]
    )
    out["bits"] = max([0] + [s[6] for s in by_name.get("inversion.compositional_inverse", ()) if s[6]])
    return out


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-invocation means of the summaries, plus per-row ratios."""
    count = max(1, len(summaries))
    total = {key: sum(s[key] for s in summaries) for key in (summaries[0] if summaries else {})}
    metrics = {metric: total.get(metric, 0) / count for metric in [*TIME_LAYERS, *SELF_LAYERS, *CALL_LAYERS, "series.mul_calls"]}
    rows = total.get("rows", 0)
    metrics["series.max_coeff_bits"] = max([0] + [s["bits"] for s in summaries])
    metrics["numeric.numeric_inverse_calls_per_row"] = total["numeric_inverse_calls"] / rows if rows else 0.0
    metrics["numeric.series_inverse_calls_per_row"] = total["series_inverse_calls"] / rows if rows else 0.0
    metrics["numeric.sweep_rows_per_s"] = rows / (total["sweep_ns"] / 1e9) if rows else 0.0
    metrics["numeric.sweep_workers"] = max([0] + [s["workers"] for s in summaries])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
