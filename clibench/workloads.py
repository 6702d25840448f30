"""Seeded inputs for the three workloads.

A workload is a list of invocations, one "round", that the benchmark
repeats whole until its time is up.  The seed decides the numbers in the
round (grids, the order of the invocations, the point where inverses are
evaluated) but never how many invocations it holds or what kind, so every
seed asks the program for the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import oracle


@dataclass(frozen=True)
class Invocation:
    """Arguments after `python -m arnold_lab`, and how to check the output."""

    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]]


def log_spaced(lo: float, hi: float, points: int) -> list[float]:
    """points values from hi down to lo, uniform in log, endpoints exact."""
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    values = [math.exp(math.log(hi) - k * step) for k in range(points)]
    values[0], values[-1] = hi, lo
    return values


# exact_limit: the pairs all differ first at x^7 and use every primitive,
# so sin/cos division (tan) and the binomial generators (arcsin, arctan)
# both run.  Orders 24 and 40 sit on the ladder where reversion dominates;
# two order-24 calls per order-40 call keep the median inside one cluster.
LIMIT_PAIRS = (
    (("tan", "sin"), ("sin", "tan")),
    (("arcsin", "arctan"), ("arctan", "arcsin")),
    (("tan", "arcsin"), ("arcsin", "tan")),
    (("arctan", "sin"), ("sin", "arctan")),
)
LIMIT_ORDERS = (24, 24, 40)

# flat_sweep: t >= 3e-7 keeps the 0.4 t bound clear of double rounding,
# which eats it near t = 4e-8.
FLAT_GRIDS = 4
FLAT_POINTS = 2000
FLAT_T_MIN = (10**-6.5, 1e-6)
FLAT_T_MAX = (0.05, 0.1)

# series_sweep: x >= 0.05 keeps |f - g| far above the rounding of f and
# g near x; x <= 0.4 stays inside every reversion's radius.  The pairs
# cover both configurations (f > g > x and its mirror image).
SWEEP_PAIRS = (
    (("tan", "sin"), ("sin", "tan")),
    (("arcsin", "arctan"), ("arctan", "arcsin")),
    (("tan",), ("arcsin",)),
    (("arctan", "sin"), ("sin", "arctan")),
)
SWEEP_ORDER = 12
SWEEP_POINTS = 3000
SWEEP_X_MIN = (0.05, 0.06)
SWEEP_X_MAX = (0.35, 0.4)


class Workload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.invocations: list[Invocation] = []

    def round(self) -> list[Invocation]:
        return self.invocations


class ExactLimit(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.x_eval = Fraction(1, self.rng.randint(16, 32))
        self.references: dict[tuple, checks.LimitReference] = {}
        self.items = [(f, g, order) for f, g in LIMIT_PAIRS for order in LIMIT_ORDERS]

    def _check(self, f, g, order) -> Callable[[bytes], list[str]]:
        def check(stdout: bytes) -> list[str]:
            key = (f, g, order)
            if key not in self.references:
                self.references[key] = checks.LimitReference(f, g, order)
            return checks.check_limit(self.references[key], self.x_eval, stdout)

        return check

    def round(self) -> list[Invocation]:
        items = list(self.items)
        self.rng.shuffle(items)
        return [
            Invocation(
                ("limit", "--f", oracle.cli_text(f), "--g", oracle.cli_text(g), "--order", str(order)),
                self._check(f, g, order),
            )
            for f, g, order in items
        ]


class FlatSweep(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        for _ in range(FLAT_GRIDS):
            t_min = 10 ** self.rng.uniform(*map(math.log10, FLAT_T_MIN))
            t_max = 10 ** self.rng.uniform(*map(math.log10, FLAT_T_MAX))
            ts = log_spaced(t_min, t_max, FLAT_POINTS)
            argv = ("counterexample", "--t-min", repr(t_min), "--t-max", repr(t_max), "--points", str(FLAT_POINTS))
            self.invocations.append(
                Invocation(argv, lambda stdout, ts=ts: checks.check_counterexample(ts, "csv", stdout))
            )


class SeriesSweep(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        for k, (f, g) in enumerate(SWEEP_PAIRS):
            x_min = self.rng.uniform(*SWEEP_X_MIN)
            x_max = self.rng.uniform(*SWEEP_X_MAX)
            fmt = ("csv", "json")[k % 2]
            xs = log_spaced(x_min, x_max, SWEEP_POINTS)
            argv = (
                "sweep", "--f", oracle.cli_text(f), "--g", oracle.cli_text(g),
                "--x-min", repr(x_min), "--x-max", repr(x_max), "--points", str(SWEEP_POINTS),
                "--order", str(SWEEP_ORDER), "--format", fmt,
            )
            self.invocations.append(Invocation(argv, self._check(f, g, xs, fmt)))

    @staticmethod
    def _check(f, g, xs, fmt) -> Callable[[bytes], list[str]]:
        def check(stdout: bytes) -> list[str]:
            return checks.check_sweep(checks.SweepReference(f, g, SWEEP_ORDER), xs, fmt, stdout)

        return check


WORKLOADS = {"exact_limit": ExactLimit, "flat_sweep": FlatSweep, "series_sweep": SeriesSweep}
