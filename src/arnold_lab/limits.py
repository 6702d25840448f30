"""The exact limit of (f - g) / (g_inv - f_inv) at the origin.

For analytic f, g tangent to y = x at 0 (both equal to x + O(x^2)) and not
identical, the numerator and denominator first differ at the same index N
and with the same leading coefficient, so the ratio tends to exactly 1.
This module computes that limit from truncated series instead of assuming
it.
"""

from __future__ import annotations

from .errors import (
    ConditionViolated,
    IndistinguishableToOrder,
    Record,
    UnresolvedAtOrder,
)
from .inversion import compositional_inverse
from .series import (
    FlatToOrder,
    TruncatedSeries,
    rational_to_json,
    series_to_json,
    sub,
    valuation,
)


class ArnoldReport(Record):
    """Everything the limit computation established, exactly."""

    __slots__ = ("N", "numerator_leading", "denominator_leading", "limit",
                 "f_inverse", "g_inverse")

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "numerator_leading": rational_to_json(self.numerator_leading),
            "denominator_leading": rational_to_json(self.denominator_leading),
            "limit": rational_to_json(self.limit),
            "f_inverse": series_to_json(self.f_inverse),
            "g_inverse": series_to_json(self.g_inverse),
        }


def _require_tangent(label: str, s: TruncatedSeries) -> None:
    if s.coefficients[0] != 0:
        raise ConditionViolated(f"{label}(0) must be 0, got {s.coefficients[0]}")
    if s.order < 1 or s.coefficients[1] != 1:
        raise ConditionViolated(f"{label} must have derivative exactly 1 at 0")


def arnold_ratio(f: TruncatedSeries, g: TruncatedSeries) -> ArnoldReport:
    """Locate N and compute the exact limit of (f - g)/(g_inv - f_inv).

    Both series must be x + O(x^2) exactly and differ somewhere below the
    truncation order; one extra resolved coefficient beyond N is required
    so the denominator's leading term is trustworthy.
    """
    _require_tangent("f", f)
    _require_tangent("g", g)
    order = min(f.order, g.order)
    f = f.truncate(order)
    g = g.truncate(order)

    index = valuation(sub(f, g))  # the first index where f and g differ
    if isinstance(index, FlatToOrder):
        raise IndistinguishableToOrder(
            f"series agree through order {order}; the ratio needs distinct inputs"
        )
    if order < index + 1:
        raise UnresolvedAtOrder(
            f"first divergence at {index} needs order >= {index + 1}, got {order}"
        )

    f_inverse = compositional_inverse(f).inverse
    g_inverse = compositional_inverse(g).inverse
    numerator_leading = f.coefficients[index] - g.coefficients[index]
    denominator_leading = g_inverse.coefficients[index] - f_inverse.coefficients[index]
    if denominator_leading == 0:
        # cannot happen when the tangency condition holds (the inverse
        # coefficients then diverge exactly where the forward ones do)
        raise UnresolvedAtOrder(f"inverse series agree at index {index}")
    return ArnoldReport(
        N=index,
        numerator_leading=numerator_leading,
        denominator_leading=denominator_leading,
        limit=numerator_leading / denominator_leading,
        f_inverse=f_inverse,
        g_inverse=g_inverse,
    )
