"""arnold_lab: a formal power series laboratory for the tangent-functions
limit problem.

Exact half: truncated series over rationals, series reversion, elementary
generators, an expression language, and the exact limit
of (f - g)/(g_inv - f_inv).  Numeric half: double-precision geometry of
the same picture plus the flat counterexample whose ratio tends to 1/e.
"""

from .errors import (
    ArnoldLabError,
    BinomialDomain,
    BracketInvalid,
    CompositionDomain,
    ConditionViolated,
    ConfigurationViolated,
    DivisionDomain,
    IndistinguishableToOrder,
    InvalidInput,
    NotInvertible,
    NotMonotone,
    UnknownFunction,
    UnresolvedAtOrder,
)
from .series import (
    FlatToOrder,
    Rational,
    TruncatedSeries,
    add,
    compose,
    derive,
    divide,
    identity_series,
    integrate,
    make_series,
    monomial_series,
    mul,
    one_series,
    pow_binomial,
    rational_from_json,
    rational_to_json,
    scale,
    series_from_json,
    series_to_json,
    sub,
    valuation,
    zero_series,
)
from .inversion import InverseWitness, compositional_inverse
from .elementary import eval_expr, eval_text
from .expressions import (
    Compose,
    Difference,
    FunctionExpr,
    Monomial,
    ParseError,
    Primitive,
    Scale,
    Sum,
    parse,
)
from .limits import ArnoldReport, arnold_ratio
from .numeric import (
    CSV_HEADER,
    GeometricSample,
    InverseFn,
    SeriesFn,
    SweepTable,
    counterexample_pair,
    counterexample_ratio,
    counterexample_sweep,
    flatness_check,
    geometric_sample,
    log_theta,
    numeric_inverse,
    sweep,
    theta,
)

__version__ = "0.1.0"
