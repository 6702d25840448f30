"""Exception hierarchy shared by all modules.

Every error raised by this package derives from ArnoldLabError, so callers
(and the CLI) can map failures to exit codes without fishing for stdlib
exception types.
"""


class ArnoldLabError(Exception):
    """Base class for all errors raised by arnold_lab."""


class InvalidInput(ArnoldLabError):
    """A structurally invalid argument (empty coefficient list, bad range...)."""


class CompositionDomain(ArnoldLabError):
    """Composition requires the inner series to have zero constant term."""


class DivisionDomain(ArnoldLabError):
    """Series division requires a unit (nonzero constant term) divisor."""


class BinomialDomain(ArnoldLabError):
    """Binomial powers require the base to have constant term exactly 1."""


class NotInvertible(ArnoldLabError):
    """Series reversion requires a(0) = 0 and a'(0) != 0."""


class UnknownFunction(ArnoldLabError):
    """An expression names a primitive that is not registered."""


class ConditionViolated(ArnoldLabError):
    """The tangency condition (both series equal to x + O(x^2)) fails."""


class IndistinguishableToOrder(ArnoldLabError):
    """The two series agree on every known coefficient."""


class UnresolvedAtOrder(ArnoldLabError):
    """Truncation order too small to resolve the requested quantity."""


class BracketInvalid(ArnoldLabError):
    """The target value is not enclosed by the bracket."""


class NotMonotone(ArnoldLabError):
    """A function assumed monotone showed a sign anomaly."""


class ConfigurationViolated(ArnoldLabError):
    """A geometric sample was requested outside the supported ordering."""
