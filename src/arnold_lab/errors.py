"""Exception hierarchy and immutable record base shared by all modules.

Every error raised by this package derives from ArnoldLabError, so callers
(and the CLI) can map failures to exit codes without fishing for stdlib
exception types.
"""

from operator import attrgetter


class Record:
    """Immutable record whose fields are the names in __slots__, in order.

    Built from every field, either all by position or all by keyword; equal
    and hashed by exact type and field values.  Unlike dataclass(frozen=True),
    it costs no start-up time in imports or generated code.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the slot descriptors' own setters bypass the frozen __setattr__
        cls._setters = {name: cls.__dict__[name].__set__ for name in cls.__slots__}
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs and not args and kwargs.keys() == setters.keys():
            args = tuple(map(kwargs.get, setters))
        elif kwargs or len(args) != len(setters):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(setters)}, all by "
                            f"position or all by keyword; got {len(args)} by position and "
                            f"{', '.join(kwargs) or 'none'} by keyword")
        for set_field, value in zip(setters.values(), args):
            set_field(self, value)

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"field {name!r} of a {type(self).__name__} is read-only")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # pickle and copy, which would assign the slots
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class ArnoldLabError(Exception):
    """Base class for all errors raised by arnold_lab."""


class InvalidInput(ArnoldLabError):
    """A structurally invalid argument (empty coefficient list, bad range...)."""


class ParseError(ArnoldLabError):
    """Malformed expression text.

    offset is 1-based into the UTF-8 byte encoding of the input; expected
    lists the token kinds that would have been legal at that point.
    """

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        wanted = " or ".join(expected)
        super().__init__(f"at offset {offset}: expected {wanted}, found {found}")


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
