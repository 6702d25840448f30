"""Exception hierarchy and immutable record base shared by all modules.

Every error raised by this package derives from ArnoldLabError, so callers
(and the CLI) can map failures to exit codes without fishing for stdlib
exception types.
"""

from operator import itemgetter


class _RecordType(type):
    # each field a read-only property, and no per-instance __dict__
    def __new__(mcls, name, bases, namespace):
        for k, field in enumerate(namespace.get("_fields", ())):
            namespace[field] = property(itemgetter(k))
        return super().__new__(mcls, name, bases, {**namespace, "__slots__": ()})


class Record(tuple, metaclass=_RecordType):
    """Immutable record: the tuple of the fields that _fields names, in order.

    Built from every field, all by position or all by keyword; each field is
    also a property.  Never equal to a plain tuple or another type's record,
    but ordered as a tuple, by value alone, so sort records of one type only.
    Unlike dataclass(frozen=True), it costs no start-up time in imports.
    """

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs and not args and kwargs.keys() == set(fields):
            args = tuple(map(kwargs.get, fields))
        elif kwargs or len(args) != len(fields):
            raise TypeError(f"{cls.__name__}() takes {', '.join(fields)}, all by "
                            f"position or all by keyword; got {len(args)} by position and "
                            f"{', '.join(kwargs) or 'none'} by keyword")
        return tuple.__new__(cls, args)

    # a tuple subclass's reflected method runs first, so these decide tuple == record too
    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # tuple's own would pass the fields as one argument
        return type(self), tuple(self)


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
