"""Parser for the little function-expression language.

Grammar (whitespace-insensitive):

    expr     := term (("+" | "-") term)*
    term     := [rational "*"] factor
    factor   := primary ("o" primary)*          right-associative
    primary  := name | "x" ["^" integer] | rational "*" primary | "(" expr ")"
    rational := integer ["/" positive-integer]

"o" composes functions; the Unicode ring operator is accepted as an alias.
Sums associate left.  Errors carry a 1-based byte offset into the UTF-8
encoding of the input plus the token kinds that would have been accepted.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, Record

# AST nodes: Rational coefficients, positive int exponents, FunctionExpr children


class Primitive(Record):
    _fields = ("name",)


class Monomial(Record):
    _fields = ("coefficient", "exponent")


class Sum(Record):
    _fields = ("left", "right")


class Difference(Record):
    _fields = ("left", "right")


class Scale(Record):
    _fields = ("coefficient", "child")


class Compose(Record):
    _fields = ("outer", "inner")


FunctionExpr = Primitive | Monomial | Sum | Difference | Scale | Compose


# tokenizer: the group that matches a lexeme names its kind, and a word is a
# token only if it starts with a letter or "_"; \s and \w test str.isspace()
# and str.isalnum() or "_", offsets count UTF-8 bytes
_LEXEME = re.compile(
    r"(?P<space>\s+)|(?P<int>[0-9]+)|(?P<word>\w+)|(?P<o>∘)|(?P<symbol>[-+*/^()])|."
)


class _Token(Record):
    # kind is "name", "x", "int", "o", a symbol or "end"; offset is 1-based in bytes
    _fields = ("kind", "text", "offset")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    offset = 1
    for match in _LEXEME.finditer(text):
        kind, lexeme = match.lastgroup, match.group()
        if kind == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            kind = lexeme if lexeme in ("x", "o") else "name"
        elif kind == "symbol":
            kind = lexeme
        elif kind == "int":
            try:
                int(lexeme)
            except ValueError:  # more digits than int() converts
                found = f"{len(lexeme)}-digit integer"
                raise ParseError(offset, ("shorter integer",), found) from None
        elif kind not in ("space", "o"):  # a word led by a digit, or any other character
            raise ParseError(offset, ("a valid token",), repr(lexeme[0]))
        if kind != "space":
            tokens.append(_Token(kind, lexeme, offset))
        offset += len(lexeme.encode("utf-8"))
    tokens.append(_Token("end", "end of input", offset))
    return tokens


class _Parser:
    # enclosing parentheses plus the chain operators before a token are capped,
    # so that pathological inputs produce a ParseError instead of blowing the
    # interpreter stack, here or in whatever walks the returned tree
    MAX_DEPTH = 200

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.current
        found = tok.text if tok.kind == "end" else repr(tok.text)
        return ParseError(tok.offset, expected, found)

    def descend(self) -> None:
        if self.depth >= self.MAX_DEPTH:
            raise self.fail(("less deeply nested input",))
        self.depth += 1

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise self.fail((kind,))
        return self.advance()

    # rational := integer ["/" positive-integer], integer may carry a sign
    def at_rational(self) -> bool:
        if self.current.kind == "int":
            return True
        return self.current.kind == "-" and self.tokens[self.pos + 1].kind == "int"

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.current.kind == "-":
            self.advance()
            sign = -1
        numerator = sign * int(self.expect("int").text)
        if self.current.kind == "/":
            self.advance()
            den_tok = self.expect("int")
            denominator = int(den_tok.text)
            if denominator == 0:
                raise ParseError(den_tok.offset, ("positive integer",), repr(den_tok.text))
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def parse_expr(self) -> FunctionExpr:
        node = self.parse_term()
        while self.current.kind in ("+", "-"):
            self.descend()
            op = self.advance().kind
            right = self.parse_term()
            node = Sum(node, right) if op == "+" else Difference(node, right)
        return node

    def parse_term(self) -> FunctionExpr:
        if self.at_rational():
            coefficient = self.parse_rational()
            self.expect("*")
            return _scaled(coefficient, self.parse_factor())
        return self.parse_factor()

    def parse_factor(self) -> FunctionExpr:
        primaries = [self.parse_primary()]
        while self.current.kind == "o":
            self.descend()
            self.advance()
            primaries.append(self.parse_primary())
        node = primaries[-1]
        for outer in reversed(primaries[:-1]):
            node = Compose(outer, node)
        return node

    def parse_primary(self) -> FunctionExpr:
        tok = self.current
        if tok.kind == "name":
            self.advance()
            return Primitive(tok.text)
        if tok.kind == "x":
            self.advance()
            exponent = 1
            if self.current.kind == "^":
                self.advance()
                exp_tok = self.expect("int")
                exponent = int(exp_tok.text)
                if exponent < 1:
                    raise ParseError(exp_tok.offset, ("positive integer",), repr(exp_tok.text))
            return Monomial(Fraction(1), exponent)
        if self.at_rational():
            coefficient = Fraction(1)
            while self.at_rational():  # a run of coefficients folds into one Scale
                coefficient *= self.parse_rational()
                self.expect("*")
            return _scaled(coefficient, self.parse_primary())
        if tok.kind == "(":
            depth = self.depth
            self.descend()
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            self.depth = depth
            return node
        raise self.fail(("name", "x", "rational", "("))


def _scaled(coefficient: Fraction, child: FunctionExpr) -> FunctionExpr:
    """Fold scalar coefficients so Scale never wraps Monomial or Scale."""
    if isinstance(child, Monomial):
        return Monomial(coefficient * child.coefficient, child.exponent)
    if isinstance(child, Scale):
        return Scale(coefficient * child.coefficient, child.child)
    return Scale(coefficient, child)


def parse(text: str) -> FunctionExpr:
    """Parse expression text into an AST, or raise ParseError."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.current.kind != "end":
        raise parser.fail(("o", "+", "-", "end of input"))
    return node
