"""Parser and printer for the little function-expression language.

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

from fractions import Fraction

from .errors import ArnoldLabError, Record

# AST nodes: Rational coefficients, positive int exponents, FunctionExpr children


class Primitive(Record):
    __slots__ = ("name",)


class Monomial(Record):
    __slots__ = ("coefficient", "exponent")


class Sum(Record):
    __slots__ = ("left", "right")


class Difference(Record):
    __slots__ = ("left", "right")


class Scale(Record):
    __slots__ = ("coefficient", "child")


class Compose(Record):
    __slots__ = ("outer", "inner")


FunctionExpr = Primitive | Monomial | Sum | Difference | Scale | Compose


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

    def to_json_dict(self) -> dict:
        return {"offset": self.offset, "expected": list(self.expected)}


# tokenizer

_SYMBOLS = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "^", "(": "(", ")": ")"}
_COMPOSE_ALIASES = {"o", "∘"}


class _Token(Record):
    # kind is "name", "x", "int", "o", one of _SYMBOLS or "end"; offset is 1-based in bytes
    __slots__ = ("kind", "text", "offset")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    byte_pos = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            byte_pos += len(ch.encode("utf-8"))
            i += 1
            continue
        start = byte_pos
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            try:
                int(text[i:j])
            except ValueError:  # more digits than int() converts
                raise ParseError(start, ("shorter integer",), f"{j - i}-digit integer") from None
            tokens.append(_Token("int", text[i:j], start))
            byte_pos += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _COMPOSE_ALIASES:
                kind = "o"
            elif word == "x":
                kind = "x"
            else:
                kind = "name"
            tokens.append(_Token(kind, word, start))
            byte_pos += len(word.encode("utf-8"))
            i = j
            continue
        if ch in _COMPOSE_ALIASES:
            tokens.append(_Token("o", ch, start))
            byte_pos += len(ch.encode("utf-8"))
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, start))
            byte_pos += 1
            i += 1
            continue
        raise ParseError(start, ("a valid token",), repr(ch))
    tokens.append(_Token("end", "end of input", byte_pos))
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


# rendering; parse(render(ast)) is structurally equal to ast for any
# canonical tree (Scale never directly over Monomial or Scale)

def _render_compose_operand(node: FunctionExpr) -> str:
    if isinstance(node, Primitive):
        return node.name
    if isinstance(node, Monomial) and node.coefficient == 1:
        return _render_monomial(node)
    return f"({render(node)})"


def _render_monomial(node: Monomial) -> str:
    base = "x" if node.exponent == 1 else f"x^{node.exponent}"
    if node.coefficient == 1:
        return base
    return f"{node.coefficient} * {base}"


def _render_term(node: FunctionExpr) -> str:
    if isinstance(node, (Sum, Difference)):
        return f"({render(node)})"
    return render(node)


def render(ast: FunctionExpr) -> str:
    """Canonical text for an AST."""
    if isinstance(ast, Primitive):
        return ast.name
    if isinstance(ast, Monomial):
        return _render_monomial(ast)
    if isinstance(ast, Sum):
        return f"{render(ast.left)} + {_render_term(ast.right)}"
    if isinstance(ast, Difference):
        return f"{render(ast.left)} - {_render_term(ast.right)}"
    if isinstance(ast, Scale):
        if isinstance(ast.child, Primitive):
            child = ast.child.name
        else:
            child = f"({render(ast.child)})"
        return f"{ast.coefficient} * {child}"
    if isinstance(ast, Compose):
        left = _render_compose_operand(ast.outer)
        if isinstance(ast.inner, Compose):
            right = render(ast.inner)
        else:
            right = _render_compose_operand(ast.inner)
        return f"{left} o {right}"
    raise TypeError(f"not a FunctionExpr node: {ast!r}")
