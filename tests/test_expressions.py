"""Grammar: examples, error offsets, round trip, fuzz."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnold_lab.errors import ParseError
from arnold_lab.expressions import Compose, Difference, Monomial, Primitive, Scale, Sum, parse
from helpers import random_ast, render


class TestParseExamples:
    def test_two_token_composition(self):
        assert parse("tan o sin") == Compose(Primitive("tan"), Primitive("sin"))

    def test_polynomial(self):
        assert parse("x + x^2") == Sum(Monomial(F(1), 1), Monomial(F(1), 2))

    def test_unicode_alias(self):
        assert parse("tan ∘ sin") == parse("tan o sin")

    def test_whitespace_insensitive(self):
        assert parse("  tan   o\tsin ") == parse("tan o sin")

    def test_composition_right_associative(self):
        assert parse("a o b o c") == Compose(
            Primitive("a"), Compose(Primitive("b"), Primitive("c"))
        )

    def test_composition_binds_tighter_than_sum(self):
        assert parse("x + tan o sin") == Sum(
            Monomial(F(1), 1), Compose(Primitive("tan"), Primitive("sin"))
        )

    def test_scale_folds_into_monomial(self):
        assert parse("3 * x^2") == Monomial(F(3), 2)
        assert parse("-1/2 * x") == Monomial(F(-1, 2), 1)
        assert parse("3 * (x)") == Monomial(F(3), 1)

    def test_scale_over_primitive(self):
        assert parse("1/2 * sin") == Scale(F(1, 2), Primitive("sin"))

    def test_nested_scale_folds(self):
        assert parse("2 * 3 * sin") == Scale(F(6), Primitive("sin"))

    def test_term_scale_covers_whole_factor(self):
        assert parse("2 * x o sin") == Scale(F(2), Compose(Monomial(F(1), 1), Primitive("sin")))

    def test_difference_left_associative(self):
        assert parse("x - sin - cos") == Difference(
            Difference(Monomial(F(1), 1), Primitive("sin")), Primitive("cos")
        )

    def test_parenthesized_sum_as_compose_operand(self):
        assert parse("(x + x^2) o sin") == Compose(
            Sum(Monomial(F(1), 1), Monomial(F(1), 2)), Primitive("sin")
        )


class TestParseErrors:
    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError) as info:
            parse("sin((")
        assert info.value.offset == 4
        assert "end of input" in info.value.expected

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as info:
            parse("x + + x")
        assert info.value.offset == 5

    def test_dangling_composition(self):
        with pytest.raises(ParseError) as info:
            parse("tan o")
        assert info.value.offset == 6

    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert info.value.offset == 1

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as info:
            parse("3/0 * x")
        assert info.value.offset == 3

    def test_zero_exponent(self):
        with pytest.raises(ParseError) as info:
            parse("x^0")
        assert info.value.offset == 3

    def test_unclosed_group(self):
        with pytest.raises(ParseError) as info:
            parse("(x + sin")
        assert info.value.offset == 9
        assert info.value.expected == (")",)

    def test_stray_character(self):
        with pytest.raises(ParseError) as info:
            parse("x $ y")
        assert info.value.offset == 3

    def test_deep_nesting_is_an_error_not_a_crash(self):
        with pytest.raises(ParseError):
            parse("(" * 5000)
        for chain in (" o ".join(["sin"] * 3000), " + ".join(["x"] * 3000)):
            with pytest.raises(ParseError):
                parse(chain)

    def test_json_shape(self):
        with pytest.raises(ParseError) as info:
            parse("sin((")
        assert info.value.offset == 4
        assert info.value.expected == ("o", "+", "-", "end of input")


class TestLexicalRules:
    # whitespace is str.isspace(), a name starts with str.isalpha() or "_" and
    # goes on with str.isalnum() or "_", and offsets count UTF-8 bytes

    @pytest.mark.parametrize("space", ["\u00a0", "\u001c", "\u0085"])
    def test_unicode_whitespace_separates_tokens(self, space):
        assert parse(f"tan{space}o{space}sin{space}") == parse("tan o sin")

    @pytest.mark.parametrize("text, offset, found", [
        ("tan ∘ x $", 11, "'$'"),  # the ring operator is 3 bytes
        ("sin ∘ 🙂", 9, "'🙂'"),
        ("²", 1, "'²'"),  # a digit, but not a letter
        ("٣ * x", 1, "'٣'"),
        ("sin \u0301", 5, "'\u0301'"),  # a lone combining mark
    ])
    def test_invalid_token_offsets(self, text, offset, found):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.offset, info.value.expected, info.value.found) == (
            offset, ("a valid token",), found
        )

    @pytest.mark.parametrize("name", ["x٣", "o2", "_"])
    def test_names(self, name):
        assert parse(name) == Primitive(name)

    def test_integer_longer_than_int_converts(self):
        with pytest.raises(ParseError) as info:
            parse("1" * 5000 + " * x")
        assert (info.value.offset, info.value.expected, info.value.found) == (
            1, ("shorter integer",), "5000-digit integer"
        )


class TestRender:
    def test_examples(self):
        assert render(Compose(Primitive("tan"), Primitive("sin"))) == "tan o sin"
        assert render(Sum(Monomial(F(1), 1), Monomial(F(1), 2))) == "x + x^2"
        assert render(Scale(F(1, 2), Primitive("sin"))) == "1/2 * sin"

    def test_right_nested_sum_parenthesized(self):
        ast = Sum(Primitive("a"), Sum(Primitive("b"), Primitive("c")))
        assert render(ast) == "a + (b + c)"
        assert parse(render(ast)) == ast

    def test_left_nested_compose_parenthesized(self):
        ast = Compose(Compose(Primitive("a"), Primitive("b")), Primitive("c"))
        assert render(ast) == "(a o b) o c"
        assert parse(render(ast)) == ast

    def test_scaled_compose(self):
        ast = Scale(F(2), Compose(Primitive("a"), Primitive("b")))
        assert render(ast) == "2 * (a o b)"
        assert parse(render(ast)) == ast

    def test_sum_as_compose_operand(self):
        ast = Compose(Sum(Primitive("a"), Primitive("b")), Primitive("c"))
        assert render(ast) == "(a + b) o c"
        assert parse(render(ast)) == ast


class TestRoundTrip:
    def test_seeded_corpus(self):
        rng = random.Random(424242)
        for _ in range(200):
            ast = random_ast(rng)
            assert parse(render(ast)) == ast

    @settings(max_examples=150)
    @given(st.data())
    def test_hypothesis_corpus(self, data):
        seed = data.draw(st.integers(0, 2**48))
        ast = random_ast(random.Random(seed))
        assert parse(render(ast)) == ast


class TestFuzz:
    @settings(max_examples=300)
    @given(st.text(max_size=40))
    def test_never_crashes(self, text):
        try:
            parse(text)
        except ParseError:
            pass

    @settings(max_examples=300)
    @given(st.text(alphabet="xo+-*/^() 123sincostanarid∘", max_size=30))
    def test_never_crashes_dense(self, text):
        try:
            parse(text)
        except ParseError:
            pass
