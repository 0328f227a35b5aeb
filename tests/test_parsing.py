"""The polynomial parser: int coefficients, a Fraction only for one that is
not integral; error messages for malformed input; the caps on the degree it
builds and on the digits of its integers."""

import json
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcheck import parsing
from afcheck.cli import run
from afcheck.parsing import (MAX_PARSED_DEGREE, MAX_PARSED_DIGITS, ParseError,
                             parse_poly)


class TestCoefficients:
    @pytest.mark.parametrize("text, coeffs", [
        ("x^3 - x^2 + 1", [1, 0, -1, 1]),
        ("(x-1)*(x+1)", [-1, 0, 1]),
        ("2x(x + 3)", [0, 6, 2]),
        ("x**2 - 2", [-2, 0, 1]),
        ("1, 0, -2", [1, 0, -2]),
        ("-(x - 1)^3", [1, -3, 3, -1]),
        ("x^0", [1]),
        ("x - x", []),
        ("\u0663x + 1", [1, 3]),  # a decimal digit of another script
        ("1.5e3, 1", [1500, 1]),
    ])
    def test_integer_text_gives_ints(self, text, coeffs):
        got = parse_poly(text)
        assert got == coeffs
        assert all(type(c) is int for c in got)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8))
    def test_written_out_polynomial_round_trips(self, coeffs):
        text = " + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))
        got = parse_poly(text)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        assert got == coeffs
        assert all(type(c) is int for c in got)

    @given(st.integers(0, MAX_PARSED_DEGREE), st.integers(1, 9))
    def test_power_of_x_matches_the_general_power(self, k, c):
        # x^k is built as a list; (c*x)^k / c^k goes through products
        got = parse_poly(f"x^{k}")
        assert got == [0] * k + [1]
        assert all(type(v) is int for v in got)
        assert parse_poly(f"({c}x)^{k} / {c}^{k}") == got
        assert parse_poly(f"(x/1)^{k}") == got

    @pytest.mark.parametrize("text, coeffs, fractional", [
        ("x/2", [0, Fraction(1, 2)], [1]),
        ("2*x + 1/2", [Fraction(1, 2), 2], [0]),
        ("1/2, 1", [Fraction(1, 2), 1], [0]),
        ("x^2/3 - x", [0, -1, Fraction(1, 3)], [2]),
        ("(x/2)*2 + x/2 + x/2", [0, 2], []),
        ("2/2, 3/2", [1, Fraction(3, 2)], [1]),
    ])
    def test_fractions_only_where_a_coefficient_is_not_integral(
            self, text, coeffs, fractional):
        got = parse_poly(text)
        assert got == coeffs
        assert [i for i, c in enumerate(got) if type(c) is Fraction] == fractional
        assert all(type(c) in (int, Fraction) for c in got)


X = sympy.symbols("x")

# An expression tree is drawn as (text, sympy value, level, degree bound).
# The level is how loosely the text binds: 0 a sum, 1 a product or
# quotient, 2 a unary minus, 3 a power, 4 an atom; an operand is put in
# parentheses only when its level is too loose for its place, so the text
# leans on the parser's precedence.  The degree bound is at least the degree
# of every subtree, so a tree within the cap is never refused.
LEAVES = st.one_of(
    st.integers(0, 20).map(lambda c: (str(c), sympy.Integer(c), 4, 0)),
    st.just(("x", X, 4, 1)))


def _wrap(node, level):
    text, _, own, _ = node
    return text if own >= level else f"({text})"


def _combine(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: (f"{p[0][0]} + {p[1][0]}", p[0][1] + p[1][1], 0,
                             max(p[0][3], p[1][3]))),
        pairs.map(lambda p: (f"{p[0][0]} - {_wrap(p[1], 1)}",
                             p[0][1] - p[1][1], 0, max(p[0][3], p[1][3]))),
        st.tuples(children, children, st.sampled_from(("*", " * "))).map(
            lambda p: (f"{_wrap(p[0], 1)}{p[2]}{_wrap(p[1], 1)}",
                       p[0][1] * p[1][1], 1, p[0][3] + p[1][3])),
        # implicit multiplication: "2x", "x(x + 1)", "(x - 1)(x + 1)"
        pairs.map(lambda p: (
            _wrap(p[0], 1) + ("x" if p[1][0] == "x" else f"({p[1][0]})"),
            p[0][1] * p[1][1], 1, p[0][3] + p[1][3])),
        st.tuples(children, st.integers(1, 9)).map(
            lambda p: (f"{_wrap(p[0], 1)} / {p[1]}", p[0][1] / p[1], 1,
                       p[0][3])),
        st.tuples(children, st.integers(0, 3), st.sampled_from("^*")).map(
            lambda p: (f"{_wrap(p[0], 4)}{'^' if p[2] == '^' else '**'}"
                       f"{p[1]}", p[0][1] ** p[1], 3,
                       max(p[0][3] * p[1], p[0][3]))),
        children.map(lambda a: (f"-{_wrap(a, 1)}", -a[1], 2, a[3])))


EXPRESSIONS = st.recursive(LEAVES, _combine, max_leaves=10)


class TestAgainstSympy:
    @settings(max_examples=400, deadline=None)
    @given(EXPRESSIONS)
    def test_expression_trees(self, tree):
        text, value, _, bound = tree
        assume(bound <= 21)  # so every power passes the cap: 3 * 21 < 64
        coeffs = sympy.Poly(value, X).all_coeffs()[::-1]
        want = [Fraction(int(c.p), int(c.q)) for c in coeffs]
        while want and not want[-1]:
            want.pop()
        got = parse_poly(text)
        assert got == want, text
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in got)


class TestErrors:
    @pytest.mark.parametrize("text, message", [
        ("x^", "exponent must be a literal integer"),
        ("x**", "exponent must be a literal integer"),
        ("x^x", "exponent must be a literal integer"),
        ("x^(2)", "exponent must be a literal integer"),
        ("x^-2", "negative exponents not supported"),
        ("", "empty polynomial"),
        ("   ", "empty polynomial"),
        ("x + ", "malformed polynomial expression"),
        ("(x + 1", "unbalanced parentheses"),
        ("x + 1)", "trailing input after polynomial"),
        ("x % 2", "unexpected character '%' in polynomial"),
        # a digit that is not a decimal digit is no literal
        ("x\u00b2 + 1", "unexpected character '\u00b2' in polynomial"),
        ("2\u00b9x", "unexpected character '\u00b9' in polynomial"),
        ("x / (x + 1)", "division only by nonzero constants"),
        ("x / 0", "division only by nonzero constants"),
        ("1, a", "bad coefficient 'a'"),
        ("1, 1/0", "bad coefficient '1/0'"),
    ])
    def test_malformed_input(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("argv", [
        ["field", "x^"],
        ["field", "x**"],
        ["frey", "2r", "x^2 - 2", "--a", "x^", "--b", "1", "--c", "1"],
    ])
    def test_cli_reports_a_parse_error(self, capsys, argv):
        code = run(["--output", "json"] + argv)
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert code == 1
        assert error == {"type": "ParseError",
                         "message": "exponent must be a literal integer"}

    def test_cli_reports_a_superscript_digit(self, capsys):
        # "\u00b2".isdigit() holds, but int() refuses it
        code = run(["--output", "json", "field", "x\u00b2 + 1"])
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert code == 1
        assert error == {"type": "ParseError", "message":
                         "unexpected character '\u00b2' in polynomial"}


class TestDegreeCap:
    @pytest.mark.parametrize("text, kind", [
        ("(x+1)^2000", "power"),
        ("x^1000000000", "power"),
        ("2^1000000000", "power"),
        (f"x^{MAX_PARSED_DEGREE + 1}", "power"),
        (f"(x^2 + 1)^{MAX_PARSED_DEGREE // 2 + 1}", "power"),
        (f"x^{MAX_PARSED_DEGREE} * x", "product"),
        (f"x^40 (x^30 + 1)", "product"),
    ])
    def test_rejected_before_it_is_built(self, text, kind):
        started = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert time.perf_counter() - started < 1.0
        assert str(exc.value) == (f"{kind} above the parser's degree cap "
                                  f"{MAX_PARSED_DEGREE}")

    def test_up_to_the_cap_is_accepted(self):
        cap = MAX_PARSED_DEGREE
        assert parse_poly(f"x^{cap}") == [0] * cap + [1]
        assert parse_poly(f"x^{cap - 1} * x") == [0] * cap + [1]
        assert parse_poly(f"2^{cap}") == [2 ** cap]
        assert len(parse_poly(f"(x^2 + 1)^{cap // 2}")) == cap + 1


def digits(c):
    """Decimal digits of the numerator and denominator of c."""
    c = Fraction(c)
    return [len(str(abs(c.numerator))), len(str(c.denominator))]


class TestDigitCap:
    D = MAX_PARSED_DIGITS
    NINES_43 = "9" * 43
    TEN_43 = "1" + "0" * 43

    @pytest.mark.parametrize("text, kind", [
        ("9" * (MAX_PARSED_DIGITS + 1) + " + x", "integer literal"),
        ("x + 1/" + "7" * (MAX_PARSED_DIGITS + 1), "integer literal"),
        ("x^" + "1" * (MAX_PARSED_DIGITS + 1), "integer literal"),
        ("(((2^64)^64)^64)^64 + x", "constant power"),
        ("(((1/2)^64)^64)^64", "constant power"),
        ("((2^16)^19)^47", "constant power"),
        # 10^4300 has one digit too many: refused after it is built
        (f"(({TEN_43})^50)^2", "constant power"),
        (f"(1/({TEN_43})^50)^2 * x", "constant power"),
        (f"(x + {'9' * 4000})^2 + 1", "coefficient"),
        (f"{'9' * 3000} * {'9' * 3000} + x", "coefficient"),
        ("1, 1e5000", "coefficient"),
    ])
    def test_rejected(self, text, kind):
        started = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert time.perf_counter() - started < 1.0
        assert str(exc.value) == (f"{kind} above the parser's cap of "
                                  f"{MAX_PARSED_DIGITS} digits")

    @pytest.mark.parametrize("text, index, size", [
        ("9" * MAX_PARSED_DIGITS + " + x", 0, [MAX_PARSED_DIGITS, 1]),
        ("x + 1/" + "7" * MAX_PARSED_DIGITS, 0, [1, MAX_PARSED_DIGITS]),
        # 2^14283 = ((2^27)^23)^23 and (10^43 - 1)^100 have 4300 digits
        ("((2^27)^23)^23", 0, [MAX_PARSED_DIGITS, 1]),
        (f"(({NINES_43})^50)^2", 0, [MAX_PARSED_DIGITS, 1]),
        (f"(1/({NINES_43})^50)^2 * x", 1, [1, MAX_PARSED_DIGITS]),
        (f"(x + {'9' * 2000})^2", 0, [4000, 1]),
    ])
    def test_just_under_the_cap_is_accepted(self, text, index, size):
        got = parse_poly(text)
        assert digits(got[index]) == size
        assert all(type(c) in (int, Fraction) for c in got)

    def test_constant_powers_stay_ints(self):
        assert parse_poly("2^64 + (-3)^3 x") == [2 ** 64, -27]
        assert all(type(c) is int for c in parse_poly("2^64 + (-3)^3 x"))
        assert parse_poly("(2/4)^2 x") == [0, Fraction(1, 4)]

    @pytest.mark.parametrize("text", [
        "1e1000000, 1", "1, 1E3000000", "1, 2.5e-4301", "1e4_301, 1"])
    def test_a_long_exponent_never_reaches_fraction(self, monkeypatch, text):
        seen = []

        def spy(*args):
            seen.append(args)
            return Fraction(*args)

        monkeypatch.setattr(parsing, "Fraction", spy)
        with pytest.raises(ParseError, match="coefficient above"):
            parse_poly(text)
        assert [a for a in seen if "e" in str(a[0]).lower()] == []

    def test_cli_reports_a_parse_error(self, capsys):
        code = run(["--output", "json", "field", "1" * 5000 + "+x"])
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert code == 1
        assert error == {"type": "ParseError",
                         "message": "integer literal above the parser's cap "
                                    f"of {MAX_PARSED_DIGITS} digits"}
