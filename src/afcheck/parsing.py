"""Parser for integer/rational polynomial expressions in x.

Accepts expressions like "x^3 - x^2 + 1", "2*x + 1/2", "(x-1)*(x+1)",
with implicit multiplication ("2x"), and comma-separated coefficient
lists low-to-high ("1, 0, -2").  Returns coefficient lists, lowest degree
first.  Integral coefficients are ints; a Fraction appears only for one
that is not, which needs a division or a rational literal in the text
("x/2", "1/2, 1").  No product or power may exceed degree
MAX_PARSED_DEGREE (the exponent of a constant counts as its degree), and no
integer literal, constant power or returned coefficient may have more than
MAX_PARSED_DIGITS digits in its numerator or denominator, so the work per
input stays small.
"""

import re
from fractions import Fraction

from .polynomials import degree, pmul, pneg, strip

# Defining polynomials stop at degree 6 and element strings are reduced mod
# f afterwards, so no sensible input comes near this.
MAX_PARSED_DEGREE = 64
# The most digits of a number a request may give, so the work per input
# stays small: the 4300 that int() and str() convert by default (Python
# 3.11+).  cli.run lifts that limit while it answers, since a derived value
# such as a discriminant can be longer.
MAX_PARSED_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_PARSED_DIGITS


class ParseError(ValueError):
    pass


# an integer literal, an operator or x, or any other character but whitespace
_TOKEN = re.compile(r"(\d+)|(\*\*|[-+*/^()xX])|(\S)")
# the digits of one int() call in Fraction(), which allows "_" between them
_DIGIT_RUN = re.compile(r"[\d_]+")
# the exponent of a Fraction() string, as Fraction() reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _tokenize(text):
    """The tokens of text, in order: an int for each integer literal, and
    "x", "+", "-", "*", "/", "^", "(" or ")" for the others ("X" is "x" and
    "**" is "^"); whitespace only separates them."""
    tokens = []
    for digits, op, other in _TOKEN.findall(text):
        if digits:
            _check_literal(digits)
            tokens.append(int(digits))
        elif op:
            tokens.append("^" if op == "**" else op.lower())
        else:
            raise ParseError(f"unexpected character {other!r} in polynomial")
    return tokens


def _check_literal(digits):
    """Refuse a run of decimal digits longer than MAX_PARSED_DIGITS before
    int() converts it, whatever Python's own conversion limit is."""
    if len(digits.replace("_", "")) > MAX_PARSED_DIGITS:
        raise ParseError("integer literal above the parser's cap of "
                         f"{MAX_PARSED_DIGITS} digits")


def _check_digits(c, what):
    """Refuse a rational c whose numerator or denominator has more than
    MAX_PARSED_DIGITS digits."""
    if type(c) is not int:
        c = Fraction(c)
        c = max(abs(c.numerator), c.denominator)
    if abs(c) >= _DIGITS_BOUND:
        raise ParseError(f"{what} above the parser's cap of "
                         f"{MAX_PARSED_DIGITS} digits")


def _constant_power(c, k):
    """c^k for a rational c, refused before it is built when a part of it
    would pass MAX_PARSED_DIGITS digits."""
    c = Fraction(c)
    # |m|^k >= 2^(k*(b-1)) for b = bit_length(m), and 10^D < 2^(bits of 10^D)
    if k * (max(abs(c.numerator), c.denominator).bit_length() - 1) \
            >= _DIGITS_BOUND.bit_length():
        raise ParseError("constant power above the parser's cap of "
                         f"{MAX_PARSED_DIGITS} digits")
    out = c ** k
    _check_digits(out, "constant power")
    return out.numerator if out.denominator == 1 else out


def _product(a, b):
    """a * b for stripped a and b; a nonzero constant factor scales the
    other one."""
    if degree(a) + degree(b) > MAX_PARSED_DEGREE:
        raise ParseError("product above the parser's degree cap "
                         f"{MAX_PARSED_DEGREE}")
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b]
    return pmul(a, b)


class _Parser:
    """Recursive descent over the tokens, which end in None."""

    def __init__(self, tokens):
        self.tokens = tokens + [None]
        self.pos = 0

    def expr(self):
        """A sum of terms, added in place into the first one (every term
        is a fresh list), stripped once at the end."""
        node = self.term()
        while (op := self.tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            rhs = self.term()
            node.extend([0] * (len(rhs) - len(node)))
            if op == "+":
                for i, c in enumerate(rhs):
                    node[i] += c
            else:
                for i, c in enumerate(rhs):
                    node[i] -= c
        return strip(node)

    def term(self):
        node = self.unary()
        while True:
            nxt = self.tokens[self.pos]
            if nxt == "*" or nxt == "/":
                self.pos += 1
                rhs = self.unary()
                if nxt == "*":
                    node = _product(node, rhs)
                else:
                    if len(strip(rhs)) != 1:
                        raise ParseError("division only by nonzero constants")
                    node = [c / Fraction(rhs[0]) for c in node]
            elif type(nxt) is int or nxt == "x" or nxt == "(":
                node = _product(node, self.unary())  # implicit multiplication
            else:
                return node

    def unary(self):
        sign = self.tokens[self.pos]
        if sign == "-" or sign == "+":
            self.pos += 1
            return pneg(self.unary()) if sign == "-" else self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.tokens[self.pos] != "^":
            return base
        val = self.tokens[self.pos + 1]
        if val == "-":
            raise ParseError("negative exponents not supported")
        if type(val) is not int:
            raise ParseError("exponent must be a literal integer")
        self.pos += 2
        # a constant's exponent counts as its degree, so 2^k is capped too
        if max(degree(base), 1) * val > MAX_PARSED_DEGREE:
            raise ParseError("power above the parser's degree cap "
                             f"{MAX_PARSED_DEGREE}")
        if len(base) == 1:
            return [_constant_power(base[0], val)]
        if base == [0, 1]:
            return [0] * val + [1]
        out = [1]
        for _ in range(val):
            out = pmul(out, base)
        return out

    def atom(self):
        tok = self.tokens[self.pos]
        if tok is None:
            raise ParseError("malformed polynomial expression")
        self.pos += 1
        if type(tok) is int:
            return [tok] if tok else []
        if tok == "x":
            return [0, 1]
        if tok == "(":
            inner = self.expr()
            if self.tokens[self.pos] != ")":
                raise ParseError("unbalanced parentheses")
            self.pos += 1
            return inner
        raise ParseError("malformed polynomial expression")


def parse_poly(text: str):
    """Parse an expression or comma-separated coefficient list; integral
    coefficients come back as ints, the others as Fractions."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if "," in text:
        result = []
        for part in text.split(","):
            part = part.strip()
            for digits in _DIGIT_RUN.findall(part):
                _check_literal(digits)
            # Fraction() would build 10^N for "1eN" before _check_digits
            exponent = _EXPONENT.search(part)
            if exponent and abs(int(exponent[1])) > MAX_PARSED_DIGITS:
                raise ParseError("coefficient above the parser's cap of "
                                 f"{MAX_PARSED_DIGITS} digits")
            try:
                result.append(Fraction(part))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient {part!r}") from exc
    else:
        parser = _Parser(_tokenize(text))
        result = parser.expr()
        if parser.tokens[parser.pos] is not None:
            raise ParseError("trailing input after polynomial")
    for c in result:
        _check_digits(c, "coefficient")
    return [c.numerator if c.denominator == 1 else c for c in strip(result)]
