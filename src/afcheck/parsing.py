"""Parser for integer/rational polynomial expressions in x.

Accepts expressions like "x^3 - x^2 + 1", "2*x + 1/2", "(x-1)*(x+1)",
with implicit multiplication ("2x"), and comma-separated coefficient
lists low-to-high ("1, 0, -2").  Returns coefficient lists, lowest degree
first.  Integral coefficients are ints; a Fraction appears only for one
that is not, which needs a division or a rational literal in the text
("x/2", "1/2, 1").  No product or power may exceed degree
MAX_PARSED_DEGREE (the exponent of a constant counts as its degree), so the
work per input stays small.
"""

from fractions import Fraction

from .polynomials import degree, padd, pmul, pneg, strip

# Defining polynomials stop at degree 6 and element strings are reduced mod
# f afterwards, so no sensible input comes near this.
MAX_PARSED_DEGREE = 64


class ParseError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "xX":
            tokens.append(("x", None))
            i += 1
        elif ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(("^", None))
            i += 2
        elif ch in "+-*/^()":
            tokens.append((ch, None))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial")
    return tokens


def _product(a, b):
    if degree(a) + degree(b) > MAX_PARSED_DEGREE:
        raise ParseError("product above the parser's degree cap "
                         f"{MAX_PARSED_DEGREE}")
    return pmul(a, b)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = padd(node, rhs if op == "+" else pneg(rhs))
        return node

    def term(self):
        node = self.unary()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op = self.take()[0]
                rhs = self.unary()
                if op == "*":
                    node = _product(node, rhs)
                else:
                    if len(strip(rhs)) != 1:
                        raise ParseError("division only by nonzero constants")
                    node = [c / Fraction(rhs[0]) for c in node]
            elif nxt in ("int", "x", "("):
                node = _product(node, self.unary())  # implicit multiplication
            else:
                return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return pneg(self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() == "-":
                raise ParseError("negative exponents not supported")
            if self.peek() != "int":
                raise ParseError("exponent must be a literal integer")
            val = self.take()[1]
            # a constant's exponent counts as its degree, so 2^k is capped too
            if max(degree(base), 1) * val > MAX_PARSED_DEGREE:
                raise ParseError("power above the parser's degree cap "
                                 f"{MAX_PARSED_DEGREE}")
            out = [1]
            for _ in range(val):
                out = pmul(out, base)
            return out
        return base

    def atom(self):
        kind, val = self.take() if self.pos < len(self.tokens) else ("eof", None)
        if kind == "int":
            return [val] if val else []
        if kind == "x":
            return [0, 1]
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parentheses")
            self.take()
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
            try:
                result.append(Fraction(part))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient {part!r}") from exc
    else:
        parser = _Parser(_tokenize(text))
        result = parser.expr()
        if parser.pos != len(parser.tokens):
            raise ParseError("trailing input after polynomial")
    return [c.numerator if c.denominator == 1 else c for c in strip(result)]
