"""Exact arithmetic in a number field K = Q[x]/(f).

A field is presented by a monic irreducible integer polynomial.  An element
is stored as an integer numerator vector ``num`` in the power basis
1, theta, ..., theta^(n-1) over one positive integer denominator ``den``,
always in canonical form (``gcd(den, *num) == 1``), so equal elements have
equal representations.  Output and order come from (num, den) alone:
``key()`` is the reduced (numerator, denominator) pair of each coordinate,
one gcd each, and ``coord_strs()`` writes them as "n" or "n/d".  ``coords``
is the ``fractions.Fraction`` view, for rational arithmetic at the API
boundary.  The integer kernels live on the field and take bare coordinate
sequences: ``mul_num`` multiplies two of them, reducing through a per-field
table of theta^k for n <= k < 2n-1 that the first product builds (closed
forms in degree 1 and 2), and
``num_norm`` is their norm (closed forms in degree 1 and 2, else the
Bareiss determinant of the multiplication matrix).  The product and norm
of a FieldElement are these on ``num``, with the denominator kept aside, so
a caller that tests many candidates can skip building elements.  A
rational operand skips the kernels: an int or Fraction becomes (num, den)
with no Fraction built, a product with a rational element scales the other
factor's ``num``, and a rational element inverts to den/num[0]; any other
inverse is Cramer's rule, n + 1 Bareiss determinants on the multiplication
matrix of ``num``.  A real place is the dyadic interval (lo, hi, k) of its
root from integer Sturm isolation, standing for [lo / 2^k, hi / 2^k]; an
element is bounded over it by integer interval Horner, the root's interval
bisected on the integers (embedding_interval), and embedding_bounds doubles
that precision until the bounds leave out zero, which gives the sign.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .errors import (AfcheckError, DegreeZero, DivisionByZero, NotMonic,
                     Reducible, Unsupported, ZeroElement)
from .parsing import parse_poly
from .polynomials import (integer_roots, interval_eval,
                          irreducible_by_degree_patterns, isolate_real_roots,
                          mul_matrix, poly_disc, refine_root, strip, zx_divmod,
                          zx_factor)

MAX_DEGREE = 6


class NumberField:
    """Q[x]/(f) for a monic irreducible integer polynomial f of degree <= 6."""

    def __init__(self, coeffs, poly_disc_value, real_roots,
                 user_class_number=None):
        self.coeffs = tuple(int(c) for c in coeffs)
        self.degree = len(self.coeffs) - 1
        self.poly_disc = poly_disc_value
        self.real_roots = tuple(real_roots)
        r1 = len(real_roots)
        self.signature = (r1, (self.degree - r1) // 2)
        self.field_disc = None  # set once the index is verified at all squares
        self.user_class_number = user_class_number  # see make_field
        self._memo = {}

    def memo(self, key, compute):
        """compute() once per field and key: the value, or the AfcheckError
        compute() raised, is stored on the field, so it lives as long as the
        field does, one request of the CLI; a stored error is raised again,
        so a failed search is not repeated.  The error is kept, and raised
        each time, as a copy without a traceback, whose frames would hold
        the field in a reference cycle.  Callers must not mutate what they
        get back."""
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except AfcheckError as exc:
                self._memo[key] = _bare_copy(exc)
        value = self._memo[key]
        if isinstance(value, AfcheckError):
            raise _bare_copy(value)
        return value

    # -- basic properties ---------------------------------------------

    @property
    def is_totally_real(self):
        return self.signature[1] == 0

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"NumberField({_poly_str(self.coeffs)})"

    def reduce(self, num):
        """Integer polynomial num reduced mod the monic f, padded to degree n."""
        rem = zx_divmod(num, self.coeffs)[1]
        return rem + [0] * (self.degree - len(rem))

    # -- integer kernels on coordinate sequences ------------------------

    @cached_property
    def _reduction(self):
        """Integer coordinates of theta^k for n <= k < 2n-1, the powers a
        product of two reduced elements can reach; built by the first
        product that needs them, since most fields never multiply."""
        n = self.degree
        return tuple(self.reduce([0] * k + [1]) for k in range(n, 2 * n - 1))

    def mul_num(self, a, b):
        """Coordinates of a * b: the schoolbook product, then theta^k for
        k >= n replaced through the reduction table; closed forms in degree
        1 and 2 (theta^2 = -f1*theta - f0), which need no table."""
        n = self.degree
        if n == 1:
            return [a[0] * b[0]]
        if n == 2:
            (a0, a1), (b0, b1) = a, b
            t = a1 * b1
            return [a0 * b0 - self.coeffs[0] * t,
                    a0 * b1 + a1 * b0 - self.coeffs[1] * t]
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        out = prod[:n]
        for c, power in zip(prod[n:], self._reduction):
            if c:
                for i in range(n):
                    out[i] += c * power[i]
        return out

    def num_matrix(self, num):
        """Integer matrix of multiplication by num in the power basis
        (column j is the image of theta^j)."""
        return mul_matrix(self.coeffs, num)

    def num_norm(self, num):
        """The integer norm of num: closed forms in degree 1 and 2
        (a^2 - f1*a*b + f0*b^2 for a + b*theta), else the Bareiss
        determinant of its multiplication matrix."""
        n = self.degree
        if n == 1:
            return num[0]
        if n == 2:
            a, b = num
            f0, f1 = self.coeffs[0], self.coeffs[1]
            return a * a - f1 * a * b + f0 * b * b
        return linalg.det(self.num_matrix(num))

    # -- element constructors -----------------------------------------

    def element(self, coords):
        coords = [_rational(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        return FieldElement(self, self.reduce(
            [c.numerator * (den // c.denominator) for c in coords]), den)

    def from_rational(self, value):
        value = _rational(value)
        return FieldElement(self, [value.numerator] + [0] * (self.degree - 1),
                            value.denominator)

    def one(self):
        return self.from_rational(1)

    def theta(self):
        return self.element([0, 1])

    def element_from_str(self, text):
        return self.element(parse_poly(text))


class FieldElement:
    """An element num/den of a NumberField in the power basis, canonical:
    den > 0 and gcd(den, *num) == 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
        self.field = field
        self.num = tuple(num)
        self.den = den

    @property
    def coords(self):
        """Power-basis coordinates as Fractions (a read-only view)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def key(self):
        """((numerator, denominator), ...) of the coordinates in lowest
        terms: the pairs Fraction would give, and the order of output."""
        den = self.den
        gs = [gcd(c, den) for c in self.num]
        return tuple((c // g, den // g) for c, g in zip(self.num, gs))

    def coord_strs(self):
        """The coordinates as str(Fraction) writes them: "n" or "n/d"."""
        return [str(n) if d == 1 else f"{n}/{d}" for n, d in self.key()]

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def height(self):
        return max(max(abs(n), d) for n, d in self.key())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return FieldElement(self.field, [a + b for a, b in
                                             zip(self.num, other.num)],
                                self.den)
        da, db = self.den, other.den
        return FieldElement(self.field, [a * db + b * da for a, b in
                                         zip(self.num, other.num)], da * db)

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        """A rational factor scales the other one's num; only two
        irrational factors go through the field's product kernel."""
        if not isinstance(other, FieldElement):
            r = _rational(other)
            return FieldElement(self.field, [c * r.numerator for c in self.num],
                                self.den * r.denominator)
        other = self._coerce(other)
        a, b, den = self.num, other.num, self.den * other.den
        # a nonzero top coordinate rules a factor out as rational at once
        if not b[-1] and not any(b[1:]):
            return FieldElement(self.field, [c * b[0] for c in a], den)
        if not a[-1] and not any(a[1:]):
            return FieldElement(self.field, [c * a[0] for c in b], den)
        return FieldElement(self.field, self.field.mul_num(a, b), den)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent):
        """Left-to-right binary powering: from the top bit down, square and
        multiply by self at each set bit, so x ** e takes
        bit_length(e) + popcount(e) - 2 products for e >= 1."""
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not exponent:
            return self.field.one()
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inverse(self):
        """1/x = den * y for y = 1/num, by Cramer's rule on the
        multiplication matrix M of num: y_i is the determinant of M with
        column i replaced by e_1, over det M, the norm of num.  A rational
        x = num[0]/den inverts to den/num[0] directly."""
        if self.is_zero():
            raise DivisionByZero("division by zero field element")
        field = self.field
        if self.is_rational():
            # den/num[0]; the constructor moves a negative sign up
            return FieldElement(field, [self.den] + [0] * (field.degree - 1),
                                self.num[0])
        m = self.num_matrix()
        return FieldElement(field, [
            self.den * linalg.det([row[:i] + [int(r == 0)] + row[i + 1:]
                                   for r, row in enumerate(m)])
            for i in range(field.degree)], linalg.det(m))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.from_rational(other)

    def __eq__(self, other):
        # a rational element is canonical, so num[0]/den is in lowest terms
        # with den > 0, as int and Fraction keep numerator/denominator
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return (isinstance(other, FieldElement)
                and self.den == other.den and self.num == other.num
                and self.field == other.field)

    def __hash__(self):
        return hash((self.field.coeffs, self.num, self.den))

    def __repr__(self):
        return _poly_str(self.coords)

    # -- invariants ----------------------------------------------------

    def num_matrix(self):
        """Integer matrix of multiplication by num = den * self in the power
        basis (column j is the image of theta^j)."""
        return self.field.num_matrix(self.num)

    def norm(self):
        return Fraction(self.field.num_norm(self.num),
                        self.den ** self.field.degree)


def _bare_copy(exc):
    """exc with its type, args and attributes (payload among them), but no
    traceback, context or cause; __init__ is not run again, since a
    subclass may build its message from other arguments than args."""
    clone = type(exc).__new__(type(exc), *exc.args)
    clone.__dict__.update(exc.__dict__)
    return clone


def _rational(value):
    """An int or Fraction as it is (both carry numerator and denominator),
    anything else through Fraction."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def _poly_str(coords):
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "x" if i == 1 else f"x^{i}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{c}*{var}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------- factory

def make_field(spec, user_class_number=None):
    """Build a NumberField from a polynomial string or coefficient list; it
    carries user_class_number, which units.class_data reads for a cubic.

    Verifies monicity and irreducibility over Q.  The rational-root test
    comes first (``integer_roots``): a polynomial of degree >= 2 with an
    integer root goes straight to Hensel factoring, which names the witness,
    and a complete list with no root proves a quadratic or cubic irreducible
    with no prime spent, and leaves only factor degrees 2..n-2 open in
    degrees 4-6.  Degree patterns modulo small primes prove most of the rest
    irreducible, and Hensel factoring decides what they leave open.
    Computes the exact discriminant and the signature by integer Sturm
    isolation.
    """
    if isinstance(spec, str):
        coeffs = parse_poly(spec)
    else:
        coeffs = strip([Fraction(c) for c in spec])
    if any(c.denominator != 1 for c in coeffs):
        raise NotMonic("defining polynomial must have integer coefficients")
    coeffs = [int(c) for c in coeffs]
    if len(coeffs) <= 1:
        raise DegreeZero("defining polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise NotMonic(f"leading coefficient {coeffs[-1]} != 1")
    n = len(coeffs) - 1
    if n > MAX_DEGREE:
        raise Unsupported(f"degree {n} > {MAX_DEGREE} not supported")
    # an integer root proves f reducible (n >= 2): such f go straight to
    # Hensel factoring, which names the witness
    linear, complete = integer_roots(coeffs)
    if n >= 2 and linear:
        _refuse_reducible(coeffs)
    disc = poly_disc(coeffs)
    # disc = 0 means a repeated factor; Hensel factoring decides what the
    # degree patterns leave open
    if disc == 0 or not irreducible_by_degree_patterns(
            coeffs, disc, no_linear=complete and not linear):
        _refuse_reducible(coeffs)
    roots = isolate_real_roots(coeffs)
    field = NumberField(coeffs, disc, roots, user_class_number)
    if field.degree == 1:
        field.field_disc = 1
    return field


def _refuse_reducible(coeffs):
    """Raise Reducible, with a factor of least degree as the witness, unless
    f is irreducible over Z."""
    factors = zx_factor(coeffs)
    if len(factors) != 1 or factors[0][1] != 1:
        witness = min((f for f, _ in factors), key=len)
        raise Reducible(f"polynomial factors; witness {_poly_str(witness)}",
                        factor=witness)


# ----------------------------------------------------- spec-level helpers

def embedding_interval(x: FieldElement, root_index: int, p: int):
    """Integers (lo, hi) with lo / 2^p <= x <= hi / 2^p under the real
    embedding sending theta to the given root, and hi - lo <= 2.

    Interval Horner bounds num = den * x over the root's interval
    (lo', hi', k) by integers over 2^(k*(n-1)); the interval is bisected
    until those bounds lie within den / 2^p of each other, each time by
    as many bits as the width is over, and they are then rounded outward
    to integers over 2^p."""
    f, root = x.field.coeffs, x.field.real_roots[root_index]
    g, den = x.num, x.den
    while True:
        vlo, vhi = interval_eval(g, *root)
        scale = den << (root[2] * (len(g) - 1))
        width = (vhi - vlo) << p
        if width <= scale:
            return (vlo << p) // scale, -((-vhi << p) // scale)
        root = refine_root(f, root, root[2] + (width // scale).bit_length())


def embedding_bounds(x: FieldElement, root_index: int, p: int):
    """(lo, hi, q) from embedding_interval(x, root_index, q) for the first q
    of p, 2p, 4p, ... (p >= 1) whose interval leaves out zero, so lo and hi
    have the sign of x under that real embedding.  Zero raises
    ZeroElement, since no interval leaves it out."""
    if x.is_zero():
        raise ZeroElement("sign of zero is undefined")
    while True:
        lo, hi = embedding_interval(x, root_index, p)
        if lo > 0 or hi < 0:
            return lo, hi, p
        p *= 2


def embedding_sign(x: FieldElement, root_index: int) -> int:
    """Sign of x under the real embedding sending theta to the given root."""
    return 1 if embedding_bounds(x, root_index, 1)[0] > 0 else -1
