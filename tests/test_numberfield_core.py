"""The integer arithmetic core of FieldElement against sympy oracles.

Elements are drawn with random rational coordinates (denominators included)
in fields of degree 1 to 6; every operation is checked against sympy
polynomial arithmetic modulo the defining polynomial, and the fraction-free
determinant and characteristic polynomial against sympy's exact linear
algebra.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afcheck import FieldElement, linalg, make_field
from afcheck.errors import DivisionByZero
from afcheck.numberfield import NumberField

X = sympy.symbols("x")

FIELDS = {spec: make_field(spec) for spec in (
    "x + 2", "x^2 - x - 4", "x^2 + 5", "x^3 - x^2 - 2*x + 1", "x^3 - 2",
    "x^4 - 10*x^2 + 1", "x^4 + x^3 + x^2 + x + 1", "x^5 - x + 1",
    "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", "x^6 - 2")}

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

coordinate = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def field_and_coords(draw, count=1):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = field.degree
    return field, [draw(st.lists(coordinate, min_size=n, max_size=n))
                   for _ in range(count)]


def f_poly(field):
    return sympy.Poly(list(reversed(field.coeffs)), X, domain=sympy.QQ)


def to_poly(coords):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coords)], X, domain=sympy.QQ)


def from_poly(poly, n):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (n - len(coeffs)))


def mult_matrix(field, coords):
    """Rational matrix of multiplication by the element, built in sympy."""
    f, g = f_poly(field), to_poly(coords)
    n = field.degree
    cols = [from_poly((g * sympy.Poly(X ** j, X, domain=sympy.QQ)).rem(f), n)
            for j in range(n)]
    return sympy.Matrix(n, n, lambda i, j: sympy.Rational(
        cols[j][i].numerator, cols[j][i].denominator))


class TestArithmeticOracle:
    @SETTINGS
    @given(field_and_coords(count=2))
    def test_mul_add_sub(self, drawn):
        field, (a, b) = drawn
        x, y = field.element(a), field.element(b)
        f, ga, gb = f_poly(field), to_poly(a), to_poly(b)
        n = field.degree
        assert (x * y).coords == from_poly((ga * gb).rem(f), n)
        assert (x + y).coords == from_poly(ga + gb, n)
        assert (x - y).coords == from_poly(ga - gb, n)
        assert (-x).coords == from_poly(-ga, n)

    @SETTINGS
    @given(field_and_coords())
    def test_inverse(self, drawn):
        field, (a,) = drawn
        x = field.element(a)
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                x.inverse()
            return
        inv = sympy.invert(to_poly(a), f_poly(field))
        assert x.inverse().coords == from_poly(inv, field.degree)
        assert x * x.inverse() == 1

    @SETTINGS
    @given(field_and_coords())
    def test_norm_is_scaled_resultant(self, drawn):
        field, (a,) = drawn
        x = field.element(a)
        d = lcm(*(c.denominator for c in a))
        integral = sympy.Poly([int(c * d) for c in reversed(a)], X)
        f = sympy.Poly(list(reversed(field.coeffs)), X)
        res = int(f.resultant(integral)) if not integral.is_zero else 0
        assert x.norm() == Fraction(res, d ** field.degree)

    @SETTINGS
    @given(field_and_coords())
    def test_char_poly(self, drawn):
        # the characteristic polynomial of x is that of num = den * x with
        # the coefficient of t^i divided by den^(n-i); x is a root of it
        field, (a,) = drawn
        x = field.element(a)
        n = field.degree
        t = sympy.symbols("t")
        expected = mult_matrix(field, a).charpoly(t).all_coeffs()
        chi = [Fraction(c, x.den ** (n - i))
               for i, c in enumerate(linalg.charpoly(x.num_matrix()))]
        assert chi == [Fraction(int(c.p), int(c.q))
                       for c in reversed(expected)]
        trace = Fraction(linalg.trace(x.num_matrix()), x.den)
        assert trace == -chi[-2]
        assert sum((x ** i * c for i, c in enumerate(chi)),
                   field.from_rational(0)) == 0

    @SETTINGS
    @given(st.sampled_from([spec for spec in sorted(FIELDS)
                            if FIELDS[spec].degree in (2, 3, 5)]), st.data())
    def test_char_poly_of_an_irrational_element_is_squarefree(self, spec,
                                                               data):
        # in prime degree an irrational x generates K, so its charpoly is
        # its minimal polynomial; the square test in sunits rests on this
        field = FIELDS[spec]
        a = data.draw(st.lists(coordinate, min_size=field.degree,
                               max_size=field.degree).filter(
                                   lambda c: any(c[1:])))
        x = field.element(a)
        t = sympy.symbols("t")
        chi = sympy.Poly(list(reversed(linalg.charpoly(x.num_matrix()))), t)
        assert chi.degree() == field.degree
        assert chi.is_sqf


@st.composite
def field_and_numerators(draw, count=1):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = field.degree
    return field, [draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                 min_size=n, max_size=n))
                   for _ in range(count)]


class TestIntegerKernels:
    """NumberField.num_norm and NumberField.mul_num work on integer
    coordinate lists; FieldElement's norm and product are built on them."""

    @SETTINGS
    @given(field_and_numerators(), st.integers(1, 30))
    def test_num_norm_is_the_resultant(self, drawn, den):
        field, (a,) = drawn
        f = sympy.Poly(list(reversed(field.coeffs)), X)
        g = sympy.Poly(list(reversed(a)), X)
        res = 0 if g.is_zero else int(sympy.resultant(f, g))
        assert field.num_norm(a) == res
        n = field.degree
        assert FieldElement(field, a, den).norm() == Fraction(res, den ** n)

    @SETTINGS
    @given(field_and_numerators(count=2))
    def test_mul_num_is_the_remainder(self, drawn):
        field, (a, b) = drawn
        f = sympy.Poly(list(reversed(field.coeffs)), X)
        ga = sympy.Poly(list(reversed(a)), X)
        gb = sympy.Poly(list(reversed(b)), X)
        rem = sympy.rem(ga * gb, f)
        coeffs = [int(c) for c in reversed(rem.all_coeffs())]
        n = field.degree
        assert field.mul_num(a, b) == coeffs + [0] * (n - len(coeffs))


class TestCanonicalForm:
    @SETTINGS
    @given(field_and_coords(count=2))
    def test_invariants_and_coords_view(self, drawn):
        field, (a, b) = drawn
        x, y = field.element(a), field.element(b)
        for z in (x, y, x * y, x + y, x - y, -x):
            assert z.den > 0
            assert gcd(z.den, *z.num) == 1
            assert len(z.num) == field.degree
            assert z.coords == tuple(Fraction(c, z.den) for c in z.num)
            assert z.den == lcm(*(c.denominator for c in z.coords))
        assert x.coords == tuple(a)

    @SETTINGS
    @given(st.sampled_from(sorted(FIELDS)), st.data())
    def test_key_and_strings_match_fraction(self, spec, data):
        # key() and coord_strs() read (num, den) with one gcd per
        # coordinate; they must give what Fraction gives, zeros included
        field = FIELDS[spec]
        n = field.degree
        num = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6) | st.just(0),
                                 min_size=n, max_size=n))
        den = data.draw(st.integers(-10 ** 4, 10 ** 4).filter(bool))
        x = FieldElement(field, num, den)
        fracs = [Fraction(c, den) for c in num]
        assert x.key() == tuple((c.numerator, c.denominator) for c in fracs)
        assert x.coord_strs() == [str(c) for c in fracs]
        assert x.height() == max(max(abs(c.numerator), c.denominator)
                                 for c in fracs)

    @SETTINGS
    @given(field_and_coords(count=2))
    def test_equal_elements_hash_equal(self, drawn):
        field, (a, b) = drawn
        x, y = field.element(a), field.element(b)
        pairs = [(x * y, y * x), ((x + y) - y, x), (x * 2 / 2, x),
                 (field.element(list(a) + [0, 0]), x)]
        for u, v in pairs:
            assert u == v
            assert (u.num, u.den) == (v.num, v.den)
            assert hash(u) == hash(v)

    def test_rational_comparisons(self):
        field = FIELDS["x^3 - 2"]
        half = field.from_rational(Fraction(3, 6))
        assert (half.num, half.den) == ((1, 0, 0), 2)
        assert half == Fraction(1, 2) and half != 1
        zero = field.from_rational(0)
        assert zero.den == 1 and zero == 0
        assert field.theta() != 0


class TestRationalFastPaths:
    """A rational operand skips the general kernels: a product scales the
    other factor's num, an inverse is den/num[0], and an int or Fraction
    operand of +, - and == goes straight to (num, den).  Each must give the
    canonical (num, den) of the general path."""

    @SETTINGS
    @given(field_and_coords(), coordinate)
    def test_product_with_a_rational_factor(self, drawn, r):
        field, (a,) = drawn
        x, y = field.element(a), field.from_rational(r)
        general = FieldElement(field, field.mul_num(x.num, y.num),
                               x.den * y.den)
        for z in (x * y, y * x, x * r, r * x):
            assert (z.num, z.den) == (general.num, general.den)
        # a factor with top coordinate 0 need not be rational
        w = field.element(a[:-1] + [Fraction(0)])
        general = FieldElement(field, field.mul_num(w.num, x.num),
                               w.den * x.den)
        for z in (w * x, x * w):
            assert (z.num, z.den) == (general.num, general.den)

    @SETTINGS
    @given(st.sampled_from(sorted(FIELDS)), coordinate.filter(bool))
    def test_inverse_of_a_rational_element(self, spec, r):
        field = FIELDS[spec]
        x = field.from_rational(r)
        n = field.degree
        # Cramer's rule on the multiplication matrix, as for any other x
        m = x.num_matrix()
        general = FieldElement(field, [
            x.den * linalg.det([row[:i] + [int(r == 0)] + row[i + 1:]
                                for r, row in enumerate(m)])
            for i in range(n)], linalg.det(m))
        inv = x.inverse()
        assert (inv.num, inv.den) == (general.num, general.den)
        assert inv.coords == (1 / r,) + (0,) * (n - 1)

    @SETTINGS
    @given(field_and_coords(), st.booleans(),
           st.integers(-10 ** 6, 10 ** 6) | coordinate)
    def test_rational_operands_of_add_sub_eq(self, drawn, rational, k):
        field, (a,) = drawn
        n = field.degree
        if rational:
            a = a[:1] + [Fraction(0)] * (n - 1)
        x = field.element(a)
        rest = tuple(a[1:])
        assert (x + k).coords == (a[0] + k,) + rest == (k + x).coords
        assert (x - k).coords == (a[0] - k,) + rest
        assert (k - x).coords == (k - a[0],) + tuple(-c for c in rest)
        assert (x == k) == (tuple(a) == (k,) + (0,) * (n - 1))
        if x.is_rational() and x.num[0]:
            assert x != Fraction(x.num[0], x.den + 1)
        r = field.from_rational(k)
        assert r == k and (r.num[0], r.den) == (Fraction(k).numerator,
                                                Fraction(k).denominator)


class TestPowersAndTheReductionTable:
    @SETTINGS
    @given(field_and_coords(), st.integers(-6, 12))
    def test_power_is_the_repeated_product(self, drawn, e):
        field, (a,) = drawn
        x = field.element(a)
        if e < 0 and x.is_zero():
            x = field.one()
        product = field.one()
        for _ in range(abs(e)):
            product = product * x
        assert x ** e == (product if e >= 0 else 1 / product)

    def test_products_per_power(self, monkeypatch):
        # the binary method squares below the top bit and multiplies at
        # each set bit below it
        products = []
        mul = FieldElement.__mul__

        def counting(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(FieldElement, "__mul__", counting)
        x = FIELDS["x^3 - 2"].element([1, 1, 0])
        for e in range(1, 70):
            products.clear()
            x ** e
            assert len(products) == e.bit_length() + bin(e).count("1") - 2
        products.clear()
        assert x ** 0 == 1 and products == []

    def test_table_built_once_by_a_product_in_degree_3_and_up(
            self, monkeypatch):
        builds = []
        build = NumberField.__dict__["_reduction"].func

        def counting(field):
            builds.append(field.degree)
            return build(field)

        table = cached_property(counting)
        table.__set_name__(NumberField, "_reduction")
        monkeypatch.setattr(NumberField, "_reduction", table)
        for spec in ("x + 2", "x^2 - x - 4", "x^3 - 2", "x^5 - x + 1"):
            builds.clear()
            field = make_field(spec)
            x = field.element([1, 2, 3][:field.degree])
            x.norm(), x.num_matrix(), x + 1, x * 3, x.inverse()
            assert builds == []
            for _ in range(3):
                x = x * x
            assert builds == ([field.degree] if field.degree >= 3 else [])


square = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-20, 20), min_size=n, max_size=n),
    min_size=n, max_size=n))


class TestBareiss:
    @settings(max_examples=150, deadline=None)
    @given(square)
    def test_det_matches_sympy(self, m):
        assert linalg.det(m) == sympy.Matrix(m).det()

    @settings(max_examples=80, deadline=None)
    @given(square, st.data())
    def test_det_of_singular_matrix(self, m, data):
        n = len(m)
        if n == 1:
            m = [[0]]
        else:
            i, j = data.draw(st.permutations(range(n)))[:2]
            k = data.draw(st.integers(-3, 3))
            m[i] = [k * c for c in m[j]]
        assert linalg.det(m) == 0 == sympy.Matrix(m).det()

    @settings(max_examples=80, deadline=None)
    @given(square)
    def test_det_with_pivot_swaps(self, m):
        for row in m:
            row[0] = 0
        m[-1][0] = 7
        if len(m) > 1:
            m[0][1] = 0
        assert linalg.det(m) == sympy.Matrix(m).det()

    def test_det_needing_swaps(self):
        m = [[0, 2, 1], [0, 0, 3], [5, 1, 1]]
        assert linalg.det(m) == sympy.Matrix(m).det() == 30
        assert linalg.det([]) == 1

    @settings(max_examples=80, deadline=None)
    @given(square)
    def test_charpoly_matches_sympy(self, m):
        t = sympy.symbols("t")
        expected = sympy.Matrix(m).charpoly(t).all_coeffs()
        assert linalg.charpoly(m) == [int(c) for c in reversed(expected)]
