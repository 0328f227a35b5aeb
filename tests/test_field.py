"""Field construction and exact element arithmetic."""

import random
from fractions import Fraction

import pytest
import sympy

from afcheck import make_field, norm_trace, is_totally_positive
from afcheck.errors import (DegreeZero, DivisionByZero, NotMonic,
                            NotTotallyReal, Reducible, Unsupported, ZeroElement)


def cubic_disc(a, b, c):
    """Discriminant of x^3 + a x^2 + b x + c, textbook formula (oracle)."""
    return 18 * a * b * c - 4 * a ** 3 * c + a ** 2 * b ** 2 - 4 * b ** 3 - 27 * c ** 2


def sympy_disc(coeffs):
    x = sympy.symbols("x")
    poly = sum(int(c) * x ** i for i, c in enumerate(coeffs))
    return int(sympy.discriminant(poly, x))


class TestMakeField:
    def test_rationals(self):
        K = make_field("x")
        assert K.degree == 1
        assert K.signature == (1, 0)

    def test_sqrt2(self):
        K = make_field("x^2 - 2")
        # disc(x^2 - d) = 4d
        assert K.poly_disc == 4 * 2
        assert K.signature == (2, 0)

    def test_cubic(self):
        K = make_field("x^3 - x^2 + 1")
        assert K.poly_disc == cubic_disc(-1, 0, 1) == -23
        assert K.signature == (1, 1)

    def test_coefficient_list_input(self):
        K = make_field([-2, 0, 1])
        assert K.coeffs == (-2, 0, 1)
        assert make_field("-2, 0, 1").coeffs == (-2, 0, 1)

    @pytest.mark.parametrize("poly", ["x^2 - 1", "x^3 - x", "x^4 - 4"])
    def test_rejects_reducible(self, poly):
        with pytest.raises(Reducible):
            make_field(poly)

    def test_rejects_non_monic(self):
        with pytest.raises(NotMonic):
            make_field("2*x^2 - 1")
        with pytest.raises(NotMonic):
            make_field("x/2 + 1")

    def test_rejects_constant(self):
        with pytest.raises(DegreeZero):
            make_field("5")

    def test_rejects_degree_above_six(self):
        with pytest.raises(Unsupported):
            make_field("x^7 - 2")

    @pytest.mark.parametrize("coeffs", [
        (-2, 0, 1), (1, 0, -1, 1), (-1, 1, 0, 1), (2, 0, 0, 0, 1), (-3, 1),
    ])
    def test_disc_matches_sympy(self, coeffs):
        assert make_field(list(coeffs)).poly_disc == sympy_disc(coeffs)

    @pytest.mark.parametrize("coeffs", [
        (-2, 0, 1), (1, 0, -1, 1), (-1, 1, 0, 1), (1, 3, 0, 0, 1),
    ])
    def test_signature_matches_sympy_root_count(self, coeffs):
        K = make_field(list(coeffs))
        x = sympy.symbols("x")
        poly = sympy.Poly(sum(int(c) * x ** i for i, c in enumerate(coeffs)), x)
        r1 = len(poly.real_roots())
        assert K.signature == (r1, (K.degree - r1) // 2)

    def test_signature_agrees_with_sturm_count(self):
        for coeffs in [(-2, 0, 1), (1, 0, -1, 1), (-1, 1, 0, 1)]:
            K = make_field(list(coeffs))
            poly = sympy.Poly(list(reversed(coeffs)), sympy.symbols("x"))
            assert len(K.real_roots) == poly.count_roots()


class TestArithmetic:
    def test_defining_relation(self):
        K = make_field("x^2 - 2")
        s = K.theta()
        assert s * s == K.from_rational(2)

    def test_rationalize(self):
        K = make_field("x^2 - 2")
        s = K.theta()
        assert 1 / (1 + s) == s - 1

    def test_rational_division(self):
        Q = make_field("x")
        assert Q.from_rational(3) / Q.from_rational(2) == Q.from_rational(Fraction(3, 2))

    def test_division_by_zero(self):
        K = make_field("x^2 - 2")
        with pytest.raises(DivisionByZero):
            K.one() / K.zero()

    def test_negative_powers(self):
        K = make_field("x^2 - 2")
        u = 1 + K.theta()
        assert u ** -3 * u ** 3 == K.one()

    def test_div_mul_roundtrip_random(self):
        rng = random.Random(7)
        K = make_field("x^3 - x^2 + 1")
        for _ in range(100):
            x = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
            y = K.element([rng.randint(-9, 9) for _ in range(3)])
            if y.is_zero():
                continue
            assert (x / y) * y == x


class TestNormTrace:
    def test_norm_sqrt2(self):
        K = make_field("x^2 - 2")
        assert norm_trace(K.theta())[0] == -2

    def test_norm_unit(self):
        K = make_field("x^2 - 2")
        assert norm_trace(1 + K.theta())[0] == -1

    def test_trace_cubic_generator(self):
        # trace of the companion matrix is minus the x^2 coefficient
        K = make_field("x^3 - x^2 + 1")
        assert norm_trace(K.theta())[1] == 1

    def test_multiplicativity_additivity_random(self):
        rng = random.Random(23)
        K = make_field("x^3 - x^2 + 1")
        for _ in range(120):
            x = K.element([rng.randint(-6, 6) for _ in range(3)])
            y = K.element([rng.randint(-6, 6) for _ in range(3)])
            nx, tx = norm_trace(x)
            ny, ty = norm_trace(y)
            assert norm_trace(x * y)[0] == nx * ny
            assert norm_trace(x + y)[1] == tx + ty


class TestTotallyPositive:
    def test_rational_positive(self):
        K = make_field("x^2 - 2")
        assert is_totally_positive(K.from_rational(2))

    def test_sqrt2_not(self):
        K = make_field("x^2 - 2")
        assert not is_totally_positive(K.theta())

    def test_three_plus_sqrt2(self):
        K = make_field("x^2 - 2")
        assert is_totally_positive(3 + K.theta())

    def test_zero_rejected(self):
        K = make_field("x^2 - 2")
        with pytest.raises(ZeroElement):
            is_totally_positive(K.zero())

    def test_complex_field_rejected(self):
        K = make_field("x^3 - x^2 + 1")
        with pytest.raises(NotTotallyReal):
            is_totally_positive(K.one())

    def test_against_sympy_embeddings(self):
        K = make_field("x^3 - 4*x - 1")  # totally real cubic, disc 229
        assert K.signature == (3, 0)
        x = sympy.symbols("x")
        roots = sympy.Poly(x ** 3 - 4 * x - 1, x).real_roots()
        rng = random.Random(5)
        for _ in range(25):
            coords = [rng.randint(-4, 4) for _ in range(3)]
            elem = K.element(coords)
            if elem.is_zero():
                continue
            expected = all(
                sympy.sign(sum(c * r ** i for i, c in enumerate(coords))) > 0
                for r in roots)
            assert is_totally_positive(elem) == expected


class TestMinPoly:
    def test_generator(self):
        K = make_field("x^3 - x^2 + 1")
        assert K.theta().min_poly() == [1, 0, -1, 1]

    def test_rational_element(self):
        K = make_field("x^3 - x^2 + 1")
        assert K.from_rational(Fraction(3, 2)).min_poly() == [Fraction(-3, 2), 1]

    def test_algebraic_integer_detection(self):
        K = make_field("x^2 - 5")
        golden = (1 + K.theta()) / 2  # (1+sqrt5)/2 is integral, minpoly x^2-x-1
        assert golden.min_poly() == [-1, -1, 1]
        assert (K.theta() / 2).min_poly() == [Fraction(-5, 4), 0, 1]
