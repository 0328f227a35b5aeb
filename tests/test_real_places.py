"""The dyadic real places against mpmath at 200 digits: root intervals,
embedding intervals, bounds and signs, and the fixed-point logarithm."""

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcheck.errors import ZeroElement
from afcheck.numberfield import (FieldElement, embedding_bounds,
                                 embedding_interval, embedding_sign,
                                 make_field)
from afcheck.polynomials import isolate_real_roots
from afcheck.units import _ln_interval

DPS = 200
X = sympy.symbols("x")

# fields of degree 1-6, totally real and not, with close and far roots
FIELDS = ["x - 3", "x^2 - 2", "x^2 - x - 1", "x^2 - 1000003", "x^2 + 5",
          "x^3 - x^2 - 2*x + 1", "x^3 - 4*x - 1", "x^3 - 2", "x^3 - x^2 + 1",
          "x^3 - 1000*x - 1", "x^4 - 4*x^2 + 2", "x^4 - 10*x^2 + 1",
          "x^5 - x^4 - 4*x^3 + 3*x^2 + 3*x - 1", "x^6 - 6*x^4 + 9*x^2 - 3"]

# monic integer polynomials of degree 1-6, lowest degree first
MONIC = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-20, 20), min_size=n, max_size=n).map(
        lambda low: low + [1]))


def mp_roots(coeffs):
    """The real roots of an integer polynomial, ascending, to DPS digits."""
    poly = sympy.Poly(list(reversed(coeffs)), X)
    return [mpmath.mpf(r.evalf(DPS + 20)) for r in poly.real_roots()]


def mp_value(x, root):
    """x under the embedding sending theta to the mpmath number root."""
    return sum(c * root ** i for i, c in enumerate(x.num)) / x.den


def dyadic(m, k):
    return mpmath.ldexp(m, -k)


@settings(max_examples=60, deadline=None)
@given(MONIC)
def test_root_triples_enclose_sympy_roots(coeffs):
    f = sympy.Poly(list(reversed(coeffs)), X)
    assume(f.gcd(f.diff(X)).degree() == 0)
    try:
        triples = isolate_real_roots(coeffs)
    except ArithmeticError:  # a rational root on a bisection point
        assume(False)
    with mpmath.workdps(DPS):
        roots = mp_roots(coeffs)
        assert len(triples) == len(roots)
        for (lo, hi, k), root in zip(triples, roots):
            assert all(type(e) is int for e in (lo, hi, k))
            assert dyadic(lo, k) <= root <= dyadic(hi, k)


ELEMENTS = st.tuples(st.sampled_from(FIELDS),
                     st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=6,
                              max_size=6),
                     st.integers(1, 10 ** 4))


def element(poly, coords, den):
    K = make_field(poly)
    return K, FieldElement(K, coords[:K.degree], den)


@settings(max_examples=200, deadline=None)
@given(ELEMENTS, st.integers(0, 256))
def test_embedding_interval_encloses_and_meets_the_width(drawn, p):
    K, x = element(*drawn)
    with mpmath.workdps(DPS):
        for idx, root in enumerate(mp_roots(K.coeffs)):
            lo, hi = embedding_interval(x, idx, p)
            assert dyadic(lo, p) <= mp_value(x, root) <= dyadic(hi, p)
            assert 0 <= hi - lo <= 2


@settings(max_examples=200, deadline=None)
@given(ELEMENTS)
def test_embedding_sign_agrees_with_mpmath(drawn):
    K, x = element(*drawn)
    assume(not x.is_zero())
    with mpmath.workdps(DPS):
        for idx, root in enumerate(mp_roots(K.coeffs)):
            assert embedding_sign(x, idx) == mpmath.sign(mp_value(x, root))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS[1:]), st.integers(1, 10 ** 12))
def test_embedding_sign_near_zero(poly, den):
    # theta - m/den with m/den the nearest fraction to the root: |x| is at
    # most 1/(2 den), so the sign needs the root to about log2(den) bits
    K = make_field(poly)
    with mpmath.workdps(DPS):
        for idx, root in enumerate(mp_roots(K.coeffs)):
            m = int(mpmath.nint(root * den))
            x = FieldElement(K, [-m, den] + [0] * (K.degree - 2), den)
            assert embedding_sign(x, idx) == mpmath.sign(mp_value(x, root))


@settings(max_examples=200, deadline=None)
@given(ELEMENTS, st.integers(1, 64))
def test_embedding_bounds_leave_out_zero_at_the_first_doubling(drawn, p):
    K, x = element(*drawn)
    if x.is_zero():
        with pytest.raises(ZeroElement):
            embedding_bounds(x, 0, p)
        return
    with mpmath.workdps(DPS):
        for idx, root in enumerate(mp_roots(K.coeffs)):
            lo, hi, q = embedding_bounds(x, idx, p)
            assert (lo, hi) == embedding_interval(x, idx, q)
            assert lo > 0 or hi < 0
            assert dyadic(lo, q) <= mp_value(x, root) <= dyadic(hi, q)
            # q is p doubled until the interval leaves out zero, no further
            assert q % p == 0 and (q // p).bit_count() == 1
            if q > p:
                below = embedding_interval(x, idx, q // 2)
                assert below[0] <= 0 <= below[1]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 100), st.integers(0, 2 ** 20),
       st.integers(0, 120), st.integers(1, 300))
def test_ln_interval_encloses_mpmath_log(lo, gap, p, w):
    hi = lo + gap
    a, b = _ln_interval(lo, hi, p, w)
    with mpmath.workdps(DPS):
        assert a <= mpmath.ldexp(mpmath.log(dyadic(lo, p)), w)
        assert mpmath.ldexp(mpmath.log(dyadic(hi, p)), w) <= b
    if gap == 0:
        # a few units per series term and per factor of ln 2
        k = lo.bit_length() - 1 - p
        assert b - a <= 4 * w * (abs(k) + 1)
