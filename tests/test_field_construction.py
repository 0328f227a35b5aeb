"""Field construction against sympy: integer Sturm isolation of the real
roots, the rational-root step and the degree-pattern proof of
irreducibility in make_field."""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcheck import polynomials
from afcheck.errors import Reducible
from afcheck.numberfield import make_field
from afcheck.polynomials import (integer_roots, irreducible_by_degree_patterns,
                                 isolate_real_roots, pderiv, poly_disc, sign,
                                 strip, sturm_chain, zx_factor)
from test_polynomials import sturm_count, to_fractions

X = sympy.symbols("x")

# monic integer polynomials of degree 2-6, coefficients in [-9, 9], lowest
# degree first
MONIC = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    .map(lambda low: low + [1]))


def to_sympy(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def pdivmod(a, b):
    """Euclidean division over a field (Fraction coefficients)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / Fraction(b[-1])
    while len(a) >= len(b) and strip(a):
        a = strip(a)
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        coef = a[-1] * inv
        q[k] = coef
        for i, cb in enumerate(b):
            a[i + k] -= coef * Fraction(cb)
        a = a[:-1]
    return strip(q), strip(a)


def fraction_isolation(p):
    """Isolation over Q as it stood before the integer chain: a Fraction
    Sturm sequence evaluated by Fraction Horner, with the same bound and the
    same bisection.  The reference the integer code must reproduce."""
    chain = [[Fraction(c) for c in p], pderiv(p)]
    while True:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(x):
        values = (sum(c * x ** i for i, c in enumerate(q)) for q in chain)
        signs = [s for s in map(sign, values) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    # the Cauchy bound: every real root of p lies in (-b, b)
    b = 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))
    out, work = [], [(-b, b)]
    while work:
        lo, hi = work.pop()
        count = variations(lo) - variations(hi)
        if count == 1:
            out.append((lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            work += [(lo, mid), (mid, hi)]
    return sorted(out)


def contains(lo, hi, root):
    return bool(sympy.Rational(lo.numerator, lo.denominator) < root
                < sympy.Rational(hi.numerator, hi.denominator))


class TestIntegerSturm:
    @settings(max_examples=150, deadline=None)
    @given(MONIC)
    def test_root_count_matches_sympy(self, coeffs):
        assume(poly_disc(coeffs) != 0)
        assert sturm_count(coeffs) == len(to_sympy(coeffs).real_roots())

    @settings(max_examples=150, deadline=None)
    @given(MONIC)
    def test_chain_members_are_primitive_integer_polys(self, coeffs):
        assume(poly_disc(coeffs) != 0)
        chain = sturm_chain(coeffs)
        assert [len(p) - 1 for p in chain] == sorted(
            (len(p) - 1 for p in chain), reverse=True)
        for p in chain:
            assert all(type(c) is int for c in p)
            assert gcd(*p) == 1

    @settings(max_examples=100, deadline=None)
    @given(MONIC)
    def test_isolation_against_sympy_roots(self, coeffs):
        poly = to_sympy(coeffs)
        assume(poly.is_irreducible)
        triples = make_field(coeffs).real_roots
        assert list(triples) == isolate_real_roots(coeffs)
        intervals = to_fractions(triples)
        assert intervals == fraction_isolation(coeffs)
        roots = poly.real_roots()
        assert len(intervals) == len(roots)
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi <= lo
        for root in roots:
            assert sum(contains(lo, hi, root) for lo, hi in intervals) == 1


class TestIrreducibility:
    @settings(max_examples=150, deadline=None)
    @given(MONIC)
    def test_verdict_matches_sympy(self, coeffs):
        if to_sympy(coeffs).is_irreducible:
            assert make_field(coeffs).coeffs == tuple(coeffs)
        else:
            with pytest.raises(Reducible):
                make_field(coeffs)

    @settings(max_examples=150, deadline=None)
    @given(MONIC)
    def test_patterns_prove_only_irreducible_polys(self, coeffs):
        disc = poly_disc(coeffs)
        assume(disc != 0)
        if irreducible_by_degree_patterns(coeffs, disc, no_linear=False):
            assert to_sympy(coeffs).is_irreducible

    @pytest.mark.parametrize("text, coeffs, signature", [
        ("x^4 + 1", [1, 0, 0, 0, 1], (0, 2)),
        ("x^4 - 10*x^2 + 1", [1, 0, -10, 0, 1], (4, 0)),
    ])
    def test_fields_the_patterns_leave_open(self, text, coeffs, signature):
        # every reduction splits into factors of degree <= 2, so only the
        # Hensel factoring proves these irreducible
        assert not irreducible_by_degree_patterns(coeffs, poly_disc(coeffs),
                                                  no_linear=False)
        K = make_field(text)
        assert K.signature == signature

    def test_zero_discriminant_is_reducible_with_its_witness(self):
        # (x - 1)^2 (x + 2)
        assert poly_disc([2, -3, 0, 1]) == 0
        with pytest.raises(Reducible) as exc:
            make_field("x^3 - 3*x + 2")
        assert str(exc.value) == "polynomial factors; witness -1 + x"
        assert exc.value.payload == {"factor": [-1, 1]}

    def test_degree_one_needs_no_prime(self):
        assert irreducible_by_degree_patterns([5, 1], 1, no_linear=False)

    @settings(max_examples=150, deadline=None)
    @given(MONIC)
    def test_patterns_without_linear_factors_prove_only_irreducible_polys(
            self, coeffs):
        # the degrees 1 and n - 1 are dropped only on a complete root list
        # with no root, as make_field drops them
        roots, complete = integer_roots(coeffs)
        disc = poly_disc(coeffs)
        assume(complete and not roots and disc != 0)
        if irreducible_by_degree_patterns(coeffs, disc, no_linear=True):
            assert to_sympy(coeffs).is_irreducible


def reducible_error(coeffs):
    """(message, payload) of the Reducible that make_field raises."""
    with pytest.raises(Reducible) as exc:
        make_field(coeffs)
    return str(exc.value), exc.value.payload


class TestIntegerRootScreen:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(-16, 16), st.integers(1, 5).flatmap(
        lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)
        .map(lambda low: low + [1])))
    def test_root_gives_the_patterns_path_error(self, r, cofactor):
        # (x - r) * cofactor: the root step finds r, and the Reducible it
        # leads to names the same witness as the path through the degree
        # patterns with no root known
        coeffs = strip([a - r * b for a, b in
                        zip([0] + cofactor, cofactor + [0])])
        assert r in integer_roots(coeffs)[0]
        screened = reducible_error(coeffs)
        with mock.patch("afcheck.numberfield.integer_roots",
                        return_value=([], False)):
            assert reducible_error(coeffs) == screened
        assert screened[1]["factor"] == min(
            (g for g, _ in zx_factor(coeffs)), key=len)

    @settings(max_examples=200, deadline=None)
    @given(MONIC)
    def test_never_fires_on_an_irreducible_poly(self, coeffs):
        if to_sympy(coeffs).is_irreducible:
            assert integer_roots(coeffs)[0] == []

    @pytest.mark.parametrize("coeffs, hit", [
        ([0, -2, 0, 1], True),        # c0 = 0
        ([-34, 0, 0, 1], False),      # x^3 - 34: no rational root
        ([-4913, 0, 0, 1], False),    # x^3 - 17^3: root 17 is past the bound
        ([-4096, 0, 0, 1], True),     # x^3 - 16^3
        ([6, -5, 1], True),           # (x - 2)(x - 3)
        ([6, 0, -5, 0, 1], False),    # (x^2 - 2)(x^2 - 3): no rational root
    ])
    def test_fixed_cases(self, coeffs, hit):
        assert bool(integer_roots(coeffs)[0]) == hit

    @pytest.mark.parametrize("coeffs, roots, complete", [
        ([0, -2, 0, 1], [0], True),            # x(x^2 - 2)
        ([-34, 0, 0, 1], [], True),            # 17^3 > 34
        ([-4913, 0, 0, 1], [], False),         # 17 divides c but is not tried
        ([-4096, 0, 0, 1], [16], True),        # 17^3 > 4096
        ([-5000, 0, 0, 1], [], False),         # 17^3 < 5000: 17 is possible
        ([0, 0, -6, 1], [0, 6], True),         # x^2 (x - 6)
        ([-16, 0, 0, 0, 0, 0, 1], [], True),   # |f(0)| <= 16
        ([20, 0, 0, 0, 0, 0, 1], [], True),    # every |f_i| far below 17^i
    ])
    def test_completeness(self, coeffs, roots, complete):
        assert integer_roots(coeffs) == (roots, complete)

    def test_degree_one_still_builds(self):
        K = make_field("x - 3")
        assert K.degree == 1 and K.coeffs == (-3, 1)
        assert list(K.real_roots) == [(3, 3, 0)]


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call through the module is counted."""
    counts = {name: 0}
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("text", ["x^2-x-1", "x^2-2", "x^3-x^2-2*x+1"])
def test_quadratics_and_cubics_spend_no_prime(monkeypatch, text):
    # f(0) = +-1 or -2: the root list is complete and empty, which proves
    # the polynomial irreducible before any distinct-degree factorization
    counts = count_calls(monkeypatch, polynomials, "_fp_ddf")
    K = make_field(text)
    assert K.degree in (2, 3)
    assert counts["_fp_ddf"] == 0


def test_quartic_patterns_skip_the_linear_degrees(monkeypatch):
    # x^4 + 2x^3 + 2x^2 - x + 2 has no integer root, so only degree 2 is
    # left open: two primes prove it irreducible, where four are needed
    # with degrees 1 and 3 open as well
    coeffs = [2, -1, 2, 2, 1]
    assert integer_roots(coeffs) == ([], True)
    counts = count_calls(monkeypatch, polynomials, "_fp_ddf")
    make_field(coeffs)
    assert counts["_fp_ddf"] == 2
    with mock.patch("afcheck.numberfield.integer_roots",
                    return_value=([], False)):
        make_field(coeffs)
    assert counts["_fp_ddf"] == 2 + 4
