"""Prime factorization, splitting classification and valuation properties."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.numberfields.basis import (_apply_Dedekind_criterion,
                                            round_two)
from sympy.polys.numberfields.exceptions import ClosureFailure
from sympy.polys.numberfields.primes import prime_decomp

from afcheck import FieldElement, make_field
from afcheck.errors import IndexDivisor, Reducible, ZeroElement
from afcheck.integerfactor import SMALL_PRIMES, is_prime
from afcheck.polynomials import fp_divmod, fp_norm
from afcheck.prime_ideals import (element_valuations, factor_rational_prime,
                                  s_k, splitting_type, u_k, valuation,
                                  verified_field_disc)


def legendre(a, p):
    """Legendre symbol by Euler's criterion (oracle)."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def quad_field(d):
    """Index-clean defining polynomial for Q(sqrt d)."""
    if d % 4 == 1:
        return make_field([(1 - d) // 4, -1, 1])  # x^2 - x + (1-d)/4
    return make_field([-d, 0, 1])


def expected_quad_split(d, q):
    """Classical congruence rules for splitting of q in Q(sqrt d) (oracle)."""
    if q == 2:
        if d % 4 != 1:
            return "ramified"
        return "split" if d % 8 == 1 else "inert"
    if d % q == 0:
        return "ramified"
    return "split" if legendre(d, q) == 1 else "inert"


def observed_quad_split(field, q):
    primes = factor_rational_prime(field, q)
    if len(primes) == 2:
        return "split"
    return "ramified" if primes[0].e == 2 else "inert"


class TestFactorization:
    def test_ramified_two_in_sqrt2(self):
        K = make_field("x^2 - 2")
        primes = factor_rational_prime(K, 2)
        assert [(p.e, p.f) for p in primes] == [(2, 1)]

    def test_inert_two_in_cubic(self):
        # x^3 + x^2 + 1 has no root and no quadratic factor over F_2
        K = make_field("x^3 - x^2 + 1")
        primes = factor_rational_prime(K, 2)
        assert [(p.e, p.f) for p in primes] == [(1, 3)]

    def test_index_divisor_sqrt5_bad_presentation(self):
        K = make_field("x^2 - 5")
        with pytest.raises(IndexDivisor) as err:
            factor_rational_prime(K, 2)
        assert err.value.q == 2

    def test_sqrt5_good_presentation(self):
        K = quad_field(5)
        primes = factor_rational_prime(K, 2)
        assert [(p.e, p.f) for p in primes] == [(1, 2)]  # 5 = 5 mod 8: inert

    def test_sum_ef_equals_degree(self):
        fields = [make_field("x"), make_field("x^2 - 2"), quad_field(5),
                  make_field("x^3 - x^2 + 1"), make_field("x^3 - 2")]
        for K in fields:
            for q in [p for p in SMALL_PRIMES if p <= 50]:
                try:
                    primes = factor_rational_prime(K, q)
                except IndexDivisor:
                    continue
                assert sum(p.e * p.f for p in primes) == K.degree

    def test_twentythree_in_disc23_cubic(self):
        K = make_field("x^3 - x^2 + 1")
        primes = factor_rational_prime(K, 23)
        assert [(p.e, p.f) for p in primes] == [(2, 1), (1, 1)]
        assert primes[0].residue_root() == 16
        assert primes[1].residue_root() == 15

    def test_verified_field_disc(self):
        assert verified_field_disc(make_field("x^2 - 2")) == 8
        assert verified_field_disc(make_field("x^2 - x - 1")) == 5
        # certification refused when the gate fails at a squared prime
        assert verified_field_disc(make_field("x^2 - 5")) is None

    def test_generator_element_in_ideal(self):
        # the two-element representation (q, g(theta)) must satisfy v_P(g) >= 1
        for poly in ("x", "x^2 - 2", "x^2 - x - 1", "x^3 - x^2 + 1"):
            K = make_field(poly)
            for q in (2, 3, 5, 7, 23):
                for P in factor_rational_prime(K, q):
                    gen = K.element(list(P.gen_coeffs))
                    if not gen.is_zero():
                        assert valuation(gen, P) >= 1

    def test_ef_data_matches_sympy_prime_decomp(self):
        x = sympy.symbols("x")
        polys = ["x^2 - 2", "x^2 - x - 1", "x^3 - x^2 + 1", "x^3 - 2",
                 "x^3 - 4*x - 1", "x^4 - 2"]
        for poly_str in polys:
            K = make_field(poly_str)
            T = sympy.Poly(sum(c * x ** i for i, c in enumerate(K.coeffs)), x)
            for q in (2, 3, 5, 7, 11, 23):
                try:
                    mine = sorted((p.e, p.f) for p in factor_rational_prime(K, q))
                except IndexDivisor:
                    continue
                theirs = sorted((p.e, p.f) for p in prime_decomp(q, T))
                assert mine == theirs, (poly_str, q)


INDEX_PRIMES = [q for q in range(2, 30) if is_prime(q)]


def sympy_index(T, disc):
    """(index, O_K, d_K) from sympy's Round 2 with index^2 = disc / d_K, or
    None where Round 2 raises or returns a d_K that leaves no square
    quotient, as sympy 1.14 does on some fields: x^4 + 5x^3 - 7x^2 + 2x + 8
    gets d_K = -194127, which does not divide its disc -3106028, and
    x^5 - 3x^4 + 5x^3 - 3x^2 + 8x + 9 gets d_K = 0."""
    try:
        ZK, dK = round_two(T)
    except ClosureFailure:
        return None
    dK = int(dK)
    index = isqrt(disc // dK) if dK and disc % dK == 0 else 0
    return (index, ZK, dK) if index and index * index * dK == disc else None


@st.composite
def drawn_field(draw):
    """A field of a monic f of degree 2-6, coefficients in [-9, 9]."""
    n = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    try:
        return make_field(coeffs + [1])
    except Reducible:
        assume(False)


class TestIndexDecision:
    """factor_rational_prime at every prime q <= 29 against sympy.

    IndexDivisor is raised exactly when q divides [O_K : Z[theta]], by
    sympy's Dedekind criterion, run at every q, and by sympy's Round 2
    where it returns a discriminant.  Since poly_disc = index^2 * d_K, no
    q with q^2 not dividing poly_disc raises; at a q that does not raise,
    the (e, f) data equal prime_decomp's."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(drawn_field())
    # 2 divides the index of x^3 - x^2 - 2x - 8 (Dedekind's example) and of
    # x^2 - 5; Round 2 fails on x^4 + 5x^3 - 7x^2 + 2x + 8, whose index 2
    # only the criterion sees
    @example(make_field("x^3 - x^2 - 2*x - 8"))
    @example(make_field("x^2 - 5"))
    @example(make_field("x^4 + 5*x^3 - 7*x^2 + 2*x + 8"))
    def test_against_sympy(self, K):
        T = sympy.Poly(list(reversed(K.coeffs)), sympy.symbols("x"))
        disc = K.poly_disc
        maximal = sympy_index(T, disc)
        for q in INDEX_PRIMES:
            divides = _apply_Dedekind_criterion(T, q)[1] > 0
            if maximal is not None:
                assert divides == (maximal[0] % q == 0), q
            try:
                mine = sorted((P.e, P.f) for P in factor_rational_prime(K, q))
            except IndexDivisor:
                assert divides and disc % (q * q) == 0, q
                continue
            assert not divides, q
            if maximal is not None:
                _, ZK, dK = maximal
                assert mine == sorted(
                    (P.e, P.f) for P in prime_decomp(q, T, ZK=ZK, dK=dK)), q


class TestSplittingType:
    def test_degenerate_rationals(self):
        st = splitting_type(make_field("x"), 2)
        assert st["kind"] == "totally-split"
        assert st["inert"] and st["totally_ramified"] and st["totally_split"]

    def test_mixed_pattern(self):
        st = splitting_type(make_field("x^3 - x^2 + 1"), 23)
        assert st["kind"] == "mixed"
        assert st["pattern"] == ((2, 1), (1, 1))

    def test_totally_ramified(self):
        st = splitting_type(make_field("x^2 - 2"), 2)
        assert st["kind"] == "totally-ramified"
        assert not st["inert"] and not st["totally_split"]

    def test_quadratic_congruence_oracle(self):
        for d in (2, 3, 5, 7, 11, 13, 17, 19):
            K = quad_field(d)
            for q in (2, 3, 5, 7, 11, 13):
                assert observed_quad_split(K, q) == expected_quad_split(d, q), (d, q)


class TestSkUk:
    def test_rationals(self):
        Q = make_field("x")
        assert [(p.e, p.f) for p in s_k(Q)] == [(1, 1)]
        assert len(u_k(Q)) == 1

    def test_sqrt2(self):
        K = make_field("x^2 - 2")
        sk = s_k(K)
        assert [(p.e, p.f) for p in sk] == [(2, 1)]
        assert u_k(K) == sk  # gcd(3, 2) = 1

    def test_cube_root_two(self):
        K = make_field("x^3 - 2")
        assert [(p.e, p.f) for p in s_k(K)] == [(3, 1)]
        assert u_k(K) == []


class TestValuation:
    def test_uniformizer(self):
        K = make_field("x^2 - 2")
        P = s_k(K)[0]
        assert valuation(K.theta(), P) == 1

    def test_rational_two_adic(self):
        Q = make_field("x")
        P = s_k(Q)[0]
        assert valuation(Q.from_rational(Fraction(3, 4)), P) == -2

    def test_unit_has_valuation_zero(self):
        K = make_field("x^2 - 2")
        P = s_k(K)[0]
        assert valuation(1 + K.theta(), P) == 0

    def test_zero_rejected(self):
        Q = make_field("x")
        with pytest.raises(ZeroElement):
            valuation(Q.from_rational(0), s_k(Q)[0])

    def test_v_of_rational_prime_is_e(self):
        for poly in ("x", "x^2 - 2", "x^3 - x^2 + 1", "x^3 - 2"):
            K = make_field(poly)
            for q in (2, 3, 5, 7, 23):
                for P in factor_rational_prime(K, q):
                    assert valuation(K.from_rational(q), P) == P.e

    def test_multiplicativity_and_ultrametric(self):
        rng = random.Random(11)
        K = make_field("x^2 - 2")
        primes = factor_rational_prime(K, 2) + factor_rational_prime(K, 7)
        for _ in range(80):
            x = K.element([rng.randint(-20, 20), rng.randint(-20, 20)])
            y = K.element([rng.randint(-20, 20), rng.randint(-20, 20)])
            if x.is_zero() or y.is_zero():
                continue
            for P in primes:
                vx, vy = valuation(x, P), valuation(y, P)
                assert valuation(x * y, P) == vx + vy
                if not (x + y).is_zero():
                    assert valuation(x + y, P) >= min(vx, vy)

    def test_norm_consistency(self):
        # |N(x)| = prod over primes of N(P)^v_P(x) on elements with known support
        K = make_field("x^2 - 2")
        x = (1 + K.theta()) * K.from_rational(12)  # unit * 12
        total = Fraction(1)
        for q in (2, 3):
            for P in factor_rational_prime(K, q):
                total *= Fraction(P.norm()) ** valuation(x, P)
        assert abs(x.norm()) == total


def v_q(n, q):
    """Exponent of q in the nonzero integer n (oracle)."""
    v = 0
    while n % q == 0:
        n, v = n // q, v + 1
    return v


def loop_valuation(x, prime):
    """v_P(x) by the anti-uniformizer loop: with beta = h(theta)/q for the
    cofactor h = f/g mod q of P = (q, g(theta)), the number of times
    num * beta^k stays q-integral, less e * v_q(den)."""
    K, q = x.field, prime.q
    h, rem = fp_divmod(fp_norm(K.coeffs, q), prime.gen_coeffs, q)
    assert rem == []
    beta = K.element([Fraction(c, q) for c in h])
    v, z = 0, FieldElement(K, x.num) * beta
    while z.den % q:
        v, z = v + 1, z * beta
    return v - prime.e * v_q(x.den, q)


# every prime above 2, 3, 5 and 7 of the census quadratics (the maximal-order
# presentations of Q(sqrt d), d <= 100 squarefree) and of the benchmark cubic
CENSUS_PRIMES = [
    P for K in [quad_field(d) for d in range(2, 101)
                if all(d % (k * k) for k in range(2, 11))]
    + [make_field("x^3 - x^2 - 2*x + 1")]
    for q in (2, 3, 5, 7) for P in factor_rational_prime(K, q)]
SMOOTH = st.builds(lambda u, i, j, k, l: u * 2 ** i * 3 ** j * 5 ** k * 7 ** l,
                   st.integers(1, 60), *[st.integers(0, 5)] * 4)


class TestRationalValuation:
    def test_census_primes(self):
        assert len({P.field for P in CENSUS_PRIMES}) == 61
        assert len(CENSUS_PRIMES) > 4 * 61

    @settings(max_examples=40, deadline=None)
    @given(SMOOTH, SMOOTH, st.sampled_from((1, -1)))
    def test_matches_the_anti_uniformizer_loop(self, m, d, sign):
        for P in CENSUS_PRIMES:
            x = P.field.from_rational(Fraction(sign * m, d))
            assert valuation(x, P) == loop_valuation(x, P)


def q_adic_root(coeffs, r, q, digits):
    """The root of f in Z_q congruent to the simple root r mod q, to
    q^digits, by Newton's iteration on plain integers (oracle)."""
    m = q ** digits
    df = [i * c for i, c in enumerate(coeffs)][1:]
    for _ in range(digits):
        fr = sum(c * r ** i for i, c in enumerate(coeffs))
        dfr = sum(c * r ** i for i, c in enumerate(df))
        r = (r - fr * pow(dfr, -1, m)) % m
    return r


# fields of degree 2 to 6, each prime q in {2, 3, 5, 7} kept where the
# Dedekind test passes; every degree has a prime with e = f = 1
COFACTOR_PRIMES = []
for _spec in ("x^2 - 2", "x^2 + 1", "x^2 - 7", "x^2 + 5", "x^2 - x - 1",
              "x^3 - 2", "x^3 - 4*x - 1", "x^3 - x^2 - 2*x + 1",
              "x^4 - 2", "x^4 - x - 1", "x^4 - 10*x^2 + 1", "x^5 - 2",
              "x^5 - x + 1", "x^6 + x + 1", "x^6 - 6*x^4 + 9*x^2 - 3"):
    _K = make_field(_spec)
    for _q in (2, 3, 5, 7):
        try:
            COFACTOR_PRIMES.append((_q, factor_rational_prime(_K, _q)))
        except IndexDivisor:
            pass
DIGITS = 40
# (P, q-adic root of f for P) at each prime with e = f = 1
DEGREE_ONE = [(P, q_adic_root(P.field.coeffs, P.residue_root(), q, DIGITS))
              for q, primes in COFACTOR_PRIMES for P in primes
              if P.e == P.f == 1]
ALONE = [primes[0] for _, primes in COFACTOR_PRIMES if len(primes) == 1]


@st.composite
def valued_element(draw, P):
    """A nonzero element of P's field: drawn coordinates over a drawn
    denominator, times a drawn power of q and of theta - r for the residue
    root r of P, when P has one, so that high valuations occur."""
    K = P.field
    num = draw(st.lists(st.integers(-300, 300), min_size=K.degree,
                        max_size=K.degree).filter(any))
    x = FieldElement(K, num, draw(st.integers(1, 400)))
    x = x * K.from_rational(P.q ** draw(st.integers(0, 2)))
    root = P.residue_root()
    if root is not None:
        x = x * (K.theta() - K.from_rational(root)) ** draw(st.integers(0, 5))
    return x


class TestCofactorValuation:
    """v_P from the cofactor against oracles that never build it."""

    def test_every_degree_has_a_degree_one_prime(self):
        assert {P.field.degree for P, _ in DEGREE_ONE} == {2, 3, 4, 5, 6}
        assert {P.q for P, _ in DEGREE_ONE} == {2, 3, 5, 7}
        assert {P.field.degree for P in ALONE} == {2, 3, 4, 5, 6}

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_the_q_adic_root(self, data):
        # at e = f = 1 the completion at P is Q_q with theta -> r_K, so
        # v_P(num/den) = v_q(num(r_K)) - v_q(den)
        P, root = data.draw(st.sampled_from(DEGREE_ONE))
        x = data.draw(valued_element(P))
        q = P.q
        at_root = sum(c * root ** i for i, c in enumerate(x.num)) % q ** DIGITS
        assert at_root != 0
        assert valuation(x, P) == v_q(at_root, q) - v_q(x.den, q)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_single_prime_matches_the_norm(self, data):
        # with P alone over q, N(x) = q^(f * v_P(x)) times a q-unit
        P = data.draw(st.sampled_from(ALONE))
        x = data.draw(valued_element(P))
        norm = x.norm()
        assert P.f * valuation(x, P) == (v_q(norm.numerator, P.q)
                                         - v_q(norm.denominator, P.q))


VALUATION_FIELDS = {spec: make_field(spec) for spec in (
    "x", "x^2 - 2", "x^2 - x - 1", "x^2 + 1", "x^3 - x^2 - 2*x + 1")}


@st.composite
def nonzero_element(draw):
    field = VALUATION_FIELDS[draw(st.sampled_from(sorted(VALUATION_FIELDS)))]
    coords = draw(st.lists(st.builds(Fraction, st.integers(-60, 60),
                                     st.integers(1, 30)),
                           min_size=field.degree, max_size=field.degree))
    x = field.element(coords)
    if x.is_zero():
        x = field.one()
    return x


class TestElementValuations:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(nonzero_element())
    def test_support_against_norm(self, x):
        try:
            support = list(element_valuations(x, skip=()))
        except IndexDivisor:
            return
        assert all(v != 0 for _, v in support)
        keys = [(P.q, P.sort_key()) for P, _ in support]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        total = Fraction(1)
        for P, v in support:
            assert valuation(x, P) == v
            total *= Fraction(P.norm()) ** v
        assert total == abs(x.norm())

    def test_rational_times_unit(self):
        # 2 ramifies, 3 is inert and 7 splits in Q(sqrt 2)
        K = make_field("x^2 - 2")
        x = K.from_rational(Fraction(14, 9)) * (1 + K.theta())
        assert [(P.q, v) for P, v in element_valuations(x, skip=())] == \
            [(2, 2), (3, -2), (7, 1), (7, 1)]

    def test_unit_has_empty_support(self):
        K = make_field("x^2 - 2")
        assert list(element_valuations(1 + K.theta(), skip=())) == []

    def test_skipped_prime_is_not_factored(self):
        K = make_field("x^2 - 5")  # 2 divides the index of Z[sqrt 5]
        with pytest.raises(IndexDivisor):
            list(element_valuations(K.from_rational(6), skip=()))
        assert list(element_valuations(K.from_rational(6), skip=(2,))) == \
            [(P, 1) for P in factor_rational_prime(K, 3)]

    def test_zero_rejected(self):
        Q = make_field("x")
        with pytest.raises(ZeroElement):
            list(element_valuations(Q.from_rational(0), skip=()))
