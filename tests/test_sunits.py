"""S-unit solver vs independent oracles; Selmer groups; quadratic extensions.

The exponent-box oracles below use their own miniature arithmetic (pairs of
Fractions) and their own S-unit membership rule (strip the prime over 2,
check the cofactor is a unit), sharing no code with the package paths.
"""

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from afcheck import (integerfactor, make_field, numberfield, prime_ideals,
                     sunits, units)
from afcheck.cli import run
from afcheck.criteria import (check_cor_3_4, check_thm_3_2, check_thm_3_3,
                              check_thm_5_2)
from afcheck.errors import (AfcheckError, BasisUnavailable, IsSquare,
                            Reducible, Unsupported, WorkExceeded, ZeroElement)
from afcheck.linalg import charpoly
from afcheck.numberfield import FieldElement, NumberField
from afcheck.polynomials import zx_factor
from afcheck.prime_ideals import element_valuations, s_k, valuation
from afcheck.sunits import (MAX_CANDIDATES, build_sunit_basis, is_square,
                            quadratic_extension, selmer_group, solve_sunit,
                            _GENERATOR_SHIFTS, _factor_data, _gamma_matrix,
                            _mu_norms, _norm_screen, _mu_valuations)


# ----------------------------------------------------------------- oracles

def v2(n):
    n = abs(n)
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def oracle_q(kmax):
    """lambda = +-2^k, mu = 1 - lambda; mu must be +-2^j exactly."""
    out = set()
    for k in range(-kmax, kmax + 1):
        for sign in (1, -1):
            lam = Fraction(sign) * Fraction(2) ** k
            mu = 1 - lam
            if mu == 0:
                continue
            shift = v2(mu.numerator) - v2(mu.denominator)
            core = mu / Fraction(2) ** shift
            if core in (1, -1):
                out.add((lam, mu))
    return out | {(m, l) for l, m in out}


class Gauss:
    """Tiny Q(i) arithmetic on (x, y) pairs, test-local."""

    @staticmethod
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    @staticmethod
    def norm(a):
        return a[0] * a[0] + a[1] * a[1]

    @staticmethod
    def div(a, b):
        n = Gauss.norm(b)
        conj = (b[0], -b[1])
        num = Gauss.mul(a, conj)
        return (num[0] / n, num[1] / n)


def oracle_gauss(bound):
    one_plus_i = (Fraction(1), Fraction(1))
    i = (Fraction(0), Fraction(1))
    out = set()
    for t in range(4):
        for k in range(-bound, bound + 1):
            lam = (Fraction(1), Fraction(0))
            for _ in range(t):
                lam = Gauss.mul(lam, i)
            for _ in range(abs(k)):
                lam = Gauss.mul(lam, one_plus_i) if k > 0 else Gauss.div(lam, one_plus_i)
            mu = (1 - lam[0], -lam[1])
            if mu == (0, 0) or lam == (1, 0):
                continue
            nm = Gauss.norm(mu)
            shift = v2(nm.numerator) - v2(nm.denominator)
            core = mu
            for _ in range(abs(shift)):
                core = Gauss.div(core, one_plus_i) if shift > 0 else Gauss.mul(core, one_plus_i)
            if core[0].denominator == 1 and core[1].denominator == 1 \
                    and Gauss.norm(core) == 1:
                out.add((lam, mu))
    return out | {(m, l) for l, m in out}


class Sqrt2:
    """Tiny Q(sqrt2) arithmetic on (a, b) = a + b*sqrt2 pairs, test-local."""

    @staticmethod
    def mul(x, y):
        return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    @staticmethod
    def norm(x):
        return x[0] * x[0] - 2 * x[1] * x[1]

    @staticmethod
    def div_sqrt2(x):
        # (a + b sqrt2)/sqrt2 = b + (a/2) sqrt2
        return (x[1], x[0] / 2)

    @staticmethod
    def mul_sqrt2(x):
        return (2 * x[1], x[0])


def oracle_sqrt2(bound):
    u = (Fraction(1), Fraction(1))          # 1 + sqrt2, norm -1
    uinv = (Fraction(-1), Fraction(1))      # -1 + sqrt2
    out = set()
    for sign in (1, -1):
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                lam = (Fraction(sign), Fraction(0))
                for _ in range(abs(a)):
                    lam = Sqrt2.mul(lam, u if a > 0 else uinv)
                for _ in range(abs(b)):
                    lam = Sqrt2.mul_sqrt2(lam) if b > 0 else Sqrt2.div_sqrt2(lam)
                mu = (1 - lam[0], -lam[1])
                if mu == (0, 0) or lam == (1, 0):
                    continue
                nm = Sqrt2.norm(mu)
                shift = v2(nm.numerator) - v2(nm.denominator)
                core = mu
                for _ in range(abs(shift)):
                    core = Sqrt2.div_sqrt2(core) if shift > 0 else Sqrt2.mul_sqrt2(core)
                if core[0].denominator == 1 and core[1].denominator == 1 \
                        and abs(Sqrt2.norm(core)) == 1:
                    out.add((lam, mu))
    return out | {(m, l) for l, m in out}


# ------------------------------------------------------------------- tests

class TestSolveSUnit:
    def test_rationals_exact_set(self):
        Q = make_field("x")
        res = solve_sunit(Q, s_k(Q), 8)
        got = {(s.lam.coords[0], s.mu.coords[0]) for s in res.solutions}
        assert got == {(Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2)),
                       (Fraction(1, 2), Fraction(1, 2))}
        assert got == {(l, m) for l, m in oracle_q(20)}

    def test_rationals_empty_s(self):
        Q = make_field("x")
        assert solve_sunit(Q, [], 8).solutions == []

    def test_rationals_bound_zero_vacuous(self):
        Q = make_field("x")
        assert solve_sunit(Q, s_k(Q), 0).solutions == []

    def test_gaussian_matches_oracle(self):
        K = make_field("x^2 + 1")
        res = solve_sunit(K, s_k(K), 6)
        got = {((s.lam.coords[0], s.lam.coords[1]),
                (s.mu.coords[0], s.mu.coords[1])) for s in res.solutions}
        assert got == oracle_gauss(6)
        lams = {p[0] for p in got}
        assert (Fraction(0), Fraction(1)) in lams          # i
        assert (Fraction(1), Fraction(1)) in lams          # 1 + i
        assert (Fraction(1, 2), Fraction(0)) in lams       # 1/2

    def test_sqrt2_matches_oracle(self):
        K = make_field("x^2 - 2")
        res = solve_sunit(K, s_k(K), 6)
        got = {((s.lam.coords[0], s.lam.coords[1]),
                (s.mu.coords[0], s.mu.coords[1])) for s in res.solutions}
        assert got == oracle_sqrt2(6)

    def test_symmetry(self):
        K = make_field("x^2 - 2")
        res = solve_sunit(K, s_k(K), 5)
        keys = {s.lam.key() for s in res.solutions}
        for s in res.solutions:
            assert s.mu.key() in keys

    def test_monotone_in_bound(self):
        K = make_field("x^2 - 2")
        small = {s.lam.key() for s in solve_sunit(K, s_k(K), 3).solutions}
        large = {s.lam.key() for s in solve_sunit(K, s_k(K), 6).solutions}
        assert small <= large

    def test_case_analysis_valuations(self):
        K = make_field("x^2 - 2")
        res = solve_sunit(K, s_k(K), 6)
        for sol in res.solutions:
            for P, (vl, vm) in sol.val_profile.items():
                t = max(abs(vl), abs(vm))
                if t > 0:
                    assert vl + vm in (-2 * t, t)

    def test_profiles_match_direct_valuation(self):
        K = make_field("x^2 + 1")
        res = solve_sunit(K, s_k(K), 4)
        P = s_k(K)[0]
        for sol in res.solutions:
            assert sol.val_profile[P] == (valuation(sol.lam, P), valuation(sol.mu, P))

    def test_gaussian_spec_witness(self):
        K = make_field("x^2 + 1")
        res = solve_sunit(K, s_k(K), 6)
        P = s_k(K)[0]
        i_elem = K.theta()
        sol = next(s for s in res.solutions if s.lam == i_elem)
        assert sol.mu == 1 - i_elem
        assert sol.val_profile[P] == (0, 1)

    def test_work_limit(self):
        # torsion of order 2 and two free generators: the box at bound 250
        # has 2 * 501^2 = 502002 candidates, more than MAX_CANDIDATES
        K = make_field("x^2 - 2")
        assert 2 * 501 ** 2 > MAX_CANDIDATES
        with pytest.raises(WorkExceeded, match="^502002 candidates"):
            solve_sunit(K, s_k(K), 250)

    def test_cubic_needs_user_class_number(self):
        K = make_field("x^3 - x^2 - 2*x + 1")
        with pytest.raises(BasisUnavailable):
            solve_sunit(K, s_k(K), 2)
        K = make_field("x^3 - x^2 - 2*x + 1", user_class_number=1)
        res = solve_sunit(K, s_k(K), 2)
        for sol in res.solutions:
            assert sol.lam + sol.mu == 1

    def test_s_missing_a_prime_above_its_q_is_rejected(self):
        # 2 splits over x^2 - x - 4; either prime alone leaves the other
        # outside S, where the norm test cannot see it
        K = make_field("x^2 - x - 4")
        S = s_k(K)
        assert len(S) == 2
        for P in S:
            with pytest.raises(ValueError, match="misses a prime"):
                solve_sunit(K, [P], 2)


# -------------------------------------------- box walk and membership test

def box_lambdas(basis, bound):
    """Every zeta^j * prod g_i^e_i of the box but 1, built with ** and no
    running products."""
    out = []
    for j in range(basis.torsion_order):
        for exps in product(range(-bound, bound + 1),
                            repeat=len(basis.free_generators)):
            lam = basis.torsion_gen ** j
            for g, e in zip(basis.free_generators, exps):
                lam = lam * g ** e
            if lam != 1:
                out.append(lam)
    return out


def reference_profile(x, S):
    """{P: v_P(x)} over S when every prime outside S has v_P(x) = 0, else
    None, from the full factorization of x."""
    vals = dict(element_valuations(x, skip=()))
    if any(P not in S for P in vals):
        return None
    return {P: vals.get(P, 0) for P in S}


def is_power_of_two(n):
    return n > 0 and n & (n - 1) == 0


class TestNormTestWarnings:
    """Over x^2 - 18 the prime 3 divides the index of Z[theta].  The norm
    test decides membership for a lambda of the box without factoring, so
    the candidates with 3 in the denominator of mu are found as the S-units
    they are, and the search warns of nothing."""

    def test_warnings_name_only_possible_s_units(self):
        K = make_field("x^2 - 18")
        S = s_k(K)
        res = solve_sunit(K, S, 4)
        assert len(res.solutions) == 31
        assert res.to_dict()["warnings"] == []
        lams = {s.lam for s in res.solutions}
        at_three = 0
        for lam in set(box_lambdas(build_sunit_basis(K, S, 4), 4)):
            c0, c1 = (1 - lam).coords
            norm = c0 * c0 - 18 * c1 * c1
            if (is_power_of_two(abs(norm.numerator))
                    and is_power_of_two(norm.denominator)
                    and lcm(c0.denominator, c1.denominator) % 3 == 0):
                at_three += 1
                assert lam in lams
        assert at_three == 24


def sqrt2_coords(c):
    """a + b*theta over x^2 - 18, theta = 3 sqrt2, in the basis 1, sqrt2."""
    return c[0], 3 * c[1]


def golden_coords(c):
    """a + b*theta over x^2 - x - 11, theta = 3 phi - 1, in the basis 1,
    phi of x^2 - x - 1."""
    return c[0] - c[1], 3 * c[1]


class TestIndexDivisorFields:
    """x^2 - 18 defines Q(sqrt2) and x^2 - x - 11 defines Q(sqrt5), with 3
    dividing the index of Z[theta].  The S-unit group is that of x^2 - 2
    and x^2 - x - 1, so the solutions are the same pairs, coordinates
    mapped, with the same profiles at the prime above 2, and every
    criterion that reads them answers the same."""

    CASES = [("x^2 - 18", "x^2 - 2", sqrt2_coords, 4, 31),
             ("x^2 - 18", "x^2 - 2", sqrt2_coords, 8, 33),
             ("x^2 - 18", "x^2 - 2", sqrt2_coords, 20, 33),
             ("x^2 - x - 11", "x^2 - x - 1", golden_coords, 4, 27),
             ("x^2 - x - 11", "x^2 - x - 1", golden_coords, 8, 27)]

    @staticmethod
    def mapped(poly, bound, coords):
        K = make_field(poly)
        return {(coords(s.lam.coords), coords(s.mu.coords),
                 tuple(s.val_profile.values()), s.from_box)
                for s in solve_sunit(K, s_k(K), bound).solutions}

    @pytest.mark.parametrize("poly, model, coords, bound, count", CASES)
    def test_solutions_are_the_model_field_solutions(self, poly, model,
                                                     coords, bound, count):
        got = self.mapped(poly, bound, coords)
        assert len(got) == count
        assert got == self.mapped(model, bound, lambda c: tuple(c))

    @pytest.mark.parametrize("poly, model", [("x^2 - 18", "x^2 - 2"),
                                             ("x^2 - x - 11", "x^2 - x - 1")])
    @pytest.mark.parametrize("check", [check_thm_3_2, check_thm_3_3,
                                       check_cor_3_4, check_thm_5_2])
    def test_criteria_answer_as_the_model_field(self, poly, model, check):
        for bound in (4, 8):
            assert (check(make_field(poly), bound).applies
                    == check(make_field(model), bound).applies)


ORACLE_FIELDS = ("x^2 - 2", "x^2 - x - 4", "x^3 - x^2 - 2*x + 1")


@lru_cache(maxsize=None)
def oracle_setup(poly):
    K = make_field(poly, user_class_number=1)
    S = s_k(K)
    basis = build_sunit_basis(K, S, 1)
    gen_vals = [{P: valuation(g, P) for P in S}
                for g in basis.free_generators]
    # one prime of a split 2 alone: the derived profile is checked against
    # valuation prime by prime
    choices = [S] + ([[P] for P in S] if len(S) > 1 else [])
    return K, S, basis, gen_vals, choices


@st.composite
def membership_case(draw):
    """(lambda, [v_P(lambda) for P in S_K], the primes to check): lambda a
    product of basis powers with exponents in [-3, 3], or 1 - x for a
    random x with None for the valuations."""
    K, S, basis, gen_vals, choices = oracle_setup(
        draw(st.sampled_from(ORACLE_FIELDS)))
    checked = draw(st.sampled_from(choices))
    if draw(st.booleans()):
        lam = basis.torsion_gen ** draw(
            st.integers(0, basis.torsion_order - 1))
        lam_vals = [0] * len(S)
        for g, vals in zip(basis.free_generators, gen_vals):
            e = draw(st.integers(-3, 3))
            lam = lam * g ** e
            lam_vals = [v + e * vals[P] for v, P in zip(lam_vals, S)]
        return lam, lam_vals, checked
    x = K.element([Fraction(draw(st.integers(-30, 30)),
                            draw(st.integers(1, 12)))
                   for _ in range(K.degree)])
    return 1 - x, None, checked


def kernel_norm(K, a, da, b, db, primes):
    """N(D - a*b), D = da*db, from the walk's trace-form kernel, with a/da
    as the prefix and b/db as the table entry."""
    pre = _factor_data(K, a, da, primes)
    return _mu_norms(K)(pre, [(0, *_factor_data(K, b, db, primes))])[0]


def kernel_keeps(K, a, da, b, db, primes):
    """The walk's keep-or-skip decision for lambda = (a*b)/(da*db); a kept
    entry comes with its norm N(D - a*b)."""
    pre = _factor_data(K, a, da, primes)
    entry = (0, *_factor_data(K, b, db, primes))
    kept = _norm_screen(K, primes)(pre, [entry])
    assert kept in ([], [(entry, kernel_norm(K, a, da, b, db, primes))])
    return bool(kept)


def reference_norm_supported(field, num, den, primes):
    """The norm test as the walk made it on the canonical mu = num/den:
    False when mu cannot be an S-unit.  With the primes of S stripped from
    a = |N(num)| and from den, a prime outside S divides the reduced N(mu)
    unless a == den^n."""
    a = abs(field.num_norm(num))
    for q in primes:
        while a % q == 0:
            a //= q
        while den % q == 0:
            den //= q
    return a == den ** field.degree


class TestMembershipOracle:
    """For lambda an S-unit the norm test keeps mu = 1 - lambda exactly
    when the full factorization finds mu an S-unit, and _mu_valuations
    derives what valuation finds at each prime of S.  For any other lambda
    the test still keeps every S-unit mu."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(membership_case())
    def test_matches_full_factorization(self, case):
        lam, lam_vals, checked = case
        K = lam.field
        S = s_k(K)
        mu = 1 - lam
        if lam == 1:
            return
        one = (1,) + (0,) * (K.degree - 1)
        primes = {P.q for P in S}
        keeps = kernel_keeps(K, lam.num, lam.den, one, 1, primes)
        is_s_unit = reference_profile(mu, S) is not None
        if lam_vals is None:
            assert keeps or not is_s_unit
            return
        assert keeps == is_s_unit
        if keeps:
            norm = kernel_norm(K, lam.num, lam.den, one, 1, primes)
            derived = dict(zip(S, zip(
                lam_vals, _mu_valuations(mu, S, lam_vals, norm, lam.den))))
            for P in checked:
                assert derived[P] == (valuation(lam, P), valuation(mu, P))

    def test_split_two_with_both_primes_open(self, monkeypatch):
        # lambda = -1, mu = 2 over x^2 - x - 4: v_P(lambda) = 0 at both
        # primes above 2 and v_2(N(mu)) = 2, which the norm cannot split
        K = make_field("x^2 - x - 4")
        S = s_k(K)
        lam = -K.one()
        calls = []

        def counted(x, P):
            calls.append(P)
            return valuation(x, P)

        monkeypatch.setattr(sunits, "valuation", counted)
        norm = kernel_norm(K, lam.num, 1, (1, 0), 1, {2})
        assert len(S) == 2 and norm == 4
        assert _mu_valuations(1 - lam, S, [0, 0], norm, 1) == [1, 1]
        assert calls == S


@lru_cache(maxsize=None)
def kernel_field(coeffs):
    """The field of an irreducible polynomial, else None."""
    try:
        return make_field(list(coeffs))
    except AfcheckError:
        return None


@st.composite
def trace_form_case(draw):
    """(K, a, da, b, db, primes): a and b integral with coordinates in
    [-50, 50], D = da*db in [1, 60], over Q, the sunit-box fields and random
    irreducible quadratics and cubics."""
    kind = draw(st.sampled_from(("fixed", "quadratic", "cubic")))
    if kind == "fixed":
        K = make_field(draw(st.sampled_from(
            ("x", "x^2 - 2", "x^2 - x - 4", "x^3 - x^2 - 2*x + 1"))))
    else:
        low = [draw(st.integers(-30, 30))] + [
            draw(st.integers(-5, 5)) for _ in range(kind == "cubic")]
        K = kernel_field((*low, draw(st.integers(-3, 3)), 1))
        assume(K is not None)
    coords = st.lists(st.integers(-50, 50), min_size=K.degree,
                      max_size=K.degree)
    D = draw(st.integers(1, 60))
    da = draw(st.sampled_from([d for d in range(1, D + 1) if D % d == 0]))
    primes = draw(st.sets(st.sampled_from((2, 3, 5, 7))))
    return K, draw(coords), da, draw(coords), D // da, primes


def resultant_norm(K, num):
    """N(num) as the resultant of f and num(x), from sympy."""
    f = sympy.Poly(list(reversed(K.coeffs)), sympy.Symbol("x"))
    g = sympy.Poly(list(reversed(num)), sympy.Symbol("x"))
    return 0 if g.is_zero else int(sympy.resultant(f, g))


class TestTraceFormNorm:
    """chi_c(D) from the trace form is N(D - c), and the walk's decision on
    the unreduced c/D is the norm test on the canonical lambda."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(trace_form_case())
    def test_chi_is_the_norm_and_the_resultant(self, case):
        K, a, da, b, db, primes = case
        mu_num = [-c for c in K.mul_num(a, b)]
        mu_num[0] += da * db
        chi = kernel_norm(K, a, da, b, db, primes)
        assert chi == K.num_norm(mu_num) == resultant_norm(K, mu_num)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(trace_form_case())
    def test_decision_is_the_canonical_norm_test(self, case):
        K, a, da, b, db, primes = case
        lam = FieldElement(K, K.mul_num(a, b), da * db)
        keeps = kernel_keeps(K, a, da, b, db, primes)
        if lam == 1:
            assert not keeps
        else:
            mu = 1 - lam
            assert keeps == reference_norm_supported(K, mu.num, mu.den,
                                                     primes)

    @pytest.mark.parametrize("poly, a, da, b, db", [
        ("x", [1], 1, [1], 1), ("x", [6], 2, [1], 3),
        ("x^2 - 2", [2, 0], 2, [3, 0], 3),
        ("x^2 - 2", [1, 1], 1, [-1, 1], 1),
        ("x^3 - x^2 - 2*x + 1", [0, 1, 0], 1, [2, 1, -1], 1),
        ("x^3 - x^2 - 2*x + 1", [4, 0, 0], 2, [3, 0, 0], 6)])
    def test_lambda_one_is_skipped(self, poly, a, da, b, db):
        K = make_field(poly)
        assert FieldElement(K, K.mul_num(a, b), da * db) == 1
        assert kernel_norm(K, a, da, b, db, {2}) == 0
        assert not kernel_keeps(K, a, da, b, db, {2})

    def test_quartic_is_unsupported(self):
        K = make_field("x^4 - 2")
        with pytest.raises(Unsupported, match="degree 4"):
            _mu_norms(K)
        with pytest.raises(Unsupported, match="degree 4"):
            _norm_screen(K, {2})


class TestNormTestWork:
    """The walk takes one norm per prefix and per innermost table entry, and
    mul_num outside the valuations at most three times per prefix, once
    per table entry and 1 + (number of generators) times per survivor:
    neither runs once per candidate of the box.  valuation runs on the
    basis and, at a split 2, on a survivor whose lambda is a unit and whose
    mu is not; no survivor is factored."""

    @pytest.mark.parametrize("poly, bound", [("x^2 - x - 4", 6),
                                             ("x^3 - x^2 - 2*x + 1", 3)])
    def test_calls_follow_prefixes_entries_and_survivors(self, poly, bound,
                                                         monkeypatch):
        K = make_field(poly, user_class_number=1)
        S = s_k(K)
        gens = len(build_sunit_basis(K, S, bound).free_generators)
        # a first walk fills the field's memos
        expected = solve_sunit(K, S, bound)
        counts = Counter()
        in_valuation = []

        def counted(name, method):
            def wrapper(*args):
                counts[name] += 1
                if not in_valuation:
                    counts[name + " outside valuations"] += 1
                return method(*args)
            return wrapper

        def flagged(function):
            def wrapper(*args):
                counts[function.__name__] += 1
                in_valuation.append(True)
                try:
                    return function(*args)
                finally:
                    in_valuation.pop()
            return wrapper

        def counting_screen(field, primes):
            screen = _norm_screen(field, primes)

            def wrapper(pre, entries):
                kept = screen(pre, entries)
                counts["prefixes"] += 1
                counts["candidates"] += len(entries)
                counts["survivors"] += len(kept)
                return kept
            return wrapper

        for name in ("num_norm", "mul_num"):
            monkeypatch.setattr(NumberField, name,
                                counted(name, getattr(NumberField, name)))
        for name in ("valuation", "_mu_valuations"):
            monkeypatch.setattr(sunits, name,
                                flagged(getattr(sunits, name)))
        monkeypatch.setattr(sunits, "_norm_screen", counting_screen)
        got = solve_sunit(K, S, bound)
        assert got.to_dict() == expected.to_dict()
        prefixes, survivors = counts["prefixes"], counts["survivors"]
        entries = 2 * bound + 1
        norm_bound = prefixes + entries
        mul_bound = 3 * prefixes + entries + (1 + gens) * survivors
        split_units = sum(
            1 for sol in got.solutions
            if len(S) > 1 and sol.from_box
            and not any(vl for vl, _ in sol.val_profile.values())
            and any(vm for _, vm in sol.val_profile.values()))
        assert counts["num_norm"] <= norm_bound
        assert counts["mul_num outside valuations"] <= mul_bound
        assert max(norm_bound, mul_bound) < counts["candidates"]
        assert counts["_mu_valuations"] <= survivors
        assert counts["valuation"] <= len(S) * (len(S) + gens + split_units)


class TestBoxWalkCoverage:
    @pytest.mark.parametrize("poly, bound", [("x^2 - x - 4", 2),
                                             ("x^3 - x^2 - 2*x + 1", 1)])
    def test_matches_brute_force(self, poly, bound):
        K = make_field(poly, user_class_number=1)
        S = s_k(K)
        basis = build_sunit_basis(K, S, bound)
        ref = {}
        for lam in box_lambdas(basis, bound):
            mu = 1 - lam
            mu_profile = reference_profile(mu, S)
            if mu_profile is not None:
                profile = {P: (valuation(lam, P), mu_profile[P]) for P in S}
                ref[lam.coords] = (lam.coords, mu.coords, profile, True)
        for lam, mu, profile, _ in list(ref.values()):
            if mu not in ref:
                swapped = {P: (v[1], v[0]) for P, v in profile.items()}
                ref[mu] = (mu, lam, swapped, False)
        res = solve_sunit(K, S, bound)
        got = [(s.lam.coords, s.mu.coords, s.val_profile, s.from_box)
               for s in res.solutions]
        assert sorted(got, key=lambda t: t[0]) == sorted(
            ref.values(), key=lambda t: t[0])
        assert res.to_dict()["warnings"] == []

    @pytest.mark.parametrize("poly, bound, count", [
        ("x^2-2", 20, 33), ("x^2-x-4", 6, 123), ("x^3-x^2-2*x+1", 3, 89)])
    def test_benchmark_field_counts(self, poly, bound, count):
        K = make_field(poly, user_class_number=1)
        res = solve_sunit(K, s_k(K), bound)
        assert len(res.solutions) == count


def norm_off_s_is_one(x, S):
    """The norm test on the rational x.norm(): no prime outside S."""
    norm = x.norm()
    for m in (abs(norm.numerator), norm.denominator):
        for q in {P.q for P in S}:
            while m % q == 0:
                m //= q
        if m != 1:
            return False
    return True


def reference_walk(K, S, bound):
    """solve_sunit's solutions from plain FieldElement arithmetic: each
    lambda of the box as a product of powers, in the full walk's order,
    membership from the norm test on the rational x.norm(), and the
    profiles from valuation at the primes of S, which is exact even where
    Z[theta] is not maximal at an odd q.  A bound below 1 is the solver's
    vacuous search."""
    if bound <= 0:
        return []
    basis = build_sunit_basis(K, S, bound)

    def key(x):  # the solver's output order
        return tuple((c.numerator, c.denominator) for c in x.coords)

    found = {}
    for j in range(basis.torsion_order):
        for exps in product(range(-bound, bound + 1),
                            repeat=len(basis.free_generators)):
            lam = basis.torsion_gen ** j
            for g, e in zip(basis.free_generators, exps):
                lam = lam * g ** e
            if lam == 1 or key(lam) in found:
                continue
            mu = 1 - lam
            if norm_off_s_is_one(mu, S):
                profile = {P: (valuation(lam, P), valuation(mu, P)) for P in S}
                found[key(lam)] = (lam, mu, profile, True)
    for k in sorted(found):
        lam, mu, profile, _ = found[k]
        if key(mu) not in found:
            swapped = {P: (v[1], v[0]) for P, v in profile.items()}
            found[key(mu)] = (mu, lam, swapped, False)
    return [(lam.coords, mu.coords, profile, from_box, key(mu))
            for lam, mu, profile, from_box in
            (found[k] for k in sorted(found))]


@lru_cache(maxsize=None)
def random_field_setup(coeffs):
    """(K, S_K) when the S-unit basis of K exists with h taken as 1; None
    for a reducible polynomial, an index divisor at 2, or a basis that
    cannot be built."""
    try:
        K = make_field(list(coeffs), user_class_number=1)
        S = s_k(K)
        build_sunit_basis(K, S, 1)
    except AfcheckError:
        return None
    return K, S


@st.composite
def random_box(draw):
    if draw(st.booleans()):
        coeffs = (draw(st.integers(-20, 20)), draw(st.integers(-1, 1)), 1)
    else:
        coeffs = (draw(st.integers(-5, 5)), draw(st.integers(-5, 5)),
                  draw(st.integers(-2, 2)), 1)
    setup = random_field_setup(coeffs)
    assume(setup is not None)
    return setup, draw(st.integers(0, 2))


def fraction_key(x):
    return tuple((c.numerator, c.denominator) for c in x.coords)


@pytest.mark.parametrize("poly, bound", [
    ("x^2 - 2", 20), ("x^2 - x - 4", 6), ("x^3 - x^2 - 2*x + 1", 3)])
def test_output_order_is_the_fraction_order(poly, bound):
    # the sunit-box fields of the benchmark: solutions come sorted by the
    # (numerator, denominator) pairs of the Fraction coordinates of lambda
    K = make_field(poly, user_class_number=1)
    res = solve_sunit(K, s_k(K), bound)
    keys = [fraction_key(s.lam) for s in res.solutions]
    assert keys and keys == sorted(set(keys))
    assert [s.lam.key() for s in res.solutions] == keys
    assert [s.mu.key() for s in res.solutions] == [
        fraction_key(s.mu) for s in res.solutions]


class TestReferenceWalk:
    """The half-box walk of solve_sunit (one of each pair lambda, 1/lambda,
    the other as its mirror) against reference_walk, which walks the full
    box, on random small boxes over quadratic and cubic fields, S above 2,
    and on fixed fields with torsion of order 2, 4 and 6."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(random_box())
    def test_solutions_profiles_and_warnings(self, drawn):
        (K, S), bound = drawn
        res = solve_sunit(K, S, bound)
        got = [(s.lam.coords, s.mu.coords, s.val_profile, s.from_box,
                s.mu.key()) for s in res.solutions]
        assert got == reference_walk(K, S, bound)
        assert res.to_dict()["warnings"] == []

    @pytest.mark.parametrize("poly, bound", [
        ("x^2 - 18", 4), ("x^2 - 18", 0), ("x^2 - x - 4", 1),
        ("x^2 - x - 4", 2), ("x^3 - x^2 - 2*x + 1", 1),
        ("x^2 + 1", 0), ("x^2 + 1", 1), ("x^2 + 1", 5),
        ("x^2 + x + 1", 0), ("x^2 + x + 1", 1), ("x^2 + x + 1", 4),
        ("x^2 - x + 2", 3)])
    def test_fixed_fields(self, poly, bound):
        # x^2 - 18: 3 divides the index of Z[theta], and the 24 candidates
        # with 3 in the denominator of mu are solutions all the same;
        # x^2 + 1 and x^2 + x + 1 have torsion of order 4 and 6
        K = make_field(poly, user_class_number=1)
        S = s_k(K)
        res = solve_sunit(K, S, bound)
        assert [(s.lam.coords, s.mu.coords, s.val_profile, s.from_box,
                 s.mu.key()) for s in res.solutions] == reference_walk(
                     K, S, bound)


class TestSelmer:
    def test_rationals(self):
        Q = make_field("x")
        sg = selmer_group(Q, s_k(Q))
        values = {r.coords[0] for r in sg.representatives}
        assert values == {Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}
        assert sg.basis_size == 2

    def test_rationals_empty_s(self):
        Q = make_field("x")
        sg = selmer_group(Q, [])
        assert {r.coords[0] for r in sg.representatives} == {Fraction(1), Fraction(-1)}

    def test_sqrt2_basis_three(self):
        K = make_field("x^2 - 2")
        sg = selmer_group(K, s_k(K))
        assert sg.basis_size == 3
        assert len(sg.representatives) == 8

    def test_pairwise_ratios_nonsquare(self):
        K = make_field("x^2 - 2")
        sg = selmer_group(K, s_k(K))
        reps = sg.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_square(reps[i] / reps[j])

    def test_closure(self):
        K = make_field("x^2 - 2")
        sg = selmer_group(K, s_k(K))
        for a in sg.representatives:
            for b in sg.representatives:
                matches = [r for r in sg.representatives if is_square(a * b / r)]
                assert len(matches) == 1


class TestIsSquare:
    def test_two_is_square_in_sqrt2(self):
        K = make_field("x^2 - 2")
        assert is_square(K.from_rational(2))
        assert is_square(K.from_rational(Fraction(9, 2)))
        assert not is_square(K.from_rational(3))
        assert not is_square(K.from_rational(-2))

    def test_i_not_square_in_gauss(self):
        K = make_field("x^2 + 1")
        assert not is_square(K.theta())

    def test_minus_one_square_in_gauss(self):
        K = make_field("x^2 + 1")
        assert is_square(K.from_rational(-1))
        assert is_square(2 * K.theta())  # (1 + i)^2
        assert not is_square(K.from_rational(2))

    def test_unit_square(self):
        K = make_field("x^2 - 2")
        u = 1 + K.theta()
        assert is_square(u * u) and is_square(u * u / 9)
        assert not is_square(u) and not is_square(-(u * u))

    def test_cubic_square_and_nonsquare(self):
        K = make_field("x^3 - x^2 + 1")
        assert is_square(K.theta() ** 2)
        # norm(theta) = -1 < 0 cannot be the norm of a square
        assert not is_square(K.theta())

    def test_rational_in_cubic(self):
        K = make_field("x^3 - x^2 + 1")
        assert is_square(K.from_rational(Fraction(9, 4)))
        assert not is_square(K.from_rational(2))

    def test_even_degree_four_unsupported(self):
        # theta^2 and 2 are squares in these quartics; the odd-degree
        # shortcuts would answer no
        K = make_field("x^4 - 2")
        with pytest.raises(Unsupported):
            is_square(K.theta() ** 2)
        L = make_field("x^4 - 10*x^2 + 1")
        with pytest.raises(Unsupported):
            is_square(L.from_rational(2))
        M = make_field("x^5 - x - 1")
        assert is_square(M.theta() ** 2)
        assert is_square(M.from_rational(4))


def factor_square_test(x):
    """Reference: the square test without the norm screen, x != 0 a square
    iff chi(t^2) has a factor of odd degree, chi the characteristic
    polynomial of den^2 x (a power of its minimal polynomial)."""
    chi = charpoly((x * (x.den * x.den)).num_matrix())
    doubled = [0] * (2 * len(chi) - 1)
    doubled[::2] = chi
    return any((len(fac) - 1) % 2 for fac, _ in zx_factor(doubled))


# odd-degree fields, each with a unit of norm +1 that is not a square
ODD_FIELD_UNITS = {"x^3 - x^2 - 2*x + 1": [0, -1, 0],
                   "x^3 - x^2 + 1": [0, -1, 0],
                   "x^3 - 2": [-1, 1, 0],
                   "x^5 - x - 1": [0, 1, 0, 0, 0]}


@st.composite
def odd_square_case(draw):
    poly = draw(st.sampled_from(sorted(ODD_FIELD_UNITS)))
    K = make_field(poly)
    n = K.degree
    b = K.element([Fraction(c, draw(st.integers(1, 4))) for c in
                   draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))])
    assume(not b.is_zero())
    u = K.element(ODD_FIELD_UNITS[poly])
    kind = draw(st.sampled_from(("square", "negated", "unit", "random")))
    return {"square": b * b, "negated": -(b * b), "unit": b * b * u,
            "random": b}[kind]


def explicit_quadratic_square(x):
    """Reference for a quadratic field: x = s + t sqrt(D), D = poly_disc, is
    (g + h sqrt(D))^2 for rationals g, h, that is g^2 + D h^2 = s and
    2gh = t; for t != 0, g^2 = (s +- w)/2 with w^2 = s^2 - D t^2."""
    def root(r):
        if r < 0:
            return None
        a, b = math.isqrt(r.numerator), math.isqrt(r.denominator)
        return Fraction(a, b) if Fraction(a * a, b * b) == r else None

    _, b, _ = x.field.coeffs
    D = x.field.poly_disc
    u, v = x.coords
    s, t = u - v * Fraction(b, 2), v / 2
    if t == 0:
        return root(s) is not None or root(s / D) is not None
    w = root(s * s - D * t * t)
    return w is not None and any(root((s + e * w) / 2) not in (None, 0)
                                 for e in (1, -1))


@st.composite
def quadratic_square_case(draw):
    K = make_field(draw(st.sampled_from(
        ["x^2 - 2", "x^2 + 1", "x^2 - x - 1", "x^2 + 3", "x^2 - 12",
         "x^2 - 10"])))
    b = K.element([Fraction(c, draw(st.integers(1, 4))) for c in
                   draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2))])
    assume(not b.is_zero())
    r = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    kind = draw(st.sampled_from(("square", "negated", "scaled", "random")))
    return {"square": b * b, "negated": -(b * b), "scaled": b * b * r,
            "random": b}[kind]


class TestQuadraticSquares:
    @settings(max_examples=200, deadline=None)
    @given(quadratic_square_case())
    def test_matches_the_explicit_root(self, x):
        assert is_square(x) == explicit_quadratic_square(x)


class TestNormScreen:
    @pytest.mark.parametrize("poly", sorted(ODD_FIELD_UNITS))
    def test_units_have_square_norm_and_are_not_squares(self, poly):
        K = make_field(poly)
        u = K.element(ODD_FIELD_UNITS[poly])
        assert u.norm() == 1 and not factor_square_test(u)
        assert not is_square(u)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(odd_square_case())
    def test_screened_test_matches_the_factor_test(self, x):
        assert is_square(x) == factor_square_test(x)


def element_gamma_matrix(base, a_int, t):
    """Reference: the matrix of gamma = z + t*theta on K[z]/(z^2 - a_int),
    column by column from field arithmetic, the image of theta^i and then
    of z*theta^i."""
    n = base.degree
    theta, zero = base.theta(), base.from_rational(0)
    cols = []
    for j in (0, 1):
        for i in range(n):
            e = theta ** i
            u, v = (e, zero) if j == 0 else (zero, e)
            # gamma * (u + v z) = (t*theta*u + a*v) + (u + t*theta*v) z
            ru = theta * t * u + a_int * v
            rv = u + theta * t * v
            cols.append(list(ru.num) + list(rv.num))
    return [[cols[j][i] for j in range(2 * n)] for i in range(2 * n)]


GAMMA_FIELDS = ("x", "x^2 - 2", "x^2 - x - 1", "x^2 - x - 4",
                "x^3 - x^2 - 2*x + 1")


@st.composite
def gamma_case(draw):
    K = make_field(draw(st.sampled_from(GAMMA_FIELDS)))
    coords = draw(st.lists(st.integers(-30, 30), min_size=K.degree,
                           max_size=K.degree))
    return K, K.element(coords), draw(st.integers(-4, 4))


def reference_extension(base, a):
    """Reference: the coefficients of K(sqrt(a)) as make_field built them,
    the charpoly of the first shifted generator that factoring found
    irreducible."""
    a_int = a * (a.den * a.den)
    for t in _GENERATOR_SHIFTS:
        try:
            return make_field(charpoly(_gamma_matrix(base, a_int, t))).coeffs
        except Reducible:
            continue
    raise AssertionError("no shift gave an irreducible charpoly")


class TestQuadraticExtension:
    @settings(max_examples=200, deadline=None)
    @given(gamma_case())
    def test_gamma_matrix_matches_element_arithmetic(self, case):
        K, a_int, t = case
        assert _gamma_matrix(K, a_int, t) == element_gamma_matrix(K, a_int, t)

    def test_sqrt2_over_q(self):
        Q = make_field("x")
        L = quadratic_extension(Q, Q.from_rational(2))
        assert L.coeffs == (-2, 0, 1)

    def test_gauss_over_q(self):
        Q = make_field("x")
        L = quadratic_extension(Q, Q.from_rational(-1))
        assert L.coeffs == (1, 0, 1)
        assert [(p.e, p.f) for p in s_k(L)] == [(2, 1)]

    def test_square_rejected(self):
        Q = make_field("x")
        with pytest.raises(IsSquare):
            quadratic_extension(Q, Q.from_rational(1))
        with pytest.raises(ZeroElement):
            quadratic_extension(Q, Q.from_rational(0))

    def test_nonprimitive_adjunction(self):
        # sqrt(3) does not generate K(sqrt3) over Q(sqrt2); needs a shifted generator
        K = make_field("x^2 - 2")
        L = quadratic_extension(K, K.from_rational(3))
        assert L.degree == 4

    def test_scaling_invariance(self):
        Q = make_field("x")
        L = quadratic_extension(Q, Q.from_rational(Fraction(1, 2)))
        assert L.coeffs == (-2, 0, 1)  # sqrt(1/2) generates Q(sqrt2)

    def test_degree_gate(self):
        K = make_field("x^4 - 2")  # degree 4: extension would be degree 8
        with pytest.raises(Unsupported):
            quadratic_extension(K, K.theta())

    @pytest.mark.parametrize("poly, root", [
        ("x^2 - 2", [1, 1]), ("x^2 - 2", [2, 0]), ("x^2 - 2", [0, 1]),
        ("x^2 - x - 4", [Fraction(1, 3), -2]),
        ("x^3 - x^2 - 2*x + 1", [0, 1, 0]), ("x^3 - x^2 - 2*x + 1", [3, 0, 0]),
        ("x^3 - x^2 - 2*x + 1", [2, -1, Fraction(1, 2)]),
        ("x^5 - x - 1", [1, 1, 0, 0, 0]),
    ])
    def test_square_rejected_over_quadratic_and_cubic(self, poly, root):
        K = make_field(poly)
        r = K.element(root)
        with pytest.raises(IsSquare):
            quadratic_extension(K, r * r)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.sampled_from(GAMMA_FIELDS), st.data())
    def test_matches_the_factoring_reference(self, poly, data):
        K = make_field(poly)
        n = K.degree
        # a rational a makes t = 0 fail for n >= 2, so draw those often
        size = data.draw(st.sampled_from((1, n)))
        coords = data.draw(st.lists(st.integers(-12, 12), min_size=size,
                                    max_size=size))
        a = K.element([Fraction(c, data.draw(st.integers(1, 3)))
                       for c in coords + [0] * (n - size)])
        assume(not a.is_zero() and not is_square(a))
        L = quadratic_extension(K, a)
        assert L.coeffs == reference_extension(K, a)
        x = sympy.Symbol("x")
        _, factors = sympy.factor_list(
            sympy.Poly(list(reversed(L.coeffs)), x))
        assert len(factors) == 1 and factors[0][1] == 1
        assert sympy.degree(factors[0][0], x) == 2 * n
        a_int = a * (a.den * a.den)
        chi = charpoly(a_int.num_matrix())
        spread = [0] * (2 * n + 1)
        spread[::2] = chi
        assert charpoly(_gamma_matrix(K, a_int, 0)) == spread

    # the extensions of the benchmark fields over their non-trivial 2-Selmer
    # representatives, as reference_extension builds them by factoring
    SELMER_EXTENSIONS = {
        ("x", None): {
            ("-1",): (1, 0, 1), ("2",): (-2, 0, 1), ("-2",): (2, 0, 1)},
        ("x^2-x-1", None): {
            ("-1", "0"): (5, 0, 1, -2, 1), ("0", "1"): (-1, 0, -1, 0, 1),
            ("0", "-1"): (-1, 0, 1, 0, 1), ("2", "0"): (-1, 6, -5, -2, 1),
            ("-2", "0"): (11, -2, 3, -2, 1), ("0", "2"): (-4, 0, -2, 0, 1),
            ("0", "-2"): (-4, 0, 2, 0, 1)},
        ("x^2-2", None): {
            ("-1", "0"): (9, 0, -2, 0, 1), ("1", "1"): (-1, 0, -2, 0, 1),
            ("-1", "-1"): (-1, 0, 2, 0, 1), ("0", "1"): (-2, 0, 0, 0, 1),
            ("0", "-1"): (-2, 0, 0, 0, 1), ("2", "1"): (2, 0, -4, 0, 1),
            ("-2", "-1"): (2, 0, 4, 0, 1)},
        ("x^2-x-4", None): {
            ("-1", "0"): (26, 6, -5, -2, 1), ("3", "2"): (-1, 0, -8, 0, 1),
            ("-3", "-2"): (-1, 0, 8, 0, 1), ("1", "1"): (-2, 0, -3, 0, 1),
            ("-1", "-1"): (-2, 0, 3, 0, 1), ("11", "7"): (2, 0, -29, 0, 1),
            ("-11", "-7"): (2, 0, 29, 0, 1), ("2", "-1"): (-2, 0, -3, 0, 1),
            ("-2", "1"): (-2, 0, 3, 0, 1), ("-2", "-1"): (2, 0, 5, 0, 1),
            ("2", "1"): (2, 0, -5, 0, 1), ("-2", "0"): (38, 4, -3, -2, 1),
            ("2", "0"): (2, 12, -11, -2, 1), ("-6", "-4"): (-4, 0, 16, 0, 1),
            ("6", "4"): (-4, 0, -16, 0, 1)},
        ("x^3-x^2-2*x+1", 1): {
            ("-1", "0", "0"): (13, -8, 7, 2, 0, -2, 1),
            ("-1", "-1", "0"): (-1, 0, 3, 0, 4, 0, 1),
            ("1", "1", "0"): (1, 0, 3, 0, -4, 0, 1),
            ("-1", "-1", "1"): (1, 0, -2, 0, -1, 0, 1),
            ("1", "1", "-1"): (-1, 0, -2, 0, 1, 0, 1),
            ("2", "0", "-1"): (1, 0, -2, 0, -1, 0, 1),
            ("-2", "0", "1"): (-1, 0, -2, 0, 1, 0, 1),
            ("-2", "-2", "0"): (-8, 0, 12, 0, 8, 0, 1),
            ("2", "2", "0"): (8, 0, 12, 0, -8, 0, 1),
            ("2", "4", "2"): (-8, 0, 68, 0, -20, 0, 1),
            ("-2", "-4", "-2"): (8, 0, 68, 0, 20, 0, 1),
            ("4", "0", "-2"): (8, 0, -8, 0, -2, 0, 1),
            ("-4", "0", "2"): (-8, 0, -8, 0, 2, 0, 1),
            ("-6", "0", "4"): (8, 0, -36, 0, -2, 0, 1),
            ("6", "0", "-4"): (-8, 0, -36, 0, 2, 0, 1)},
    }

    @pytest.mark.parametrize("poly, h", list(SELMER_EXTENSIONS))
    def test_selmer_extensions_unchanged(self, poly, h):
        K = make_field(poly, user_class_number=h)
        group = selmer_group(K, s_k(K))
        got = {tuple(str(c) for c in r.coords): quadratic_extension(K, r).coeffs
               for r in group.representatives if r != 1}
        assert got == self.SELMER_EXTENSIONS[poly, h]


def test_thm_5_2_builds_one_field_and_factors_each_representative_once(
        monkeypatch, capsys):
    counts = {"_square_test": 0, "zx_factor": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    K = make_field("x^3-x^2-2*x+1", user_class_number=1)
    reps = selmer_group(K, s_k(K)).representatives
    # make_field under every name that binds it; the square tests that
    # is_square does not answer from the field's memo, and the factoring
    # that the norm screen leaves to them
    made = spy_bindings(monkeypatch, numberfield, "make_field")
    for name in ("_square_test", "zx_factor"):
        monkeypatch.setattr(sunits, name, counting(name, getattr(sunits, name)))
    code = run(["--output", "json", "check", "thm-5-2", "x^3-x^2-2*x+1",
                "--bound", "1", "--user-class-number", "1"])
    capsys.readouterr()
    assert code == 3
    assert len(made) == 1
    assert counts["_square_test"] <= len(reps)
    assert 0 < counts["zx_factor"] <= len(reps)


def spy_bindings(monkeypatch, module, name):
    """The argument tuples of the calls to module.name, under every name
    that binds it in a loaded afcheck module."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for modname, loaded in list(sys.modules.items()):
        if (modname.startswith("afcheck")
                and getattr(loaded, name, None) is real):
            monkeypatch.setattr(loaded, name, wrapper)
    return calls


# the requests of the benchmark's sunit-box workload: each field's quadratic
# data, unit and pi_P are computed once, and v_P(lambda) is read off the
# exponents, so factorint and valuation run only where these counts allow
@pytest.mark.parametrize("argv, factorints, valuations", [
    (["x^2-2", "--bound", "20"], 3, 1),
    (["x^2-x-4", "--bound", "6"], 3, 14),
    (["x^3-x^2-2*x+1", "--bound", "3", "--user-class-number", "1"], 0, 2)])
def test_sunit_request_factor_and_valuation_counts(
        argv, factorints, valuations, monkeypatch, capsys):
    factored = spy_bindings(monkeypatch, integerfactor, "factorint")
    valued = spy_bindings(monkeypatch, prime_ideals, "valuation")
    assert run(["--output", "json", "sunit", *argv]) == 0
    capsys.readouterr()
    assert (len(factored), len(valued)) == (factorints, valuations)


def test_thm_5_2_factors_the_discriminant_and_walks_the_unit_once(
        monkeypatch, capsys):
    # x^2 - x - 4 has discriminant 17 and principal form (1, 3, -2); the
    # walk to the fundamental unit starts at its rho
    factored = spy_bindings(monkeypatch, integerfactor, "factorint")
    walks = spy_bindings(monkeypatch, units, "_walk_to_principal")
    code = run(["--output", "json", "check", "thm-5-2", "x^2-x-4",
                "--bound", "4"])
    capsys.readouterr()
    assert code == 3
    assert sum(args[0] == 17 for args in factored) == 1
    assert walks.count((17, units._rho((1, 3, -2), 17))) == 1


@pytest.mark.parametrize("poly", ["x", "x^2 - 2", "x^2 - x - 4",
                                  "x^3 - x^2 - 2*x + 1", "x^2 - 10",
                                  "x^2 - x - 16", "x^2 - 79", "x^2 - 82"])
def test_basis_orders_are_the_valuations_of_the_pis(poly):
    # the sunit-box fields and census fields with h = 2, 3, 4, 2 split or
    # ramified; solve_sunit reads v_P(lambda) = k_P e_P off this
    K = make_field(poly, user_class_number=1)
    S = s_k(K)
    basis = build_sunit_basis(K, S, 1)
    assert len(basis.pis) == len(basis.orders) == len(S)
    assert [[valuation(pi, Q) for Q in S] for pi in basis.pis] == [
        [k if Q == P else 0 for Q in S] for P, k in zip(S, basis.orders)]
    assert all(valuation(u, P) == 0 for u in basis.units for P in S)
