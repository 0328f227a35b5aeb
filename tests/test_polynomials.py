"""Polynomial engine against sympy oracles: factorization, gcds, division
over F_p, the F_q kernel and distinct-degree factorization, Sturm and
discriminants."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_add, gf_ddf_zassenhaus, gf_degree,
                                     gf_factor_sqf, gf_from_int_poly, gf_gcd,
                                     gf_irreducible_p, gf_mul, gf_pow_mod,
                                     gf_quo, gf_rem, gf_sqf_list, gf_sqf_p,
                                     gf_sub)

from afcheck import polynomials
from afcheck.polynomials import (FqKernel, _fp_ddf, _fp_edf, _fp_sqf,
                                 _split_witness, degree, fp_divmod, fp_factor,
                                 fp_gcd, fp_norm, integer_roots, interval_eval,
                                 isolate_real_roots, padd, pmul, poly_disc,
                                 sign, strip, sturm_chain, zx_factor, zx_gcd)

X = sympy.symbols("x")


def to_sympy(coeffs):
    return sympy.Poly(sum(int(c) * X ** i for i, c in enumerate(coeffs)), X)


def from_sympy(poly):
    return [int(c) for c in reversed(poly.all_coeffs())]


def monic(max_degree):
    """Monic integer polynomials of degree 1..max_degree, coefficients in
    [-4, 4]."""
    return st.integers(1, max_degree).flatmap(
        lambda n: st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        .map(lambda low: low + [1]))


def with_repeats(max_degree):
    """Lists of (monic factor, multiplicity): products with repeated factors."""
    return st.lists(st.tuples(monic(max_degree), st.integers(1, 3)),
                    min_size=1, max_size=3)


def product(factors):
    out = [1]
    for fac, mult in factors:
        for _ in range(mult):
            out = pmul(out, fac)
    return out


BATTERY = [
    [1, 0, 0, 0, 1],              # x^4 + 1: irreducible over Q, splits mod every p
    [-4, 0, 0, 0, 1],             # x^4 - 4 = (x^2-2)(x^2+2)
    [-1, 0, 0, 0, 0, 0, 1],       # x^6 - 1
    [1, 0, 0, 1, 0, 0, 1],        # x^6 + x^3 + 1: cyclotomic, irreducible
    [-2, 2, -3, 1],               # random cubic
    [2, 0, -4, 0, 1],             # x^4 - 4x^2 + 2: Eisenstein at 2
    [-1, -1, 1],                  # golden ratio minimal polynomial
    [4, 4, 1],                    # (x + 2)^2
    [0, 0, 0, 1],                 # x^3
]


def monic_wide(min_degree, max_degree, bound):
    """Monic integer polynomials with coefficients in [-bound, bound]."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
        .map(lambda low: low + [1]))


class TestZxFactor:
    def test_battery_against_sympy(self):
        for coeffs in BATTERY:
            mine = zx_factor(coeffs)
            _, theirs = to_sympy(coeffs).factor_list()
            their_set = sorted(
                (tuple(int(c) for c in reversed(f.all_coeffs())), m)
                for f, m in theirs)
            mine_set = sorted((tuple(f), m) for f, m in mine)
            assert mine_set == their_set, coeffs

    def test_random_products_recombine(self):
        rng = random.Random(3)
        for _ in range(30):
            f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
            g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
            prod = pmul(f, g)
            total = 1
            for fac, mult in zx_factor([int(c) for c in prod]):
                for _ in range(mult):
                    total = pmul(total if total != 1 else [1], fac)
            assert [int(c) for c in total] == [int(c) for c in prod]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(monic_wide(1, 2, 10 ** 6), min_size=3, max_size=4))
    def test_products_of_wide_factors_against_sympy(self, factors):
        # factors with coefficients up to 10^6 give products with
        # coefficients near 10^24, so the lift must pass p^k > 10^27:
        # several quadratic Hensel steps before recombination
        f = product((fac, 1) for fac in factors)
        _, theirs = to_sympy(f).factor_list()
        assert sorted((tuple(g), m) for g, m in zx_factor(f)) == sorted(
            (tuple(from_sympy(g)), m) for g, m in theirs)

    def test_irreducibility_flags(self):
        assert zx_factor([1, 0, 0, 0, 1]) == [([1, 0, 0, 0, 1], 1)]
        assert zx_factor([-4, 0, 0, 0, 1]) == [([-2, 0, 1], 1), ([2, 0, 1], 1)]
        assert zx_factor([-2, 0, 1]) == [([-2, 0, 1], 1)]


def sympy_integer_roots(coeffs):
    """Distinct integer roots of a monic integer polynomial, ascending, read
    off the linear factors of sympy's factorization."""
    _, theirs = to_sympy(coeffs).factor_list()
    return sorted(-int(g.all_coeffs()[1]) for g, _ in theirs
                  if g.degree() == 1)


def times_x(k, f):
    return [0] * k + f


# monic integer polynomials of degree 1-6 with coefficients in [-40, 40],
# some with f(0) = 0, and (x - r) * g with r in [-20, 20], so that roots and
# constant terms fall on both sides of the bound 16
ROOT_STEP_POLYS = st.one_of(
    st.builds(times_x, st.integers(0, 2), monic_wide(1, 4, 40)),
    st.builds(lambda r, g: pmul([-r, 1], g), st.integers(-20, 20),
              monic_wide(0, 5, 40)))

# planted products: integer roots with multiplicities, a power of x and an
# arbitrary cofactor
PLANTED = st.builds(
    lambda roots, k, cofactor: times_x(k, product(
        [([-r, 1], m) for r, m in roots] + [cofactor])),
    st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 3)),
             min_size=1, max_size=3),
    st.integers(0, 2),
    st.tuples(monic(3), st.integers(1, 2)))


class TestIntegerRoots:
    @settings(max_examples=300, deadline=None)
    @given(ROOT_STEP_POLYS)
    def test_roots_against_sympy(self, coeffs):
        roots, complete = integer_roots(coeffs)
        theirs = sympy_integer_roots(coeffs)
        assert roots == [r for r in theirs if abs(r) <= 16]
        if complete:
            assert roots == theirs

    def test_both_sides_of_the_bound(self):
        # no root past 16 is tried: x^2 - 17^2 and x(x^2 - 17^2) do not
        # claim a complete list, while x^2 - 16^2 has both its roots found
        assert integer_roots([-289, 0, 1]) == ([], False)
        assert integer_roots([-256, 0, 1]) == ([-16, 16], True)
        assert integer_roots([0, -289, 0, 1]) == ([0], False)

    @settings(max_examples=150, deadline=None)
    @given(PLANTED)
    def test_zx_factor_of_planted_products_against_sympy(self, f):
        _, theirs = to_sympy(f).factor_list()
        assert sorted((tuple(g), m) for g, m in zx_factor(f)) == sorted(
            (tuple(from_sympy(g)), m) for g, m in theirs)

    def test_linear_factors_need_no_zassenhaus(self, monkeypatch):
        # (x - 3)(x^2 + 1): the root 3 is divided out, and x^2 + 1 has a
        # complete root list with no root, so it is irreducible
        calls = []
        real = polynomials._zx_factor_squarefree

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(polynomials, "_zx_factor_squarefree", counting)
        assert zx_factor([-3, 1, -3, 1]) == [([-3, 1], 1), ([1, 0, 1], 1)]
        assert calls == []


class TestFpFactor:
    def test_against_sympy(self):
        rng = random.Random(5)
        for p in (2, 3, 5, 7, 23):
            for _ in range(15):
                coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
                mine = fp_factor(coeffs, p)
                poly = sympy.Poly(sum(c * X ** i for i, c in enumerate(coeffs)),
                                  X, modulus=p, symmetric=False)
                _, theirs = poly.factor_list()
                their_set = sorted(
                    (tuple(int(c) % p for c in reversed(f.all_coeffs())), m)
                    for f, m in theirs)
                assert sorted((tuple(f), m) for f, m in mine) == their_set, (coeffs, p)

    def test_inert_cubic_mod_two(self):
        # x^3 + x^2 + 1 over F_2 has no roots, hence is irreducible
        assert fp_factor([1, 0, 1, 1], 2) == [([1, 0, 1, 1], 1)]


def to_gf(p, q):
    """p as sympy's galoistools writes it mod q: highest degree first."""
    return gf_from_int_poly(p[::-1], q)


def from_gf(g):
    return [int(c) for c in reversed(g)]


def loop_ddf(f, q):
    """Distinct-degree factorization as it stood before the Frobenius
    kernel, on sympy's F_q arithmetic: one powering mod f per degree,
    reducing mod what is left of f."""
    f, h, d, out = to_gf(f, q), [1, 0], 0, []
    while 2 * (d + 1) <= gf_degree(f):
        d += 1
        h = gf_pow_mod(h, q, f, q, ZZ)
        g = gf_gcd(gf_sub(h, [1, 0], q, ZZ), f, q, ZZ)
        if gf_degree(g) > 0:
            out.append((from_gf(g), d))
            f = gf_quo(f, g, q, ZZ)
            h = gf_rem(h, f, q, ZZ)
    if gf_degree(f) > 0:
        out.append((from_gf(f), gf_degree(f)))
    return out


DDF_PRIMES = (2, 3, 5, 7, 11, 13, 29, 101, 997)


@st.composite
def squarefree_mod_q(draw, max_degree=8):
    """(f, q): f monic and squarefree over F_q, degree 1..max_degree."""
    q = draw(st.sampled_from(DDF_PRIMES))
    n = draw(st.integers(1, max_degree))
    f = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)) + [1]
    assume(gf_sqf_p(list(reversed(f)), q, ZZ))
    return f, q


EDF_PRIMES = (2, 3, 5, 997)
# F_2 has one irreducible quadratic, so no product of two
EDF_CASES = [(q, d) for q in EDF_PRIMES for d in (1, 2, 3) if (q, d) != (2, 2)]


def irreducible(q, d):
    """Monic irreducibles of degree d over F_q, as coefficient tuples."""
    low = st.tuples(*[st.integers(0, q - 1)] * d)
    return low.map(lambda c: c + (1,)).filter(
        lambda g: gf_irreducible_p(list(g[::-1]), q, ZZ))


def residue(p, n):
    return p + [0] * (n - len(p))


class TestFpKernel:
    @settings(max_examples=300, deadline=None)
    @given(squarefree_mod_q())
    def test_ddf_against_sympy_and_the_loop(self, drawn):
        f, q = drawn
        theirs = [([int(c) for c in reversed(g)], d)
                  for g, d in gf_ddf_zassenhaus(list(reversed(f)), q, ZZ)]
        kernel = FqKernel(f, q) if degree(f) >= 2 else None
        assert _fp_ddf(f, q, kernel) == theirs == loop_ddf(f, q)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(DDF_PRIMES), st.data())
    def test_mulmod_and_frobenius(self, q, data):
        n = data.draw(st.integers(2, 8))
        coeffs = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        f = data.draw(coeffs) + [1]
        a, b = data.draw(coeffs), data.draw(coeffs)
        kernel = FqKernel(f, q)
        F, A = to_gf(f, q), to_gf(a, q)
        assert kernel.mulmod(a, b) == residue(from_gf(
            gf_rem(gf_mul(A, to_gf(b, q), q, ZZ), F, q, ZZ)), n)
        assert kernel.xq == residue(from_gf(
            gf_pow_mod([1, 0], q, F, q, ZZ)), n)
        assert kernel.frobenius(a) == residue(from_gf(
            gf_pow_mod(A, q, F, q, ZZ)), n)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(DDF_PRIMES), st.data())
    def test_pow_against_sympy(self, q, data):
        n = data.draw(st.integers(2, 8))
        coeffs = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        f, a = data.draw(coeffs) + [1], data.draw(coeffs)
        kernel, F, A = FqKernel(f, q), to_gf(f, q), to_gf(a, q)
        # e = 1, e just past q, and a drawn e >= 2
        for e in (1, q + 1, data.draw(st.integers(2, q ** 3))):
            assert kernel.pow(a, e) == residue(from_gf(
                gf_pow_mod(A, e, F, q, ZZ)), n)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
           st.data())
    def test_gcd_against_sympy(self, q, data):
        # a = s*u and b = s*v share the drawn s, so most gcds are proper;
        # coefficients run past [0, q) and zero operands are drawn, since
        # fp_gcd reduces its own copies
        def draw(max_degree):
            return data.draw(st.lists(st.integers(-2 * q, 2 * q),
                                      max_size=max_degree + 1))

        s = draw(4)
        a, b = pmul(s, draw(4)), pmul(s, draw(4))
        assume(degree(a) <= 8 and degree(b) <= 8)
        a_in, b_in = list(a), list(b)
        theirs = gf_gcd(gf_from_int_poly(a[::-1], q),
                        gf_from_int_poly(b[::-1], q), q, ZZ)
        assert fp_gcd(a, b, q) == [int(c) for c in reversed(theirs)]
        assert (a, b) == (a_in, b_in)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edf_against_sympy(self, data):
        q, d = data.draw(st.sampled_from(EDF_CASES))
        factors = data.draw(st.lists(irreducible(q, d), min_size=2,
                                     max_size=3, unique=True))
        f = fp_norm(product((list(g), 1) for g in factors), q)
        _, theirs = gf_factor_sqf(to_gf(f, q), q, ZZ)
        assert sorted(_fp_edf(f, d, q, FqKernel(f, q))) == sorted(
            from_gf(g) for g in theirs) == sorted(map(list, factors))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(EDF_PRIMES), st.integers(1, 3), st.data())
    def test_split_witness_against_sympy(self, q, d, data):
        # odd q: h^((q^d-1)/2) - 1; q = 2: the trace sum_i h^(2^i), both
        # mod the kernel's f
        n = data.draw(st.integers(2, 7))
        coeffs = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        f, h = data.draw(coeffs) + [1], data.draw(coeffs)
        F, H = to_gf(f, q), to_gf(h, q)
        if q == 2:
            want = []
            for i in range(d):
                want = gf_add(want, gf_pow_mod(H, 2 ** i, F, q, ZZ), q, ZZ)
        else:
            want = gf_sub(gf_pow_mod(H, (q ** d - 1) // 2, F, q, ZZ), [1],
                          q, ZZ)
        assert fp_norm(_split_witness(h, d, FqKernel(f, q)), q) == from_gf(
            want)


SQF_PRIMES = (2, 3, 5, 7, 23)


def monic_mod_q(q, min_degree, max_degree):
    """Monic polynomials over F_q, coefficients in [0, q)."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        .map(lambda low: low + [1]))


def sympy_sqf(f, q):
    """Squarefree decomposition of f over F_q from galoistools (oracle)."""
    _, parts = gf_sqf_list(to_gf(f, q), q, ZZ)
    return sorted((from_gf(g), m) for g, m in parts)


class TestFpSqf:
    """_fp_sqf against sympy's gf_sqf_list on its three paths."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SQF_PRIMES), st.data())
    def test_squarefree_is_its_own_part(self, q, data):
        # gcd(f, f') = 1: the early return
        f = data.draw(monic_mod_q(q, 1, 8))
        assume(gf_sqf_p(to_gf(f, q), q, ZZ))
        assert _fp_sqf(f, q) == [(f, 1)] == sympy_sqf(f, q)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SQF_PRIMES), st.data())
    def test_planted_multiplicities(self, q, data):
        # a factor of multiplicity 2 or 3, so gcd(f, f') is nonconstant;
        # at q = 2 and 3 the multiplicity q reaches the q-th root branch
        planted = data.draw(st.lists(
            st.tuples(monic_mod_q(q, 1, 3), st.integers(2, 3)),
            min_size=1, max_size=2))
        rest = data.draw(st.lists(
            st.tuples(monic_mod_q(q, 1, 3), st.just(1)), max_size=2))
        f = fp_norm(product(planted + rest), q)
        assert sorted(_fp_sqf(f, q)) == sympy_sqf(f, q)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SQF_PRIMES), st.data())
    def test_qth_power(self, q, data):
        # f = g^q = g(x^q) has f' = 0 mod q
        g = data.draw(monic_mod_q(q, 1, 3))
        f = fp_norm(product([(g, q)]), q)
        assert not fp_norm(polynomials.pderiv(f), q)
        assert sorted(_fp_sqf(f, q)) == sympy_sqf(f, q)


def sturm_count(p):
    """Real roots of a squarefree p by Sturm's theorem: the sign variations
    of its Sturm chain at -infinity less those at +infinity."""
    def variations(direction):
        signs = [sign(q[-1]) * direction ** (len(q) - 1)
                 for q in sturm_chain(p)]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(-1) - variations(1)


class TestSturm:
    def test_root_counts_match_sympy(self):
        for coeffs in BATTERY:
            poly = to_sympy(coeffs)
            sqf = poly.quo(poly.gcd(poly.diff(X)))
            mine = sturm_count([int(c) for c in reversed(sqf.all_coeffs())])
            assert mine == len(sqf.real_roots())

    def test_isolation_intervals(self):
        coeffs = [2, 0, -4, 0, 1]  # four real roots
        intervals = to_fractions(isolate_real_roots(coeffs))
        assert len(intervals) == 4
        roots = sorted(float(r) for r in to_sympy(coeffs).real_roots())
        for (lo, hi), root in zip(intervals, roots):
            assert float(lo) < root < float(hi)
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi <= lo

    def test_interval_eval_encloses(self):
        # integer bounds over 2^(k*d) on p at dyadic points of [lo, hi] / 2^k
        rng = random.Random(8)
        for _ in range(200):
            poly = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
            k = rng.randint(0, 6)
            lo = rng.randint(-40, 40)
            hi = lo + rng.randint(0, 20)
            vlo, vhi = interval_eval(poly, lo, hi, k)
            scale = 2 ** (k * (len(poly) - 1))
            for j in range(5):
                point = Fraction(4 * lo + j * (hi - lo), 4 * 2 ** k)
                value = sum(c * point ** i for i, c in enumerate(poly))
                assert vlo <= value * scale <= vhi
            if lo == hi:
                assert vlo == vhi


def to_fractions(triples):
    """Dyadic triples (lo, hi, k) as Fraction pairs (lo / 2^k, hi / 2^k)."""
    return [(Fraction(lo, 2 ** k), Fraction(hi, 2 ** k))
            for lo, hi, k in triples]


def fraction_endpoint_isolation(p):
    """Isolation as it stood before endpoints became integers over 2^depth:
    the same integer Sturm chain, Cauchy bound and bisection, with Fraction
    endpoints and signs by integer Horner on their numerator and
    denominator.  The reference the integer bisection must reproduce,
    intervals and errors alike."""
    if degree(p) <= 0:
        return []
    if degree(p) == 1:
        r = -Fraction(p[0]) / Fraction(p[1])
        return [(r, r)]

    def sign_at(q, x):
        n, d = x.numerator, x.denominator
        acc, dk = 0, 1
        for c in reversed(q):
            acc = acc * n + c * dk
            dk *= d
        return (acc > 0) - (acc < 0)

    def variations(x):
        signs = [s for s in (sign_at(q, x) for q in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    chain = sturm_chain(p)
    # the Cauchy bound: every real root of p lies in (-b, b)
    b = 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))
    out = []
    work = [(-b, b, variations(-b), variations(b))]
    while work:
        lo, hi, vlo, vhi = work.pop()
        cnt = vlo - vhi
        if cnt == 0:
            continue
        if cnt == 1:
            if sign_at(p, lo) * sign_at(p, hi) >= 0:
                raise ArithmeticError("isolation endpoint touched a root")
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = variations(mid)
        work.append((lo, mid, vlo, vmid))
        work.append((mid, hi, vmid, vhi))
    out.sort()
    return out


def dyadic_isolation(p):
    """isolate_real_roots with its triples as Fraction pairs."""
    return to_fractions(isolate_real_roots(p))


def outcome(isolate, p):
    """The intervals, or the type and message of the error raised."""
    try:
        return isolate(p)
    except ArithmeticError as exc:
        return type(exc), str(exc)


# monic integer polynomials of degree 1-8 with the other coefficients in
# [-40, 40], lowest degree first
MONIC_POLYS = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(-40, 40), min_size=n, max_size=n).map(
        lambda low: low + [1]))


def squarefree(p):
    f = to_sympy(p)
    return f.gcd(f.diff(X)).degree() == 0


class TestIntegerIsolation:
    """isolate_real_roots against the Fraction-endpoint reference and sympy."""

    @settings(max_examples=300, deadline=None)
    @given(MONIC_POLYS)
    # chain members with a root outside (-b, b), where their signs at -b
    # and b differ from those at -oo and +oo: 2x - 7 (root 3.5, b = 3) in
    # the chain of x^3 + 2x^2 + x + 1, and a quadratic member with a root
    # near 15.5 (b = 10) in that of x^6 + 9x^5 + 3x^4 - 8x^3 - 8x^2 - 6x + 4
    @example([1, 1, 2, 1])
    @example([4, -6, -8, -8, 3, 9, 1])
    def test_squarefree_integer_polys(self, p):
        assume(squarefree(p))
        got = outcome(dyadic_isolation, p)
        assert got == outcome(fraction_endpoint_isolation, p)
        if isinstance(got, list):
            assert len(got) == to_sympy(p).count_roots()
            assert all(type(e) is int for iv in isolate_real_roots(p)
                       for e in iv)

    @pytest.mark.parametrize("p", [
        [-6, 0, 1],                    # 3x^2 - 2 at x = y/3: roots +-sqrt(6)
        [125, 0, -35, 0, 1],           # 5x^4 - 7x^2 + 1 at x = y/5: close pairs
        [-1, 0, 0, 0, 0, 0, 0, 0, 1],  # x^8 - 1: roots +-1 hit bisection points
        [2, -3, 1],                    # (x - 1)(x - 2): 1 is a midpoint
        [-3, 1],                       # degree one: the exact root
        [1764, -630, 0, 1],            # 21x^3 - 30x + 4 at x = y/21
    ])
    def test_fixed_cases(self, p):
        assert outcome(dyadic_isolation, p) == outcome(
            fraction_endpoint_isolation, p)

    @pytest.mark.parametrize("p", [[-2, 0, 3], [-3, 7], [1, 0, -1]])
    def test_non_monic_is_refused(self, p):
        with pytest.raises(ValueError):
            isolate_real_roots(p)

    @pytest.mark.parametrize("p", [
        [0, 0, -2, 1],     # x^2 (x - 2): 0 is a bisection point
        [0, 0, -3, 0, 1],  # x^2 (x^2 - 3)
    ])
    def test_repeated_root_is_refused(self, p):
        with pytest.raises(ValueError):
            isolate_real_roots(p)


class TestResultant:
    def test_disc_against_sympy(self):
        for coeffs in ([-2, 0, 1], [1, 0, -1, 1], [1, 3, 0, 0, 1], [7, 1]):
            assert poly_disc(coeffs) == int(sympy.discriminant(
                to_sympy(coeffs).as_expr(), X))

    @settings(max_examples=150, deadline=None)
    @given(monic_wide(1, 8, 10 ** 12))
    def test_disc_as_a_norm_against_sympy(self, coeffs):
        # (-1)^(n(n-1)/2) N(f'(theta)) against sympy's subresultants
        assert poly_disc(coeffs) == int(to_sympy(coeffs).discriminant())

    def test_disc_needs_a_monic_polynomial(self):
        with pytest.raises(ValueError):
            poly_disc([1, 0, 2])


class TestGcd:
    @settings(max_examples=200, deadline=None)
    @given(with_repeats(3), with_repeats(2), st.lists(st.integers(-6, 6), max_size=4),
           st.integers(-3, 3).filter(bool))
    def test_zx_gcd_against_sympy(self, shared, rest, other, scale):
        # a monic, b = scale * shared * other: a nontrivial gcd, a b that is
        # neither monic nor primitive, and b = 0 when other is zero
        common = product(shared)
        a = pmul(common, product(rest))
        b = pmul(pmul(common, strip(other)), [scale])
        g = to_sympy(a).gcd(to_sympy(b))
        expected = from_sympy(g if g.LC() > 0 else -g)
        assert zx_gcd(a, b) == expected
        assert zx_gcd(a, [-c for c in b]) == expected

    @settings(max_examples=100, deadline=None)
    @given(with_repeats(3))
    def test_zx_factor_multiplicities_against_sympy(self, factors):
        f = product(factors)
        _, theirs = to_sympy(f).factor_list()
        assert sorted((tuple(g), m) for g, m in zx_factor(f)) == sorted(
            (tuple(from_sympy(g)), m) for g, m in theirs)


class TestFpDivmod:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((2, 3, 5, 7, 11, 13, 29, 101)), st.data())
    def test_division_identity(self, q, data):
        residues = st.lists(st.integers(0, q - 1), max_size=9)
        a = strip(data.draw(residues))
        b = strip(data.draw(residues))
        assume(b)
        quo, rem = fp_divmod(a, b, q)
        assert fp_norm(padd(pmul(quo, b), rem), q) == a
        assert degree(rem) < degree(b)
        assert all(0 <= c < q for c in quo + rem)
        assert quo == strip(quo) and rem == strip(rem)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            fp_divmod([1, 1], [], 5)

