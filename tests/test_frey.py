"""Frey invariants, symbolic valuation profiles and conductor shapes."""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afcheck import cli, frey, make_field
from afcheck.errors import (InconsistentDivisibility, RelationViolated,
                            UnsupportedCase, WorkExceeded)
from afcheck.frey import (FAMILY_SQUARE, FAMILY_TWO_POWER,
                          FreySpec, ValuationForm, concrete_cross_check,
                          conductor_shape, invariants,
                          odd_multiplicative_primes, valuation_profile,
                          weierstrass_invariants)
from afcheck.numberfield import FieldElement, NumberField
from afcheck.parsing import MAX_PARSED_DIGITS
from afcheck.prime_ideals import factor_rational_prime, s_k
from afcheck.sunits import solve_sunit


Q = make_field("x")
K2 = make_field("x^2 - 2")


def q_spec(family, a, b, c, r=None, p=None):
    return FreySpec(family, Q.from_rational(a), Q.from_rational(b),
                    Q.from_rational(c), r=r, p=p)


class TestInvariants:
    def test_unit_triple_r1(self):
        spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=1, p=5)
        inv = invariants(spec)
        assert (inv.delta, inv.c4, inv.j) == (64, 48, 1728)
        assert inv.forms_agree

    def test_pp2_sqrt2(self):
        s = K2.theta()
        spec = FreySpec(FAMILY_SQUARE, K2.one(), K2.one(), s, r=None, p=3)
        inv = invariants(spec)
        assert (inv.delta, inv.c4, inv.j) == (4096, 320, 8000)
        assert inv.forms_agree

    def test_relation_guard(self):
        with pytest.raises(RelationViolated):
            q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=2, p=5)
        with pytest.raises(RelationViolated):
            q_spec(FAMILY_SQUARE, 1, 1, 2, p=3)  # 1+1 != 4

    def test_singular_guard(self):
        with pytest.raises(RelationViolated):
            q_spec(FAMILY_TWO_POWER, 1, -1, 0, r=2, p=3)

    @pytest.mark.parametrize("family, triple, r", [
        (FAMILY_TWO_POWER, (1, -1, 0), 2), (FAMILY_TWO_POWER, (0, 1, 1), 1),
        (FAMILY_SQUARE, (0, 1, 1), None), (FAMILY_SQUARE, (1, 0, 1), None),
        (FAMILY_SQUARE, (1, 1, 0), None)])
    def test_zero_entry_refused_at_a_symbolic_exponent(self, family, triple,
                                                       r):
        with pytest.raises(RelationViolated, match="abc = 0"):
            q_spec(family, *triple, r=r)

    def test_cross_check_family_a(self):
        for t in (1, 2, 3, -1):
            for p in (2, 3, 5, 7):
                spec = q_spec(FAMILY_TWO_POWER, t, t, t, r=1, p=p)
                assert concrete_cross_check(spec, invariants(spec))

    def test_cross_check_family_b(self):
        fixtures = [(1, 2, 3, 3), (2, 2, 4, 3), (2, 2, 8, 5), (3, 4, 5, 2)]
        for a, b, c, p in fixtures:
            spec = q_spec(FAMILY_SQUARE, a, b, c, p=p)
            assert concrete_cross_check(spec, invariants(spec))

    def test_mutation_detected(self):
        s = K2.theta()
        spec = FreySpec(FAMILY_SQUARE, K2.one(), K2.one(), s, r=None, p=3)
        delta, c4, _c6, j = weierstrass_invariants(spec)
        tampered = invariants(spec).delta * 2
        assert tampered != delta  # an injected factor must be caught

    @pytest.mark.parametrize("family, triple, r", [
        (FAMILY_TWO_POWER, (1, 1, 1), 1), (FAMILY_SQUARE, (2, 2, 8), None),
        (FAMILY_TWO_POWER, (Fraction(-1, 2),) * 3, 1),
        (FAMILY_SQUARE, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)),
         None),
        (FAMILY_SQUARE, (K2.one(), K2.one(), K2.theta()), None)])
    def test_powers_once_per_spec(self, monkeypatch, family, triple, r):
        """a^p, b^p and c^p are taken once, in the ring the spec computes
        in: each entry of the spec's triple counts its own powers."""
        exponents = []

        def counting(ring):
            class Counted(ring):
                def __pow__(self, e):
                    exponents.append(e)
                    return ring.__pow__(self, e)
            return Counted

        # the spec takes an int entry of its triple as num[0] of the
        # element, and builds a Fraction one with frey.Fraction
        monkeypatch.setattr(frey, "Fraction", counting(Fraction))
        counted_int = counting(int)
        original = FieldElement.__pow__

        def spy(self, e):
            exponents.append(e)
            return original(self, e)

        monkeypatch.setattr(FieldElement, "__pow__", spy)
        if isinstance(triple[0], FieldElement):
            spec = FreySpec(family, *triple, r=r, p=5)
        else:
            spec = FreySpec(family, *(
                FieldElement(Q, [counted_int(x.numerator)], x.denominator)
                for x in map(Fraction, triple)), r=r, p=5)
        assert concrete_cross_check(spec, invariants(spec))
        assert concrete_cross_check(spec, invariants(spec))
        odd_multiplicative_primes(spec)
        # a^5, b^5, c^5 when the spec is checked; never again
        assert exponents.count(5) == 3

    def test_frozen_spec(self):
        spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=1, p=5)
        with pytest.raises(AttributeError):
            spec.p = 7

    def test_symbolic_formulas(self):
        spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=2)
        sym = invariants(spec)
        assert "2^8" in sym["delta"]
        assert "(a*b*c)^(2p)" in sym["delta"]


# Fields of degree 1 to 6; the sextic is the first field of the benchmark's
# field-sweep golden rows.
ORACLE_FIELDS = [make_field(f) for f in (
    "x", "x^2 - 2", "x^3 - 2", "x^4 - 10*x^2 + 1", "x^5 - x + 1",
    "x^6 - 6*x^4 + 9*x^2 - 3")]
RATIONAL = st.one_of(st.integers(-30, 30),
                     st.fractions(-30, 30, max_denominator=16))
# rational triples on the curves, for a base t: a = b = t and
# c = t / 2^((r - 1)/p) for 2r (r = 1, or p | r - 1); scaled solutions
# (a0 t^2, b0 t^2, c0 t^p) of a0^p + b0^p = c0^2 for pp2, c of either sign
TWO_R_ON_CURVE = {3: (1, 4), 5: (1, 6), 7: (1,)}
PP2_ON_CURVE = {3: ((2, 2, 4), (1, 2, 3), (2, 1, 3), (-7, 8, 13)),
                5: ((2, 2, 8),), 7: ((2, 2, 16),)}


@st.composite
def frey_requests(draw):
    """(field, family, (a, b, c), r, p): a triple on the curve, or three
    rationals drawn apart, which mostly miss it."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    family = draw(st.sampled_from((FAMILY_TWO_POWER, FAMILY_SQUARE)))
    p = draw(st.sampled_from((3, 5, 7)))
    if draw(st.booleans()):
        t = draw(RATIONAL.filter(bool))
        if family == FAMILY_TWO_POWER:
            r = draw(st.sampled_from(TWO_R_ON_CURVE[p]))
            triple = (t, t, t / Fraction(2) ** ((r - 1) // p))
        else:
            r = None
            a0, b0, c0 = draw(st.sampled_from(PP2_ON_CURVE[p]))
            sign = draw(st.sampled_from((1, -1)))
            triple = (a0 * t * t, b0 * t * t, sign * c0 * t ** p)
    else:
        r = draw(st.integers(1, 6)) if family == FAMILY_TWO_POWER else None
        triple = tuple(draw(RATIONAL) for _ in range(3))
    return field, family, tuple(field.from_rational(x) for x in triple), r, p


def reference_invariants(family, a, b, c, r, p):
    """The Frey invariants evaluated on field elements: the closed forms
    (delta, c4, j and the redundant j or c4) and the literal model's
    (delta, c4, c6, j) through b2, b4, b6 = 0 and b8 (a1 = a3 = a6 = 0);
    None for a singular model."""
    ap, bp, cp = a ** p, b ** p, c ** p
    if family == FAMILY_TWO_POWER:
        core = (ap * bp * cp) ** 2
        inner = ap * ap + bp * cp * 2 ** r
        inner_alt = ap * ap + bp * bp + ap * bp
        scale = Fraction(2) ** (8 - 2 * r)
        closed = (core * 2 ** (4 + 2 * r), inner * 16,
                  inner ** 3 * scale / core, inner_alt ** 3 * scale / core)
        a2, a4 = bp - ap, -(ap * bp)
    else:
        core = ap * ap * bp
        closed = (core * 2 ** 12, (c * c * 4 - ap * 3) * 64,
                  (ap + bp * 4) ** 3 * 64 / core, (bp * 4 + ap) * 64)
        a2, a4 = c * 4, ap * 4
    b2, b4, b8 = a2 * 4, a4 * 2, -(a4 * a4)
    delta = -(b2 * b2 * b8) - b4 ** 3 * 8
    c4 = b2 * b2 - b4 * 24
    c6 = -(b2 ** 3) + b2 * b4 * 36
    model = None if delta.is_zero() else (delta, c4, c6, c4 ** 3 / delta)
    return closed, model


class TestLongPowers:
    """A concrete p whose powers a^p, b^p, c^p or 2^r could pass
    MAX_PARSED_DIGITS digits is refused before any of them is built."""

    BITS = (10 ** MAX_PARSED_DIGITS).bit_length()

    def test_refused_at_once(self):
        started = time.perf_counter()
        for triple, r, p, name in (
                ((3, 1, 1), 2, 10000019, "a"), ((1, 1, 1), 10 ** 8, 5, "2"),
                ((1, Fraction(1, 2), 1), 1, 3317044064679887385961813, "b"),
                ((1, 1, -2), 1, 10 ** 6, "c")):
            with pytest.raises(WorkExceeded, match=f"^{name}\\^"):
                q_spec(FAMILY_TWO_POWER, *triple, r=r, p=p)
        s = K2.theta()
        with pytest.raises(WorkExceeded, match="^c"):
            FreySpec(FAMILY_SQUARE, K2.one(), K2.one(), s, r=None, p=10 ** 5)
        assert time.perf_counter() - started < 0.5

    def test_bound_is_the_bits_of_the_digit_cap(self):
        # a = 2 has h = 2, one bit per unit of p: p = BITS builds the powers
        # and fails the relation, p = BITS + 1 is refused; 2^BITS is built
        with pytest.raises(RelationViolated):
            q_spec(FAMILY_TWO_POWER, 2, 1, 1, r=1, p=self.BITS)
        with pytest.raises(WorkExceeded):
            q_spec(FAMILY_TWO_POWER, 2, 1, 1, r=1, p=self.BITS + 1)
        with pytest.raises(RelationViolated):
            q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=self.BITS, p=3)
        with pytest.raises(WorkExceeded):
            q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=self.BITS + 1, p=3)

    def test_unit_entries_pass_at_any_p(self):
        p = 3317044064679887385961813
        inv = invariants(q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=1, p=p))
        assert (inv.delta, inv.c4, inv.j) == (64, 48, 1728)
        inv = invariants(q_spec(FAMILY_TWO_POWER, -1, -1, -1, r=1, p=p))
        assert (inv.delta, inv.c4, inv.j) == (64, 48, 1728)

    def test_cli_refuses_a_long_power(self):
        started = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["--output", "json", "frey", "2r", "x", "--a", "3",
                            "--b", "1", "--c", "1", "--p", "10000019"])
        assert time.perf_counter() - started < 0.5
        error = json.loads(out.getvalue())["result"]["error"]
        assert (code, error["type"]) == (1, "WorkExceeded")


class TestRationalTriples:
    """A rational triple is computed on ints and Fractions and lifted; the
    values must be those of the same formulas on field elements."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(frey_requests())
    def test_lifted_values_match_field_arithmetic(self, case):
        field, family, (a, b, c), r, p = case
        ap, bp, cp = a ** p, b ** p, c ** p
        on_curve = (ap + bp == (cp * 2 ** r if r else c * c)
                    and not (a * b * c).is_zero())
        if not on_curve:
            with pytest.raises(RelationViolated):
                FreySpec(family, a, b, c, r=r, p=p)
            return
        closed, model = reference_invariants(family, a, b, c, r, p)
        lifted = []
        original = NumberField.from_rational

        def spy(self, value):
            lifted.append(value)
            return original(self, value)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(NumberField, "from_rational", spy)
            spec = FreySpec(family, a, b, c, r=r, p=p)
            inv = invariants(spec)
            model_values = weierstrass_invariants(spec)
        assert all(type(x) in (int, Fraction) for x in spec.powers)
        assert lifted and all(type(v) in (int, Fraction) for v in lifted)
        alt = inv.j_alt if family == FAMILY_TWO_POWER else inv.c4_alt
        assert (inv.delta, inv.c4, inv.j, alt) == closed
        assert inv.forms_agree
        assert model_values == model
        assert concrete_cross_check(spec, inv)

    def test_invariants_and_cross_check_multiply_no_field_element(
            self, monkeypatch):
        """frey 2r and frey pp2 on integer triples over a sextic: inside
        invariants and concrete_cross_check no FieldElement is multiplied."""
        depth, products, entered = [0], [0], []
        original_mul = FieldElement.__mul__

        def mul(self, other):
            products[0] += depth[0] > 0
            return original_mul(self, other)

        def watched(fn):
            def inside(*args, **kwargs):
                entered.append(fn.__name__)
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return inside

        monkeypatch.setattr(FieldElement, "__mul__", mul)
        for name in ("invariants", "concrete_cross_check"):
            monkeypatch.setattr(cli, name, watched(getattr(frey, name)))
        sextic = "x^6 - 6*x^4 + 9*x^2 - 3"
        for argv in (["2r", sextic, "--a", "1", "--b", "1", "--c", "1",
                      "--r", "1", "--p", "5"],
                     ["pp2", sextic, "--a", "2", "--b", "1", "--c", "3",
                      "--p", "3", "--prime", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(["--output", "json", "frey", *argv]) == 0
        assert entered == ["invariants", "concrete_cross_check"] * 2
        assert products == [0]


class TestValuationForm:
    def test_semantics_random(self):
        rng = random.Random(101)
        for _ in range(1000):
            alpha = rng.randint(-40, 40)
            beta = rng.randint(-6, 6)
            form = ValuationForm(alpha, beta)
            for p in (7, 11, 13, 10007):
                value = alpha + beta * p
                if p > abs(alpha):
                    assert (value % p == 0) == (alpha == 0)
                if p > form.threshold:
                    # past the threshold beta*p outweighs alpha
                    lead = beta or alpha
                    assert (value > 0) - (value < 0) == (lead > 0) - (lead < 0)

    def test_serialization_threshold(self):
        form = ValuationForm(4, -2)
        d = form.to_dict()
        assert d == {"alpha": 4, "beta": -2, "threshold": Fraction(2)}


class TestValuationProfile:
    def test_odd_multiplicative(self):
        spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=2)
        q3 = factor_rational_prime(Q, 3)[0]
        rep = valuation_profile(spec, q3, 1, 0, 0)
        assert rep.v_delta == ValuationForm(0, 2)
        assert rep.v_c4 == ValuationForm(0, 0)
        assert rep.reduction_type == "multiplicative"
        assert rep.v_delta.alpha == 0  # p | v(Delta) for every p
        assert not rep.flag_p_in_inertia

    def test_above_two_potentially_multiplicative(self):
        spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=2)
        P = s_k(Q)[0]
        rep = valuation_profile(spec, P, 1, 0, 0)
        assert rep.v_j == ValuationForm(4, -2)  # 2((4-r)v - p va) at r=2, v=1
        assert rep.reduction_type == "potentially-multiplicative"
        assert rep.flag_p_in_inertia and rep.p_threshold == 5

    def test_u_k_good_branch(self):
        P = s_k(Q)[0]
        for r, v_j, v_delta in ((2, 4, 8), (3, 2, 10)):
            spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=r)
            rep = valuation_profile(spec, P, 0, 0, 0)
            assert rep.v_j == ValuationForm(v_j, 0)
            assert rep.v_delta == ValuationForm(v_delta, 0)
            assert rep.reduction_type == "potentially-good"
            assert rep.flag_3_in_inertia  # 3 divides neither 8 nor 10

    def test_u_k_branch_needs_small_r(self):
        spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=4)
        with pytest.raises(UnsupportedCase):
            valuation_profile(spec, s_k(Q)[0], 0, 0, 0)

    def test_inconsistent_divisibility(self):
        spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=2)
        with pytest.raises(InconsistentDivisibility):
            valuation_profile(spec, s_k(Q)[0], 1, 1, 0)

    @pytest.mark.parametrize("family, valuations", [
        (FAMILY_TWO_POWER, (-1, -1, -1)), (FAMILY_TWO_POWER, (0, 0, -1)),
        (FAMILY_SQUARE, (-1, 0, 0)), (FAMILY_SQUARE, (0, 0, -1))])
    def test_negative_valuation_is_inconsistent(self, family, valuations):
        spec = q_spec(family, 1, 1, 1, r=2 if family == FAMILY_TWO_POWER
                      else None)
        for P in (s_k(Q)[0], factor_rational_prime(Q, 3)[0]):
            with pytest.raises(InconsistentDivisibility,
                               match="not integral at the prime"):
                valuation_profile(spec, P, *valuations)

    def test_pp2_above_two(self):
        spec = q_spec(FAMILY_SQUARE, 1, 1, 1)
        P = s_k(Q)[0]
        rep_a = valuation_profile(spec, P, 1, 0, 0)
        assert rep_a.v_j == ValuationForm(12, -2)
        assert rep_a.p_threshold == max(6, 5)
        rep_b = valuation_profile(spec, P, 0, 1, 0)
        assert rep_b.v_j == ValuationForm(6, -1)
        assert rep_b.v_delta == ValuationForm(12, 1)

    def test_consistency_j_from_c4_delta(self):
        # v_j = 3*v_c4 - v_delta on every emitted report
        P2 = s_k(Q)[0]
        q3 = factor_rational_prime(Q, 3)[0]
        specs = [q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=r) for r in (2, 3)]
        specs.append(q_spec(FAMILY_SQUARE, 1, 1, 1))
        for spec in specs:
            patterns = [(1, 0, 0), (0, 1, 0), (0, 0, 0)] \
                if spec.family == FAMILY_TWO_POWER else [(1, 0, 0), (0, 1, 0), (0, 0, 0)]
            for prime in (P2, q3):
                for va, vb, vc in patterns:
                    try:
                        rep = valuation_profile(spec, prime, va, vb, vc)
                    except UnsupportedCase:
                        continue
                    c4, delta = rep.v_c4, rep.v_delta
                    assert (3 * c4.alpha - delta.alpha,
                            3 * c4.beta - delta.beta) == \
                        (rep.v_j.alpha, rep.v_j.beta)

    def test_flag_matches_concrete_evaluation(self):
        # flag_p <=> (v_j < 0 and p does not divide v_j) for p > threshold
        P = s_k(Q)[0]
        for r in (2, 3):
            spec = q_spec(FAMILY_TWO_POWER, 1, 1, 1, r=r)
            for pattern in ((1, 0, 0), (0, 0, 1), (0, 0, 0)):
                rep = valuation_profile(spec, P, *pattern)
                for p in (7, 11, 13, 101):
                    if p <= rep.p_threshold:
                        continue
                    vj = rep.v_j.alpha + rep.v_j.beta * p
                    assert rep.flag_p_in_inertia == (vj < 0 and vj % p != 0)


class TestConductor:
    def test_family_a_shape(self):
        spec = q_spec(FAMILY_TWO_POWER, 3, 5, 7, r=2, p=None)
        rep = factor_rational_prime(Q, 3)[0]
        odd = [factor_rational_prime(Q, 5)[0], factor_rational_prime(Q, 7)[0]]
        shape = conductor_shape(Q, FAMILY_TWO_POWER, rep, odd)
        assert len(shape["conductor"]) == 1 + 1 + 2
        assert len(shape["level_lowered"]) == 2
        assert shape["deleted"] == [P.to_dict() for P in odd]
        two_factor = shape["conductor"][0]
        # 2 + 6*v(2) over Q
        assert two_factor["exponent"] == {"min": 0, "max": 8}
        rep_factor = shape["conductor"][1]
        # 2 + 3*v_m(3) at m = (3)
        assert rep_factor["exponent"] == {"min": 0, "max": 5}
        assert [f["exponent"] for f in shape["conductor"][2:]] == [1, 1]

    def test_family_b_supported_on_two(self):
        shape = conductor_shape(Q, FAMILY_SQUARE, None, [])
        assert len(shape["level_lowered"]) == 1
        assert shape["level_lowered"][0]["prime"]["q"] == 2

    def test_odd_support_detection(self):
        spec = q_spec(FAMILY_SQUARE, 1, 2, 3, p=3)
        primes = odd_multiplicative_primes(spec)
        assert primes == []  # a*b = 2: no odd support
        spec2 = q_spec(FAMILY_TWO_POWER, 3, 5, 7, r=1, p=None)
        qs = {P.q for P in odd_multiplicative_primes(spec2)}
        assert qs == {3, 5, 7}

    def test_odd_support_past_an_index_divisor_at_two(self):
        K = make_field("x^2 - 5")  # 2 divides the index of Z[sqrt 5]
        a, b, c = (K.from_rational(v) for v in (1, 2, 3))
        spec = FreySpec(FAMILY_TWO_POWER, a, b, c, r=1, p=None)
        assert odd_multiplicative_primes(spec) == factor_rational_prime(K, 3)
        spec = FreySpec(FAMILY_TWO_POWER, a, K.from_rational(Fraction(5, 4)),
                        K.from_rational(Fraction(7, 9)), r=1, p=None)
        assert [P.q for P in odd_multiplicative_primes(spec)] == [5, 7]


class TestProofChainProperties:
    def test_j_bound_and_congruence_on_solutions(self):
        for field in (Q, K2):
            S = s_k(field)
            res = solve_sunit(field, S, 6)
            from afcheck.prime_ideals import valuation
            for sol in res.solutions:
                # j of the Legendre curve, through lambda*mu for lambda + mu = 1
                prod = sol.lam * sol.mu
                j = (1 - prod) ** 3 * 256 / (prod * prod)
                for P in S:
                    vl, vm = sol.val_profile[P]
                    t = max(abs(vl), abs(vm))
                    vj = valuation(j, P) if not j.is_zero() else None
                    assert vj is not None
                    assert vj >= 8 * P.e - 2 * t
                    if t > 0:
                        assert (vj - (8 * P.e - 2 * (vl + vm))) % 3 == 0
