"""Unit groups, class numbers, representatives and generator searches."""

import json
import math
import gc
import sys
import time
import traceback
import weakref
from itertools import product

import pytest

from afcheck import criteria, linalg, make_field, prime_ideals, sunits, units
from afcheck.cli import run
from afcheck.criteria import check_thm_5_2
from afcheck.errors import (BasisUnavailable, IndexDivisor,
                            MissingUserClassNumber, SearchExhausted,
                            Unsupported)
from afcheck.integerfactor import SMALL_PRIMES
from afcheck.numberfield import FieldElement
from afcheck.prime_ideals import valuation, factor_rational_prime, s_k
from afcheck.sunits import build_sunit_basis, solve_sunit
from afcheck.integerfactor import squarefree_part
from afcheck.units import (class_data, least_odd_prime, principal_generator,
                           unit_generators, _certified_independent, _by_norm,
                           _canonical_sign, _cubic_fundamental_pair,
                           _cycle_count, _find_generator,
                           _quad_element, _quad_fundamental_unit,
                           _quadratic, _reduced_forms, _shell,
                           _small_relation)


def is_algebraic_integer(x):
    """x is integral over Z: its minimal polynomial has integer
    coefficients."""
    return x.den == 1 or all(c.denominator == 1 for c in x.min_poly())


def quad_cmp_positive(a, b, d):
    """Exact sign of a + b*sqrt(d) for rationals a, b and squarefree d > 1."""
    if a >= 0 and b >= 0:
        return not (a == 0 and b == 0)
    if a <= 0 and b <= 0:
        return False
    if a > 0:  # b < 0
        return a * a > d * b * b
    return d * b * b > a * a


def quad_less(x, y, d):
    """x < y for x, y = (a, b) meaning a + b*sqrt(d); exact."""
    return quad_cmp_positive(y[0] - x[0], y[1] - x[1], d)


class TestFundamentalUnits:
    def test_rationals_rank_zero(self):
        g = unit_generators(make_field("x"))
        assert g.torsion_order == 2
        assert g.fundamental_units == []

    def test_sqrt2(self):
        K = make_field("x^2 - 2")
        g = unit_generators(K)
        assert g.fundamental_units == [1 + K.theta()]
        assert g.fundamental_units[0].norm() == -1

    def test_sqrt3(self):
        K = make_field("x^2 - 3")
        g = unit_generators(K)
        assert g.fundamental_units == [2 + K.theta()]
        assert g.fundamental_units[0].norm() == 1

    def test_golden_ratio_unit(self):
        # O_K of Q(sqrt5) has fundamental unit (1+sqrt5)/2
        assert fundamental_unit(5) == (1, 1, 2, -1)

    @pytest.mark.parametrize("d", [2, 3, 7, 10, 11, 13])
    def test_minimality_by_exhaustion(self, d):
        """No unit strictly between 1 and the reported fundamental unit."""
        x, y, den, norm = fundamental_unit(d)
        assert (x * x - d * y * y) == norm * den * den
        unit = (x / den, y / den) if den == 1 else None
        from fractions import Fraction
        u = (Fraction(x, den), Fraction(y, den))
        for yy in range(0, y + 1):
            for ss in (-4, 4):
                t = d * yy * yy + ss
                if t <= 0:
                    continue
                xx = math.isqrt(t)
                if xx * xx != t or (xx * xx - d * yy * yy) % 4:
                    continue
                cand = (Fraction(xx, 2), Fraction(yy, 2))
                if quad_less((1, 0), cand, d):
                    assert not quad_less(cand, u, d), (d, cand)

    def test_cubic_pair(self):
        K = make_field("x^3 - x^2 - 2*x + 1")
        g = unit_generators(K)
        assert len(g.fundamental_units) == 2
        for u in g.fundamental_units:
            assert abs(u.norm()) == 1
        # independence oracle: float log determinant is comfortably nonzero
        import sympy
        xs = sympy.Poly(sympy.symbols("t") ** 3 - sympy.symbols("t") ** 2
                        - 2 * sympy.symbols("t") + 1, sympy.symbols("t")).real_roots()
        logs = []
        for u in g.fundamental_units:
            logs.append([math.log(abs(float(sum(float(c) * float(r) ** i
                        for i, c in enumerate(u.coords))))) for r in xs[:2]])
        det = logs[0][0] * logs[1][1] - logs[0][1] * logs[1][0]
        assert abs(det) > 1e-6

    def test_imaginary_torsion_internal(self):
        gi = unit_generators(make_field("x^2 + 1"))
        assert gi.torsion_order == 4 and gi.fundamental_units == []
        assert gi.torsion_gen ** 4 == 1 and gi.torsion_gen ** 2 == -1
        g3 = unit_generators(make_field("x^2 + 3"))
        assert g3.torsion_order == 6 and g3.torsion_gen ** 6 == 1


def relation_first_pair(field, height_bound):
    """The cubic pair search with the relation scan before any certificate,
    the order used before the one-round certificate was tried first."""
    found = []
    for h in range(1, height_bound + 1):
        for coords in _shell(3, h):
            x = FieldElement(field, coords)
            if x.is_rational() or abs(x.norm()) != 1:
                continue
            found.append(x)
            for prev in found[:-1]:
                if _small_relation(prev, x):
                    continue
                if _certified_independent(prev, x):
                    return [prev, x]
    raise AssertionError("no pair")


# totally real cubics, polynomial discriminants 49 to 2597; in x^3-4*x-1
# and x^3-x^2-9*x+8 dependent pairs come before the first independent one
TOTALLY_REAL_CUBICS = [
    "x^3-x^2-2*x+1", "x^3-7*x-7", "x^3-3*x-1", "x^3-3*x+1", "x^3-4*x-2",
    "x^3-x^2-3*x+1", "x^3-x^2-4*x-1", "x^3-4*x-1", "x^3-4*x+1",
    "x^3-x^2-5*x-2", "x^3-5*x-3", "x^3-5*x+3", "x^3-x^2-10*x-9",
    "x^3-x^2-4*x+3", "x^3-x^2-4*x+2", "x^3-x^2-6*x-3", "x^3-x^2-6*x+7",
    "x^3-x^2-7*x+9", "x^3-x^2-7*x-4", "x^3-5*x-1", "x^3-x^2-5*x+1",
    "x^3-x^2-6*x-2", "x^3-6*x-3", "x^3-9*x+9", "x^3-x^2-9*x+8",
]


# poly -> (the coordinates of the pair _cubic_fundamental_pair returns, the
# height of the walk's shell it ended in, which is the largest |coordinate|
# of the second unit, h_plus at h = 1), recorded from a certificate on
# Fraction intervals: a certificate is a proof, so the first certified pair
# in search order cannot depend on the arithmetic or the precision schedule
CUBIC_UNIT_PAIRS = {
    "x^3-x^2-2*x+1": (((-1, -1, 0), (-1, -1, 1)), 1, 1),
    "x^3-7*x-7": (((-1, -1, 0), (-1, 1, 1)), 1, 1),
    "x^3-3*x-1": (((-1, -1, 0), (-1, -1, 1)), 1, 1),
    "x^3-3*x+1": (((-1, -1, 1), (-1, 1, 0)), 1, 1),
    "x^3-4*x-2": (((-1, -1, 0), (-1, -1, 1)), 1, 1),
    "x^3-x^2-3*x+1": (((-1, 1, 1), (0, -1, 0)), 1, 1),
    "x^3-x^2-4*x-1": (((-1, -1, 0), (0, -1, -1)), 1, 1),
    "x^3-4*x-1": (((0, -1, 0), (-2, -1, 0)), 2, 2),
    "x^3-4*x+1": (((0, -1, 0), (-2, -1, 0)), 2, 2),
    "x^3-x^2-5*x-2": (((-1, -1, 0), (-1, -2, 0)), 2, 2),
    "x^3-5*x-3": (((-1, -1, 0), (-1, -1, 1)), 1, 2),
    "x^3-5*x+3": (((-1, 1, 0), (-1, 1, 1)), 1, 2),
    "x^3-x^2-10*x-9": (((-1, -1, 0), (-2, -1, 0)), 2, 2),
    "x^3-x^2-4*x+3": (((-1, 1, 0), (-1, 1, 1)), 1, 2),
    "x^3-x^2-4*x+2": (((-1, 1, 1), (-1, 2, 0)), 2, 1),
    "x^3-x^2-6*x-3": (((-1, -1, 0), (-1, -1, 1)), 1, 1),
    "x^3-x^2-6*x+7": (((-1, 1, 0), (-2, 1, 0)), 2, 1),
    "x^3-x^2-7*x+9": (((-2, 0, 1), (-2, 1, 0)), 2, 1),
    "x^3-x^2-7*x-4": (((-1, -1, 0), (-3, -3, 2)), 3, 1),
    "x^3-5*x-1": (((0, -1, 0), (-2, -1, 0)), 2, 1),
    "x^3-x^2-5*x+1": (((0, -1, 0), (-2, -2, 1)), 2, 2),
    "x^3-x^2-6*x-2": (((-1, -2, 2), (-1, -3, -1)), 3, 1),
    "x^3-6*x-3": (((-2, -2, 1), (-1, -2, 0)), 2, 1),
    "x^3-9*x+9": (((-1, 1, 0), (-2, 1, 0)), 2, 1),
    "x^3-x^2-9*x+8": (((-1, 1, 0), (-3, -1, 0)), 3, 2),
}


class TestCubicUnitPair:
    @pytest.mark.parametrize("poly", TOTALLY_REAL_CUBICS)
    def test_pinned_pair_and_narrow_class_number(self, poly):
        K = make_field(poly, user_class_number=1)
        pair = _cubic_fundamental_pair(K)
        coords, height, h_plus = CUBIC_UNIT_PAIRS[poly]
        assert tuple(u.num for u in pair) == coords and all(
            u.den == 1 for u in pair)
        assert max(map(abs, pair[1].num)) == height
        assert class_data(K).h_plus == h_plus

    @pytest.mark.parametrize("poly", TOTALLY_REAL_CUBICS)
    def test_certificate_first_equals_relation_first(self, poly):
        K = make_field(poly)
        assert _cubic_fundamental_pair(K) == relation_first_pair(K, 50)

    @pytest.mark.parametrize("poly", ["x^3-4*x-1", "x^3-x^2-9*x+8"])
    def test_dependent_pairs_reach_the_relation_scan(self, poly, monkeypatch):
        relations = []

        def spy(u, v):
            relations.append(_small_relation(u, v))
            return relations[-1]

        monkeypatch.setattr(units, "_small_relation", spy)
        pair = _cubic_fundamental_pair(make_field(poly))
        assert relations and all(relations)
        assert _certified_independent(*pair)

    def test_benchmark_cubic_needs_no_relation_scan(self, monkeypatch):
        monkeypatch.setattr(units, "_small_relation", None)
        _cubic_fundamental_pair(make_field("x^3-x^2-2*x+1"))


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestPerFieldMemo:
    CUBIC = "x^3 - x^2 - 2*x + 1"

    def test_cubic_units_once_per_field(self, monkeypatch):
        calls = count_calls(monkeypatch, units, "_cubic_fundamental_pair")
        K = make_field(self.CUBIC)
        first, second = unit_generators(K), unit_generators(K)
        assert len(calls) == 1
        assert second is first
        unit_generators(make_field(self.CUBIC))
        assert len(calls) == 2

    def test_a_failed_search_is_stored(self, monkeypatch):
        calls = count_calls(monkeypatch, units, "_cubic_fundamental_pair")
        K = make_field("x^3 - 4*x - 1")  # its first pair needs height 2
        # the walk stops after shells 0 and 1
        monkeypatch.setattr(units, "SHELL_WALK_BUDGET", 27)
        for _ in range(2):
            with pytest.raises(SearchExhausted):
                unit_generators(K)
        assert len(calls) == 1

    def test_an_unsupported_field_stores_nothing(self):
        # a field of degree 4 is refused before the memo is asked
        K = make_field("x^4 - 10*x^2 + 1")
        for _ in range(2):
            with pytest.raises(Unsupported):
                unit_generators(K)
        assert "unit_group" not in K._memo

    def test_a_stored_error_is_raised_bare(self):
        """Each ask raises a copy of the stored error with its type,
        message and payload, and a traceback of the same length; the field
        is freed by reference counting alone."""
        def fail():
            raise IndexDivisor(7, note="kept")

        def ask(field):
            try:
                field.memo("failing", fail)
            except IndexDivisor as exc:
                return exc

        K = make_field("x^2 - 2")
        errors = [ask(K) for _ in range(4)]
        assert len({len(traceback.extract_tb(e.__traceback__))
                    for e in errors}) == 1
        for exc in errors:
            assert type(exc) is IndexDivisor and exc.q == 7
            assert str(exc) == str(errors[0])
            assert exc.payload == {"q": 7, "note": "kept"}
        del errors, exc
        gc.disable()
        try:
            ask(K)
            ref = weakref.ref(K)
            del K
            assert ref() is None
        finally:
            gc.enable()

    def test_class_data_once_per_field_and_arguments(self, monkeypatch):
        cubic = count_calls(monkeypatch, units, "_h_plus_from_unit_signs")
        K = make_field(self.CUBIC, user_class_number=1)
        cd = class_data(K)
        assert class_data(K) is cd
        assert len(cubic) == 1
        assert class_data(make_field(self.CUBIC, user_class_number=2)).h == 2
        assert len(cubic) == 2
        # a quadratic field's class number is computed; the user's is unread
        quad = count_calls(monkeypatch, units, "_quadratic_class_data")
        Q2 = make_field("x^2 - 10", user_class_number=3)
        assert class_data(Q2) is class_data(Q2)
        assert class_data(Q2).h == 2
        assert len(quad) == 1

    def test_prime_power_generators_once_per_field(self, monkeypatch):
        # principal_generator calls the walk through the units module
        calls = count_calls(monkeypatch, units, "_find_generator")
        K = make_field(self.CUBIC, user_class_number=1)
        S = s_k(K)
        first = build_sunit_basis(K, S, 1)
        searched = len(calls)
        assert searched >= len(S)
        second = build_sunit_basis(K, S, 3)
        assert len(calls) == searched
        assert first.free_generators == second.free_generators
        assert (first.exponent_bound, second.exponent_bound) == (1, 3)


class TestClassNumberOnTheField:
    """A cubic's class number is supplied to make_field and carried by the
    field it builds; class_data reads it there, and nowhere else."""
    CUBIC = "x^3 - x^2 - 2*x + 1"

    def test_fields_of_one_polynomial_keep_their_own_class_data(self):
        K1 = make_field(self.CUBIC, user_class_number=1)
        S1 = s_k(K1)
        build_sunit_basis(K1, S1, 1)
        K2 = make_field(self.CUBIC, user_class_number=2)
        # the factor cache serves K2 the primes it made for K1 or for an
        # earlier field of the same polynomial
        S2 = s_k(K2)
        assert S2 == S1 and all(P.field is not K2 for P in S2)
        basis = build_sunit_basis(K2, S2, 1)
        assert [class_data(K).h for K in (K1, K2)] == [1, 2]
        assert class_data(K2).h_plus == 2 * class_data(K1).h_plus
        assert basis.orders == [1] * len(S2)
        narrow = [next(h for h in check_thm_5_2(K, 1).hypotheses
                       if "narrow" in h.name).witness for K in (K1, K2)]
        assert [w["h"] for w in narrow] == [1, 2]

    def test_every_extension_of_thm_5_2_has_no_class_number(
            self, monkeypatch, capsys):
        built = []

        def spy(base, a):
            built.append((base, sunits.quadratic_extension(base, a)))
            return built[-1][1]

        monkeypatch.setattr(criteria, "quadratic_extension", spy)
        code = run(["--output", "json", "check", "thm-5-2", self.CUBIC,
                    "--bound", "1", "--user-class-number", "2"])
        capsys.readouterr()
        assert code == 2
        assert built
        for base, ext in built:
            assert base.user_class_number == 2
            assert ext.degree == 6 and ext.user_class_number is None

    def test_a_cubic_class_data_is_one_memo_entry(self):
        K = make_field(self.CUBIC, user_class_number=3)
        cd = class_data(K)
        assert class_data(K) is cd and cd.h == 3
        entries = [key for key in K._memo if "class_data" in (
            key if isinstance(key, tuple) else (key,))]
        assert entries == ["class_data"]

    def test_a_cubic_built_without_class_number_has_no_basis(self):
        K = make_field(self.CUBIC)
        with pytest.raises(MissingUserClassNumber):
            class_data(K)
        with pytest.raises(BasisUnavailable) as info:
            solve_sunit(K, s_k(K), 1)
        assert isinstance(info.value.__cause__, MissingUserClassNumber)
        assert str(info.value).startswith("class data unavailable: cubic")


class TestClassData:
    def test_rationals(self):
        K = make_field("x")
        cd = class_data(K)
        assert (cd.h, cd.h_plus) == (1, 1)
        assert least_odd_prime(K).q == 3

    def test_sqrt2_rep_is_root3_above_7(self):
        K = make_field("x^2 - 2")
        cd = class_data(K)
        assert (cd.h, cd.h_plus) == (1, 1)
        rep = least_odd_prime(K)
        assert (rep.q, rep.residue_root()) == (7, 3)

    def test_sqrt3_narrow_class(self):
        cd = class_data(make_field("x^2 - 3"))
        assert (cd.h, cd.h_plus) == (1, 2)

    @pytest.mark.parametrize("d,h", [(2, 1), (3, 1), (7, 1), (10, 2), (-1, 1),
                                     (-2, 1), (-3, 1), (-5, 2), (79, 3)])
    def test_known_class_numbers(self, d, h):
        if d % 4 == 1:
            K = make_field([(1 - d) // 4, -1, 1])
        else:
            K = make_field([-d, 0, 1])
        assert class_data(K).h == h

    def test_narrow_rule_double_entry(self):
        # h+ = h exactly when a norm -1 unit exists (real quadratic)
        for d in (2, 3, 5, 7, 10, 11, 13):
            K = make_field([(1 - d) // 4, -1, 1] if d % 4 == 1 else [-d, 0, 1])
            cd = class_data(K)
            norm = fundamental_unit(d)[3]
            assert (cd.h_plus == cd.h) == (norm == -1)

    def test_sqrt10_nonprincipal_rep(self):
        # class 2 field: the first odd prime lies above 3 and is not
        # principal, as x^2 - 10 y^2 = +-3 has no solution mod 5
        K = make_field("x^2 - 10")
        assert class_data(K).h == 2
        rep = least_odd_prime(K)
        assert (rep.q, rep.norm()) == (3, 3)
        assert principal_generator(K, {rep: 1}) is None

    def test_sunit_basis_factors_no_odd_prime(self, monkeypatch, capsys):
        # the basis reads only h, so only the prime of S = {2} is factored
        calls = []
        original = prime_ideals.factor_rational_prime

        def spy(field, q):
            calls.append(q)
            return original(field, q)

        for name, module in list(sys.modules.items()):
            if (name.startswith("afcheck") and
                    getattr(module, "factor_rational_prime", None) is original):
                monkeypatch.setattr(module, "factor_rational_prime", spy)
        assert run(["sunit", "x^2-2", "--bound", "2"]) == 0
        capsys.readouterr()
        assert calls and set(calls) == {2}

    def test_cubic_needs_user_h(self):
        K = make_field("x^3 - x^2 - 2*x + 1")
        with pytest.raises(MissingUserClassNumber):
            class_data(K)
        K = make_field("x^3 - x^2 - 2*x + 1", user_class_number=1)
        cd = class_data(K)
        assert cd.h == 1 and cd.completeness == ("user-supplied",)
        assert cd.h_plus in (1, 2, 4, 8)
        # the ramified prime of norm 7 beats the inert 3
        assert least_odd_prime(K).q == 7


def first_odd_prime(K, enum_bound):
    """Reference: factor every odd q <= enum_bound, sort all the primes by
    _by_norm, and take the first; None when there is none."""
    primes = []
    for q in SMALL_PRIMES:
        if q == 2 or q > enum_bound:
            continue
        try:
            primes.extend(factor_rational_prime(K, q))
        except IndexDivisor:
            pass
    return min(primes, key=_by_norm, default=None)


REP_FIELDS = ("x^2 - 2", "x^2 - x - 1", "x^2 - 18", "x^2 - 45", "x^2 - 245",
              "x^2 + 1", "x^2 + 5", "x^2 - 10", "x^2 - 79", "x^2 - x - 4",
              "x^3 - x^2 - 2*x + 1", "x^3 - 63*x - 1", "x")


class TestLazyRepresentative:
    """The lazy walk factors few primes: its prime must be the first of the
    full sorted enumeration."""

    @pytest.mark.parametrize("poly", REP_FIELDS)
    @pytest.mark.parametrize("enum_bound", [3, 10, 100])
    def test_matches_full_enumeration(self, poly, enum_bound, monkeypatch):
        # x^2 - 2 and x^2 - x - 1: 3 is inert; x^2 - 18, x^2 - 45: 3 divides
        # the index; x^2 - 245: 7 divides it and lies above the smallest
        # norm, 5; x^3 - 63*x - 1: 3 divides the index of a cubic; x^2 + 5,
        # x^2 - 10 (h = 2) and x^2 - 79 (h = 3): several classes
        K = make_field(poly)
        want = first_odd_prime(K, enum_bound)
        monkeypatch.setattr(units, "CLASS_ENUM_BOUND", enum_bound)
        if want is None:
            with pytest.raises(SearchExhausted, match="enumeration bound"):
                least_odd_prime(K)
            return
        assert least_odd_prime(K) == want

    @pytest.mark.parametrize("poly", REP_FIELDS)
    def test_factors_only_up_to_the_smallest_norm(self, poly, monkeypatch):
        K = make_field(poly)
        calls = count_calls(monkeypatch, units, "factor_rational_prime")
        rep = least_odd_prime(K)
        assert [q for _, q in calls if q > rep.norm()] == []


def quadratic_poly(d):
    """The defining polynomial of the maximal order of Q(sqrt(d))."""
    return [(1 - d) // 4, -1, 1] if d % 4 == 1 else [-d, 0, 1]


def fundamental_unit(d):
    """(x, y, den, norm) of the fundamental unit of Q(sqrt(d)), d > 1."""
    return _quad_fundamental_unit(make_field(quadratic_poly(d)))


class TestQuadraticData:
    @pytest.mark.parametrize("poly", ["x^2 - 2", "x^2 - x - 1", "x^2 + 1",
                                      "x^2 + x + 1", "x^2 - 12", "x^2 - 45",
                                      "x^2 - 18", "x^2 + 3*x - 7"])
    def test_square_root_and_fundamental_discriminant(self, poly):
        K = make_field(poly)
        d, m, b, D = _quadratic(K)
        root = (2 * K.theta() + b) / m
        assert root * root == d and squarefree_part(d) == d
        # the discriminant of the maximal order Z[(1 + sqrt d)/2] or Z[sqrt d]
        assert make_field(quadratic_poly(d)).poly_disc == D
        assert _quadratic(K) is _quadratic(K)

    def test_unit_is_walked_when_first_read(self, monkeypatch):
        calls = count_calls(monkeypatch, units, "_walk_to_principal")
        K = make_field("x^2 - 3")
        _quadratic(K)
        assert calls == []
        assert _quad_fundamental_unit(K) == (2, 1, 1, 1)
        assert _quad_fundamental_unit(K) == (2, 1, 1, 1)
        assert len(calls) == 1


SQUAREFREE = [d for d in range(-2999, 3000)
              if d not in (0, 1) and squarefree_part(d) == d]


class TestPellBudget:
    """The least unit p + q sqrt(d) > 1 of Z[sqrt(d)] is the least power of
    the fundamental unit of Q(sqrt(d)) that lies in Z[sqrt(d)]."""

    @staticmethod
    def reference(d):
        # the continued fraction of sqrt(d), stopped by the norm itself
        a0 = math.isqrt(d)
        p_prev, q_prev, p, q = 1, 0, a0, 1
        big_p, big_q = a0, d - a0 * a0
        while p * p - d * q * q not in (1, -1):
            a_k = (a0 + big_p) // big_q
            p, p_prev = a_k * p + p_prev, p
            q, q_prev = a_k * q + q_prev, q
            big_p = a_k * big_q - big_p
            big_q = (d - big_p * big_p) // big_q
        return p, q

    @staticmethod
    def pell_from_walk(d):
        d0 = squarefree_part(d)
        f = math.isqrt(d // d0)
        x, y, den, _ = fundamental_unit(d0)
        # eps = (X + Y sqrt d0)/2; its powers are tracked in the same halves
        eps = (2 * x // den, 2 * y // den)
        X, Y = eps
        while X % 2 or Y % (2 * f):
            X, Y = ((X * eps[0] + d0 * Y * eps[1]) // 2,
                    (X * eps[1] + Y * eps[0]) // 2)
        return X // 2, Y // (2 * f)

    def test_matches_the_norm_stopped_expansion(self):
        for d in range(2, 400):
            if math.isqrt(d) ** 2 != d:
                assert self.pell_from_walk(d) == self.reference(d), d

    def test_budget_raises(self, monkeypatch):
        # the principal cycle of sqrt(94) is the principal form and 15 steps
        monkeypatch.setattr(units, "QUADRATIC_STEP_BUDGET", 15)
        assert fundamental_unit(94) == (*self.reference(94), 1, 1)
        monkeypatch.setattr(units, "QUADRATIC_STEP_BUDGET", 14)
        with pytest.raises(SearchExhausted, match="continued fraction"):
            fundamental_unit(94)


class TestHalfIntegerUnit:
    """The fundamental unit is (X + Y sqrt d)/2 for the solution of
    X^2 - d Y^2 = +-4 with the least Y > 0 when d = 1 mod 4, and X + Y sqrt
    d for that of X^2 - d Y^2 = +-1 otherwise; sympy's diop_DN lists the
    fundamental solutions of both equations."""

    def test_matches_diop_dn(self):
        from sympy.solvers.diophantine.diophantine import diop_DN
        for d in SQUAREFREE:
            if not 1 < d < 2000:
                continue
            r = 2 if d % 4 == 1 else 1
            sols = [(abs(X), abs(Y)) for N in (r * r, -r * r)
                    for X, Y in diop_DN(d, N) if Y]
            X, Y = min(sols, key=lambda s: (s[1], s[0]))
            x, y, den, norm = fundamental_unit(d)
            assert (r * x, r * y) == (den * X, den * Y), d
            assert X * X - d * Y * Y == r * r * norm, d

    def test_long_period_answers_at_once(self):
        # d = 100001: the unit of Z[sqrt(d)] has 110 digits, the cube of
        # the fundamental unit
        t0 = time.perf_counter()
        x, y, den, norm = fundamental_unit(100001)
        assert time.perf_counter() - t0 < 1
        assert x * x - 100001 * y * y == norm * den * den


class TestQuadraticBudget:
    def test_reduced_forms_beyond_the_budget_raise(self, monkeypatch):
        # one budget caps the values of b that enumerate the reduced forms,
        # the rho walk of the principal cycle (TestPellBudget) and the walk
        # that proves a prime above 3 in Q(sqrt(79)) (h = 3) non-principal
        # (8 forms)
        monkeypatch.setattr(units, "QUADRATIC_STEP_BUDGET", 8)
        assert class_data(make_field("x^2 - 10")).h == 2
        with pytest.raises(SearchExhausted, match="reduced forms"):
            class_data(make_field("x^2 - 1001"))
        K = make_field("x^2 - 79")
        P = factor_rational_prime(K, 3)[0]
        monkeypatch.setattr(units, "QUADRATIC_STEP_BUDGET", 8)
        assert principal_generator(K, {P: 1}) is None
        monkeypatch.setattr(units, "QUADRATIC_STEP_BUDGET", 7)
        with pytest.raises(SearchExhausted):
            principal_generator(K, {P: 1})

    def test_generator_beyond_the_old_scan_is_found(self):
        # the generator of a prime above 2 in Q(sqrt(100001)) has
        # y > 2*10^6, and so has that of a prime above 5 squared in
        # Q(sqrt(500009)): both lie beyond the 2^20 values of y that the
        # search over y gave up after
        for poly, q, k in (("x^2 - x - 25000", 2, 1),
                           ("x^2 - x - 125002", 5, 2)):
            K = make_field(poly)
            for P in factor_rational_prime(K, q):
                g = principal_generator(K, {P: k})
                assert abs(g.norm()) == q ** k and valuation(g, P) == k
                assert is_algebraic_integer(g)
        K = make_field("x^2 - 2")
        assert principal_generator(K, {s_k(K)[0]: 1}) == K.theta()


# ------------------------------------------------ references of the walk
# The searches that the rho walk replaced, kept as references: they answer
# the same wherever they finish.

def scan_principal_generator(field, profile):
    """The generator with the least y in (x + y sqrt d)/2, found by a scan
    over y up to a bound that grows with the fundamental unit, or None."""
    d = _quadratic(field)[0]
    target = 1
    for prime, k in profile.items():
        target *= prime.norm() ** k
    eps = 1
    if d > 0:
        x, y, den, _ = _quad_fundamental_unit(field)
        eps = (x + y * (math.isqrt(d) + 1)) // den + 1
    ybound = 2 * math.isqrt(target * eps // abs(d)) + 2
    for y in range(0, ybound + 1):
        candidates = []
        for sgn in (-4, 4):
            t = d * y * y + sgn * target
            x = math.isqrt(max(t, 0))
            if t < 0 or x * x != t or (x * x - d * y * y) % 4:
                continue
            for xs in {x, -x}:
                for ys in {y, -y}:
                    alpha = _quad_element(field, xs, ys, 2)
                    if (not alpha.is_zero() and is_algebraic_integer(alpha)
                            and all(valuation(alpha, p) >= k
                                    for p, k in profile.items())):
                        candidates.append(_canonical_sign(alpha))
        if candidates:
            return min(candidates, key=lambda a: (a.height(), a.coords))
    return None


def trial_reduced_indefinite_forms(D):
    """The reduced forms of discriminant D > 0 by trial division over every
    (b, |a|)."""
    s = math.isqrt(D)
    forms = []
    for b in range(1, s + 1):
        if (b - D) % 2 or b * b >= D:
            continue
        prod = (D - b * b) // 4
        for a_abs in range(1, (s + b) // 2 + 2):
            if prod % a_abs or D >= (2 * a_abs + b) ** 2:
                continue
            if 2 * a_abs > b and (2 * a_abs - b) ** 2 >= D:
                continue
            for a in (a_abs, -a_abs):
                c = -prod // a
                if math.gcd(a, b, c) == 1:
                    forms.append((a, b, c))
    return forms


def loop_definite_class_number(D):
    """The number of reduced forms of discriminant D < 0, counted over
    every a <= sqrt(|D|/3) and every b in (-a, a]."""
    count = 0
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (b < 0 and (-b == a or a == c)):
                continue
            count += math.gcd(a, b, c) == 1
    return count


def orbit_count(forms, D):
    """The number of orbits of rho on the reduced indefinite forms, rho
    stepping r = -b mod 2|c| into (sqrt(D) - 2|c|, sqrt(D)] one 2|c| at a
    time."""
    s = math.isqrt(D)

    def rho(form):
        _, b, c = form
        r = -b
        while r > s:
            r -= 2 * abs(c)
        while r <= s - 2 * abs(c):
            r += 2 * abs(c)
        return (c, r, (r * r - D) // (4 * c))

    left, orbits = set(forms), 0
    while left:
        start = left.pop()
        orbits += 1
        form = rho(start)
        while form != start:
            left.remove(form)
            form = rho(form)
    return orbits


def primes_above(K, qs):
    out = []
    for q in qs:
        try:
            out += factor_rational_prime(K, q)
        except IndexDivisor:
            pass
    return out


class TestWalkMatchesReferences:
    def test_generators_of_prime_powers(self):
        # squarefree |d| < 150, the primes above q <= 11, k <= 4
        nones = 0
        for d in SQUAREFREE:
            if abs(d) >= 150:
                continue
            K = make_field(quadratic_poly(d))
            for P in primes_above(K, (2, 3, 5, 7, 11)):
                for k in range(1, 5):
                    want = scan_principal_generator(K, {P: k})
                    assert principal_generator(K, {P: k}) == want, (d, P, k)
                    nones += want is None
        assert nones > 1000

    @pytest.mark.parametrize("poly", [None, "x^2 - 12", "x^2 - 45",
                                      "x^2 - 18"])
    def test_generators_of_products(self, poly):
        # P^k Q over the primes above q <= 7: over |d| < 120, and over three
        # polynomials whose order is not maximal
        fields = ([make_field(quadratic_poly(d)) for d in SQUAREFREE
                   if abs(d) < 120] if poly is None else [make_field(poly)])
        for K in fields:
            ps = primes_above(K, (2, 3, 5, 7))
            for i, P in enumerate(ps):
                for Q in ps[i:]:
                    for k in (1, 2):
                        profile = {P: k}
                        profile[Q] = profile.get(Q, 0) + 1
                        assert (principal_generator(K, profile)
                                == scan_principal_generator(K, profile))

    def test_forms_and_class_numbers(self):
        for d in SQUAREFREE:
            D = _quadratic(make_field(quadratic_poly(d)))[3]
            forms = _reduced_forms(D)
            if d < 0:
                assert len(forms) == loop_definite_class_number(D), d
            else:
                assert forms == trial_reduced_indefinite_forms(D), d
                assert _cycle_count(forms, D) == orbit_count(forms, D), d


def shell_by_filter(dim, h):
    """The box [-h, h]^dim filtered to max coordinate magnitude h: the
    reference _shell must reproduce, tuple for tuple and in order."""
    return [t for t in product(range(-h, h + 1), repeat=dim)
            if max(map(abs, t)) == h]


class TestGeneratorSearch:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_shell_equals_the_filtered_box(self, dim):
        for h in range(6):
            assert _shell(dim, h) == shell_by_filter(dim, h)

    def test_shell_covers_every_coordinate_in_degree_four(self):
        shell = _shell(4, 1)
        assert len(shell) == 3 ** 4 - 1
        assert all(len(t) == 4 for t in shell)
        assert shell == sorted(shell)

    def test_quartic_generator_uses_the_theta_cubed_coordinate(
            self, monkeypatch):
        K = make_field("x^4 + x + 1")
        P = next(p for p in factor_rational_prime(K, 3) if p.f == 3)
        assert P.gen_coeffs == (2, 1, 1, 1)
        gen = _find_generator(K, {P: 1})
        assert gen == K.element([-1, 1, 1, 1])
        assert gen.norm() == 27 and valuation(gen, P) == 1
        # shells 0 and 1 hold it
        monkeypatch.setattr(units, "SHELL_WALK_BUDGET", 3 ** 4)
        assert _find_generator(K, {P: 1}) == gen

    def test_quartic_search_stops_at_the_candidate_cap(self, monkeypatch):
        # norm 27^5 needs coordinates far beyond 3, so the search cannot
        # succeed early; shells 0..2 hold 5^4 = 625 candidates, and a
        # budget of 1000 stops the walk inside shell 3
        K = make_field("x^4 + x + 1")
        P = next(p for p in factor_rational_prime(K, 3) if p.f == 3)
        for budget in (5 ** 4, 1000):
            monkeypatch.setattr(units, "SHELL_WALK_BUDGET", budget)
            assert _find_generator(K, {P: 5}) is None
        assert reference_generator(K, {P: 5}, 2) is None


class TestShellWalkBudget:
    # theta and theta^2 are the only units of the walk up to height 29, and
    # they are dependent; the whole budget passes without a pair
    HOPELESS = "x^3-40*x-1"

    def test_budget_is_the_degree_three_box_at_64(self):
        assert units.SHELL_WALK_BUDGET == (2 * 64 + 1) ** 3

    def test_the_unit_walk_gives_up(self, monkeypatch, capsys):
        monkeypatch.setattr(units, "SHELL_WALK_BUDGET", 10 ** 4)
        K = make_field(self.HOPELESS)
        for _ in range(2):
            with pytest.raises(SearchExhausted, match="SHELL_WALK_BUDGET"):
                unit_generators(K)
        assert run(["--output", "json", "sunit", self.HOPELESS, "--bound",
                    "1", "--user-class-number", "1"]) == 1
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert error["type"] == "BasisUnavailable"
        assert "SHELL_WALK_BUDGET = 10000" in error["message"]
        assert run(["--output", "json", "frey", "2r", self.HOPELESS, "--a",
                    "1", "--b", "1", "--c", "1", "--r", "1", "--p", "5",
                    "--user-class-number", "1"]) == 0
        caveats = json.loads(capsys.readouterr().out)["caveats"]
        assert any(c.startswith("conductor shape unavailable: no independent "
                                "unit pair") for c in caveats), caveats

    @pytest.mark.parametrize("criterion", ["thm-3-2", "thm-5-2"])
    def test_sunit_criteria_end_in_basis_unavailable(self, criterion,
                                                     monkeypatch, capsys):
        # thm-5-2 first asks class_data for h+; its exhausted walk leaves
        # that hypothesis assumed, and the search over K then fails on the
        # stored error without walking again
        monkeypatch.setattr(units, "SHELL_WALK_BUDGET", 10 ** 4)
        calls = count_calls(monkeypatch, units, "_cubic_fundamental_pair")
        assert run(["--output", "json", "check", criterion, self.HOPELESS,
                    "--bound", "1", "--user-class-number", "1"]) == 1
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert error["type"] == "BasisUnavailable"
        assert "SHELL_WALK_BUDGET = 10000" in error["message"]
        assert len(calls) == 1


def reference_generator(field, profile, gen_bound):
    """_find_generator as a FieldElement walk over the box of coordinate
    magnitude gen_bound, shell by shell, the norm of each candidate from
    its multiplication matrix."""
    target = 1
    for P, v in profile.items():
        target *= P.norm() ** v
    for h in range(gen_bound + 1):
        for coords in _shell(field.degree, h):
            x = FieldElement(field, coords)
            if x.is_zero() or abs(linalg.det(x.num_matrix())) != target:
                continue
            if all(valuation(x, P) >= v for P, v in profile.items()):
                return x
    return None


class TestGeneratorMatchesReference:
    """The integer norm test of _find_generator, with a budget of the box
    of coordinate magnitude b, picks the generator the FieldElement walk
    over that box picks, or fails where it fails."""

    @pytest.mark.parametrize("poly", [
        "x^2 - 2", "x^2 - x - 4", "x^2 + 5", "x^2 - 10",
        "x^3 - x^2 - 2*x + 1", "x^3 - 2", "x^3 - 3*x - 1", "x^4 + x + 1"])
    def test_prime_powers_above_small_primes(self, poly, monkeypatch):
        K = make_field(poly)
        bound = 6 if K.degree < 4 else 3
        monkeypatch.setattr(units, "SHELL_WALK_BUDGET",
                            (2 * bound + 1) ** K.degree)
        for q in (2, 3, 5, 7):
            for P in factor_rational_prime(K, q):
                for k in (1, 2):
                    assert (_find_generator(K, {P: k})
                            == reference_generator(K, {P: k}, bound))

