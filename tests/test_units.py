"""Unit groups, class numbers, representatives and normalization."""

import math
from itertools import product

import pytest

from afcheck import make_field, units
from afcheck.errors import (GeneratorNotFound, MissingUserClassNumber,
                            Unsupported, ZeroElement)
from afcheck.prime_ideals import valuation, factor_rational_prime
from afcheck.units import (class_data, fundamental_units, normalize_solution,
                           unit_generators, _find_generator,
                           _quad_fundamental_unit, _shell)


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
        g = fundamental_units(make_field("x"))
        assert g.rank == 0 and g.torsion_order == 2
        assert g.fundamental_units == []

    def test_sqrt2(self):
        K = make_field("x^2 - 2")
        g = fundamental_units(K)
        assert g.fundamental_units == [1 + K.theta()]
        assert g.fundamental_units[0].norm() == -1
        assert g.completeness == ("proven",)

    def test_sqrt3(self):
        K = make_field("x^2 - 3")
        g = fundamental_units(K)
        assert g.fundamental_units == [2 + K.theta()]
        assert g.fundamental_units[0].norm() == 1

    def test_golden_ratio_unit(self):
        # O_K of Q(sqrt5) has fundamental unit (1+sqrt5)/2
        assert _quad_fundamental_unit(5) == (1, 1, 2, -1)

    @pytest.mark.parametrize("d", [2, 3, 7, 10, 11, 13])
    def test_minimality_by_exhaustion(self, d):
        """No unit strictly between 1 and the reported fundamental unit."""
        x, y, den, norm = _quad_fundamental_unit(d)
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
        g = fundamental_units(K)
        assert g.rank == 2 and len(g.fundamental_units) == 2
        for u in g.fundamental_units:
            assert abs(u.norm()) == 1
        assert g.completeness[0] == "bounded-search"
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

    def test_totally_real_required(self):
        from afcheck.errors import NotTotallyReal
        with pytest.raises(NotTotallyReal):
            fundamental_units(make_field("x^2 + 1"))

    def test_imaginary_torsion_internal(self):
        gi = unit_generators(make_field("x^2 + 1"))
        assert gi.rank == 0 and gi.torsion_order == 4
        assert gi.torsion_gen ** 4 == 1 and gi.torsion_gen ** 2 == -1
        g3 = unit_generators(make_field("x^2 + 3"))
        assert g3.torsion_order == 6 and g3.torsion_gen ** 6 == 1


class TestClassData:
    def test_rationals(self):
        cd = class_data(make_field("x"))
        assert (cd.h, cd.h_plus) == (1, 1)
        assert [p.q for p in cd.reps_H] == [3]

    def test_sqrt2_rep_is_root3_above_7(self):
        cd = class_data(make_field("x^2 - 2"))
        assert (cd.h, cd.h_plus) == (1, 1)
        rep = cd.reps_H[0]
        assert (rep.q, rep.residue_root()) == (7, 3)

    def test_sqrt3_narrow_class(self):
        cd = class_data(make_field("x^2 - 3"))
        assert (cd.h, cd.h_plus) == (1, 2)

    @pytest.mark.parametrize("d,h", [(2, 1), (3, 1), (7, 1), (10, 2), (-1, 1),
                                     (-2, 1), (-3, 1), (-5, 2)])
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
            norm = _quad_fundamental_unit(d)[3]
            assert (cd.h_plus == cd.h) == (norm == -1)

    def test_sqrt10_nonprincipal_rep(self):
        # class 2 field: two reps in distinct classes, both odd
        cd = class_data(make_field("x^2 - 10"))
        assert cd.h == 2 and len(cd.reps_H) == 2
        assert all(p.q % 2 == 1 for p in cd.reps_H)
        norms = [p.norm() for p in cd.reps_H]
        assert norms == sorted(norms)

    def test_cubic_needs_user_h(self):
        K = make_field("x^3 - x^2 - 2*x + 1")
        with pytest.raises(MissingUserClassNumber):
            class_data(K)
        cd = class_data(K, user_class_number=1)
        assert cd.h == 1 and cd.completeness == ("user-supplied",)
        assert cd.h_plus in (1, 2, 4, 8)
        assert cd.reps_H[0].q == 7  # ramified prime of norm 7 beats inert 3


class TestNormalize:
    def test_spec_examples_over_q(self):
        Q = make_field("x")
        ns = normalize_solution(Q, 2, 2, 2)
        assert (ns.a, ns.b, ns.c) == (3, 3, 3)
        assert ns.rep.q == 3 and ns.xi == Fraction_(3, 2)
        ns2 = normalize_solution(Q, 3, 5, 7)
        assert (ns2.a, ns2.b, ns2.c) == (9, 15, 21)

    def test_zero_triple_rejected(self):
        Q = make_field("x")
        with pytest.raises(ZeroElement):
            normalize_solution(Q, 0, 0, 0)

    def test_trivial_ideal_switch(self):
        Q = make_field("x")
        ns = normalize_solution(Q, 2, 2, 2, allow_trivial_ideal=True)
        assert ns.rep is None
        assert (ns.a, ns.b, ns.c) == (1, 1, 1)

    def test_class_number_one_required(self):
        K = make_field("x^2 - 10")
        with pytest.raises(Unsupported):
            normalize_solution(K, K.from_rational(2), K.one(), K.one())

    def test_gcd_invariants_sqrt2(self):
        """Lemma-style postconditions: outputs integral, min valuation 0 away
        from the representative and exactly 1 at it."""
        K = make_field("x^2 - 2")
        s = K.theta()
        ns = normalize_solution(K, K.from_rational(2), 2 + 2 * s, K.from_rational(4))
        triple = [ns.a, ns.b, ns.c]
        for t in triple:
            assert t.is_algebraic_integer()
        rep = ns.rep
        seen = {rep.q, 2, 3, 5}
        for q in sorted(seen):
            for P in factor_rational_prime(K, q):
                vals = [valuation(t, P) for t in triple if not t.is_zero()]
                if P == rep:
                    assert min(vals) == 1
                else:
                    assert min(vals) == 0


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

    def test_quartic_generator_uses_the_theta_cubed_coordinate(self):
        K = make_field("x^4 + x + 1")
        P = next(p for p in factor_rational_prime(K, 3) if p.f == 3)
        assert P.gen_coeffs == (2, 1, 1, 1)
        gen = _find_generator(K, {P: 1}, 1)
        assert gen == K.element([-1, 1, 1, 1])
        assert gen.norm() == 27 and valuation(gen, P) == 1
        assert _find_generator(K, {P: 1}, 64) == gen

    def test_quartic_search_stops_at_the_candidate_cap(self, monkeypatch):
        # norm 27^5 needs coordinates far beyond 3, so the search cannot
        # succeed early; uncapped, bound 64 means 129^4 candidates
        K = make_field("x^4 + x + 1")
        P = next(p for p in factor_rational_prime(K, 3) if p.f == 3)
        monkeypatch.setattr(units, "GENERATOR_SEARCH_LIMIT", 1000)
        with pytest.raises(GeneratorNotFound) as exc:
            _find_generator(K, {P: 5}, 64)
        # shells 0..2 hold 5^4 = 625 candidates, shell 3 passes 1000
        assert exc.value.bound == 2


def Fraction_(a, b):
    from fractions import Fraction
    return Fraction(a, b)
