"""Verdict machinery: quantifier soundness, witnesses, local criteria."""

from fractions import Fraction

import pytest

from afcheck import make_field
from afcheck.criteria import (HypothesisStatus, Verdict, check_cor_3_4,
                              check_cor_7_2, check_thm_3_2, check_thm_3_3,
                              check_thm_5_2, check_thm_7_1, check_thm_7_3_1,
                              check_thm_7_3_2, scan_ramified_l)
from afcheck.errors import SearchExhausted
from afcheck.prime_ideals import (factor_rational_prime, s_k,
                                  splitting_type, valuation)
from afcheck.sunits import SUnitSearch, SUnitSolution


Q = make_field("x")
K2 = make_field("x^2 - 2")
CUBIC = make_field("x^3 - x^2 + 1")


class TestVerdictFromStatuses:
    def verdict(self, *hyps):
        return Verdict("thm-3-2", list(hyps), ["from the checker"])

    def test_yes_needs_every_hypothesis_proven(self):
        v = self.verdict(HypothesisStatus("a", True),
                         HypothesisStatus("b", True, status=("proven",)))
        assert (v.applies, v.caveats) == ("yes", [])
        assert v.to_dict()["hypotheses"] == [{"name": "a", "holds": True},
                                             {"name": "b", "holds": True}]

    @pytest.mark.parametrize("status, caveat", [
        (("bounded-search", 4), "b: bounded-search=4"),
        (("user-supplied",), "b: user-supplied"),
        (("assumed", "no unit group"), "b: assumed=no unit group"),
    ])
    def test_one_caveat_per_unproven_hypothesis(self, status, caveat):
        v = self.verdict(HypothesisStatus("a", True),
                         HypothesisStatus("b", True, status=status))
        assert (v.applies, v.caveats) == ("unknown", [caveat])
        assert v.to_dict()["hypotheses"][1]["status"] == list(status)

    def test_a_failure_is_no_whatever_the_status(self):
        v = self.verdict(HypothesisStatus("a", False, status=("user-supplied",),
                                          note="computed h+ = 2"),
                         HypothesisStatus("b", True, status=("assumed", "x")))
        assert v.applies == "no"
        assert v.caveats == ["a: user-supplied", "b: assumed=x"]
        assert v.notes == ["from the checker", "computed h+ = 2"]


class TestThm32:
    def test_rationals_bounded_confirm(self):
        v = check_thm_3_2(Q, 8)
        assert v.applies == "unknown"
        assert any("bounded-search" in c for c in v.caveats)
        cond = v.hypotheses[-1]
        assert cond.holds
        assert len(cond.witness) == 3  # one witness per solution
        for w in cond.witness:
            assert w["t"] == 1 and w["bound"] == 4

    def test_witnesses_revalidate(self):
        v = check_thm_3_2(Q, 8)
        P = s_k(Q)[0]
        for w in v.hypotheses[-1].witness:
            lam = Q.element([Fraction(c) for c in w["lambda"]])
            mu = Q.element([Fraction(c) for c in w["mu"]])
            assert lam + mu == 1
            assert max(abs(valuation(lam, P)), abs(valuation(mu, P))) <= 4 * P.e

    def test_vacuous_bound_zero(self):
        v = check_thm_3_2(Q, 0)
        assert v.applies == "unknown"
        assert any("vacuous" in n for n in v.notes)

    def test_injected_counterexample(self, monkeypatch):
        """A synthetic solution violating the bound at every prime over 2."""
        P = s_k(Q)[0]
        lam = Q.from_rational(Fraction(32))       # v = 5 > 4
        mu = Q.from_rational(Fraction(-31))
        fake = SUnitSolution(lam, mu, {P: (5, 0)}, True)
        fake2 = SUnitSolution(mu, lam, {P: (0, 5)}, False)
        search = SUnitSearch(8, [fake, fake2])
        import afcheck.criteria as crit
        monkeypatch.setattr(crit, "solve_sunit",
                            lambda *a, **k: search)
        v = check_thm_3_2(Q, 8)
        assert v.applies == "no"
        counter = v.hypotheses[-1].witness
        assert counter["lambda"] == ["32"]

    def test_never_yes(self):
        for bound in (0, 2, 5, 8):
            assert check_thm_3_2(Q, bound).applies in ("no", "unknown")


class TestThm33Cor34:
    def test_rationals(self):
        v = check_thm_3_3(Q, 8)
        assert v.applies == "unknown"
        # degree 1 is odd: no modularity assumption needed
        assert not any(h.status[0] == "assumed" for h in v.hypotheses)

    def test_even_degree_surfaces_assumption(self):
        v = check_thm_3_3(K2, 8)
        lift = next(h for h in v.hypotheses if h.status[0] == "assumed")
        assert lift.holds and lift.note is None
        assert "assumed-if-needed" in lift.status[1]
        assert any("assumed-if-needed" in c for c in v.caveats)

    def test_sqrt2_counterexample_is_real(self):
        # (sqrt2, 1 - sqrt2) violates v(lambda*mu) = v(2) mod 3 at the only
        # prime of U_K, so the engine must refute
        v = check_thm_3_3(K2, 8)
        assert v.applies == "no"
        counter = v.hypotheses[-1].witness
        lam = K2.element([Fraction(c) for c in counter["lambda"]])
        mu = K2.element([Fraction(c) for c in counter["mu"]])
        P = s_k(K2)[0]
        vl, vm = valuation(lam, P), valuation(mu, P)
        assert (vl + vm - P.e) % 3 != 0 or max(abs(vl), abs(vm)) > 4 * P.e

    def test_cor_34_rationals(self):
        v = check_cor_3_4(Q, 8)
        assert v.applies == "unknown"
        cond = next(h for h in v.hypotheses if "= v(2) exactly" in h.name)
        assert cond.holds
        for w in cond.witness:
            assert w["t"] == 1  # max equals v(2) = 1 on every witness
        derived = next(h for h in v.hypotheses if "mod 3" in h.name)
        assert derived.holds

    def test_monotone_no_stays_no(self):
        assert check_thm_3_3(K2, 4).applies == "no"
        assert check_thm_3_3(K2, 8).applies == "no"


class TestThm52:
    def test_rationals_pipeline(self):
        v = check_thm_5_2(Q, 6)
        assert v.applies == "unknown"
        narrow = next(h for h in v.hypotheses if "narrow" in h.name)
        assert narrow.holds and narrow.witness == {"h": 1, "h_plus": 1}
        ext_hyps = [h for h in v.hypotheses if "S_L" in h.name]
        assert len(ext_hyps) == 3
        polys = {tuple(h.witness["extension_poly"]) for h in ext_hyps}
        assert polys == {(1, 0, 1), (-2, 0, 1), (2, 0, 1)}
        for h in ext_hyps:
            assert h.holds and h.witness["witnesses"]

    def test_narrow_class_failure(self):
        v = check_thm_5_2(make_field("x^2 - 3"), 3)
        assert v.applies == "no"
        narrow = next(h for h in v.hypotheses if "narrow" in h.name)
        assert not narrow.holds and narrow.witness["h_plus"] == 2
        assert narrow.status == ("proven",)

    def test_narrow_class_status_of_a_cubic_is_user_supplied(self):
        v = check_thm_5_2(make_field("x^3 - 4*x + 1", user_class_number=1), 1)
        assert v.applies == "no"
        narrow = next(h for h in v.hypotheses if "narrow" in h.name)
        assert not narrow.holds and narrow.status == ("user-supplied",)
        assert "narrow class number equals 1: user-supplied" in v.caveats

    def test_class_data_error_is_assumed(self, monkeypatch):
        import afcheck.criteria as crit

        def exhausted(field):
            raise SearchExhausted("walk gave up")

        monkeypatch.setattr(crit, "class_data", exhausted)
        v = check_thm_5_2(Q, 2)
        narrow = next(h for h in v.hypotheses if "narrow" in h.name)
        assert narrow.holds and narrow.status == ("assumed", "walk gave up")
        assert narrow.note is None and v.applies == "unknown"
        assert "narrow class number equals 1: assumed=walk gave up" in v.caveats

    def test_vacuous_bound_zero(self):
        v = check_thm_5_2(Q, 0)
        assert v.applies == "unknown"

    def test_user_class_number_reaches_base_search(self):
        # the cubic's class data needs the supplied class number; the S_K
        # search over K must read it off K instead of raising
        # BasisUnavailable
        K = make_field("x^3 - x^2 - 2*x + 1", user_class_number=1)
        v = check_thm_5_2(K, 3)
        assert v.applies == "unknown"
        base = next(h for h in v.hypotheses if "over the base field" in h.name)
        assert base.holds and base.status == ("bounded-search", 3)
        assert base.witness

    def test_caveats_name_assumptions(self):
        # the assumptions over Q(sqrt 2) are an index divisor and unit groups
        # of quartic extensions, not the modularity lift
        v = check_thm_5_2(K2, 2)
        assumed = [h for h in v.hypotheses if h.status[0] == "assumed"]
        assert assumed
        assert not any("modularity" in c for c in v.caveats)
        for h in assumed:
            assert f"{h.name}: assumed={h.status[1]}" in v.caveats


class TestLocalCriteria:
    def test_cor_7_2_rationals(self):
        v = check_cor_7_2(Q)
        assert v.applies == "yes"
        assert v.caveats == []

    def test_double_entry_recompute(self):
        v = check_cor_7_2(Q)
        assert v.applies == "yes"
        st2 = splitting_type(Q, 2)
        st3 = splitting_type(Q, 3)
        assert st2["inert"] and st3["totally_split"]
        assert Q.degree % 2 == 1 and Q.degree % 3 != 0

    def test_thm_7_3_mode_2(self):
        assert check_thm_7_3_2(Q).applies == "yes"
        assert check_thm_7_3_1(Q, 7).theorem_id == "thm-7-3-1"

    def test_thm_7_1_disc23_cubic(self):
        v = check_thm_7_1(CUBIC, 23)
        assert v.applies == "no"
        by_name = {h.name: h for h in v.hypotheses}
        assert by_name["2 is inert"].holds
        assert not by_name["l is totally ramified"].holds
        assert by_name["l is totally ramified"].witness["pattern"] == [[2, 1], [1, 1]]
        assert not by_name["field is totally real"].holds
        assert any("signature (1, 1)" in n for n in v.notes)
        assert any("[(2, 1), (1, 1)]" in n for n in v.notes)

    def test_thm_7_1_good_field(self):
        # x^3 - 4x - 1: disc 229 (prime), totally real; 229 is ramified
        K = make_field("x^3 - 4*x - 1")
        v = check_thm_7_1(K, 229)
        by_name = {h.name: h for h in v.hypotheses}
        assert by_name["field is totally real"].holds
        # applies iff all local shapes line up; recompute directly either way
        st = splitting_type(K, 229)
        assert by_name["l is totally ramified"].holds == st["totally_ramified"]

    def test_small_l_rejected(self):
        v = check_thm_7_1(CUBIC, 5)
        assert not next(h for h in v.hypotheses if "larger than 5" in h.name).holds

    @pytest.mark.parametrize("ell", [-7, 0, 1, 4, 9])
    def test_non_prime_l_not_factored(self, ell):
        for v in (check_thm_7_1(K2, ell), check_thm_7_3_1(K2, ell)):
            assert v.applies == "no"
            ram = next(h for h in v.hypotheses if h.name == "l is totally ramified")
            assert not ram.holds and ram.witness is None
            assert ram.note == f"{ell} is not a prime; ramification not evaluated"
        with pytest.raises(ValueError):
            factor_rational_prime(K2, ell)


class TestScan:
    def test_disc23_cubic(self):
        entries = scan_ramified_l(CUBIC, 100)
        assert entries == [{"l": 23, "gcd_ok": True,
                            "totally_ramified": False,
                            "pattern": [[2, 1], [1, 1]]}]

    def test_small_disc_empty(self):
        assert scan_ramified_l(K2, 100) == []
        assert scan_ramified_l(Q, 100) == []

    def test_ramified_prime_found(self):
        K = make_field("x^3 - 4*x - 1")  # disc 229
        entries = scan_ramified_l(K, 300)
        assert [e["l"] for e in entries] == [229]
        assert entries[0]["gcd_ok"] == (1 == __import__("math").gcd(3, 228))
