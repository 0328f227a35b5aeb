"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ACCEPTANCE line (PASS on success, FAIL before the
assertion error propagates).  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines; all tolerances are exact set/value equality and the stated
wallclock ceilings.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from afcheck import make_field
from afcheck.cli import run
from afcheck.criteria import (check_cor_3_4, check_cor_7_2, check_thm_3_2,
                              check_thm_5_2, check_thm_7_3_2)
from afcheck.frey import (FAMILY_SQUARE, FAMILY_TWO_POWER, FreySpec,
                          ValuationForm, concrete_cross_check, invariants,
                          weierstrass_invariants)
from afcheck.prime_ideals import s_k, valuation
from afcheck.sunits import is_square, selmer_group, solve_sunit

from test_ideals import expected_quad_split, observed_quad_split, quad_field
from test_sunits import oracle_gauss, oracle_q, oracle_sqrt2

Q = make_field("x")
K_SQRT2 = make_field("x^2 - 2")


@contextmanager
def criterion(num, desc, limit_s):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [{desc}]: FAIL")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num:02d} [{desc}]: PASS ({elapsed:.2f}s)")


def _family_a_fixtures():
    out = []
    for t in (1, 2, 3, -1, 5):
        for p in (2, 3, 5, 7):
            out.append((Q, FAMILY_TWO_POWER, (t, t, t), 1, p))
    for trip, r, p in [((2, 2, 1), 4, 3), ((4, 4, 2), 4, 3), ((2, 2, 1), 6, 5),
                       ((6, 8, 5), 2, 2), ((8, 6, 5), 2, 2), ((2, 2, 1), 3, 2),
                       ((1, 7, 5), 1, 2), ((7, 1, 5), 1, 2), ((2, 14, 10), 1, 2)]:
        out.append((Q, FAMILY_TWO_POWER, trip, r, p))
    s = K_SQRT2.theta()
    for t in (s, 1 + s, 3 + s):
        for p in (3, 5):
            out.append((K_SQRT2, FAMILY_TWO_POWER, (t, t, t), 1, p))
    return out


def _family_b_fixtures():
    out = []
    for trip, p in [((1, 2, 3), 3), ((2, 1, 3), 3), ((1, 2, -3), 3),
                    ((2, 2, 4), 3), ((8, 8, 32), 3), ((2, 2, 8), 5),
                    ((2, 2, 16), 7), ((3, 4, 5), 2), ((4, 3, 5), 2),
                    ((5, 12, 13), 2)]:
        out.append((Q, FAMILY_SQUARE, trip, None, p))
    s = K_SQRT2.theta()
    u = 1 + s
    for p in (3, 5, 7):
        out.append((K_SQRT2, FAMILY_SQUARE, (1, 1, s), None, p))
    out.append((K_SQRT2, FAMILY_SQUARE, (1, 1, -s), None, 3))
    out.append((K_SQRT2, FAMILY_SQUARE, (u * u, u * u, u ** 3 * s), None, 3))
    return out


def test_criterion_01_frey_invariant_oracle():
    with criterion(1, "Frey invariants match the literal Weierstrass oracle", 5):
        fixtures = _family_a_fixtures() + _family_b_fixtures()
        assert len(fixtures) >= 50
        for field, family, triple, r, p in fixtures:
            elems = [x if not isinstance(x, int) else field.from_rational(x)
                     for x in triple]
            spec = FreySpec(family, *elems, r=r, p=p)
            assert concrete_cross_check(spec, invariants(spec)), \
                (family, triple, r, p)
            # c4^3 - c6^2 = 1728*Delta is verified inside (raises on failure)
            weierstrass_invariants(spec)


def test_criterion_02_sunit_solver_vs_oracles():
    with criterion(2, "bounded S-unit search equals exhaustive oracles", 60):
        res_q = solve_sunit(Q, s_k(Q), 8)
        got_q = {(s.lam.coords[0], s.mu.coords[0]) for s in res_q.solutions}
        assert got_q == {(Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2)),
                         (Fraction(1, 2), Fraction(1, 2))}
        assert got_q == oracle_q(20)

        gauss = make_field("x^2 + 1")
        res_i = solve_sunit(gauss, s_k(gauss), 6)
        got_i = {(tuple(s.lam.coords), tuple(s.mu.coords)) for s in res_i.solutions}
        assert got_i == oracle_gauss(6)

        res_2 = solve_sunit(K_SQRT2, s_k(K_SQRT2), 6)
        got_2 = {(tuple(s.lam.coords), tuple(s.mu.coords)) for s in res_2.solutions}
        assert got_2 == oracle_sqrt2(6)


def test_criterion_03_splitting_vs_congruence_oracle():
    with criterion(3, "quadratic splitting matches Legendre/congruence rules", 5):
        for d in (2, 3, 5, 7, 11, 13, 17, 19):
            field = quad_field(d)
            for q in (2, 3, 5, 7, 11, 13):
                assert observed_quad_split(field, q) == expected_quad_split(d, q)


def test_criterion_04_cubic_example_audit(capsys):
    with criterion(4, "cubic example: 2 inert, 23 splits as [(2,1),(1,1)]", 1):
        code = run(["--output", "json", "check", "thm-7-1", "x^3-x^2+1",
                    "--l", "23"])
        out = capsys.readouterr().out
        assert code == 2
        report = json.loads(out)
        result = report["result"]
        assert result["applies"] == "no"
        by_name = {h["name"]: h for h in result["hypotheses"]}
        assert by_name["2 is inert"]["holds"] is True
        ram = by_name["l is totally ramified"]
        assert ram["holds"] is False
        assert ram["witness"]["pattern"] == [[2, 1], [1, 1]]
        assert [p.get("root") for p in ram["witness"]["primes"]] == [16, 15]
        assert any("[(2, 1), (1, 1)]" in n for n in result["notes"])


def test_criterion_05_degenerate_field_criteria():
    with criterion(5, "degree-one degenerate criteria and bounded confirms", 5):
        assert check_cor_7_2(Q).applies == "yes"
        assert check_thm_7_3_2(Q).applies == "yes"
        for verdict in (check_thm_3_2(Q, 8), check_cor_3_4(Q, 8)):
            assert verdict.applies == "unknown"
            assert any("bounded-search" in c for c in verdict.caveats)
            condition = verdict.hypotheses[-1] if verdict.theorem_id == "thm-3-2" \
                else next(h for h in verdict.hypotheses if "exactly" in h.name)
            assert condition.holds
            assert len(condition.witness) == 3
            for wit in condition.witness:
                assert wit["t"] == 1
                assert wit["prime"]["e"] == 1  # t = v(2) = 1 <= 4


def test_criterion_06_proof_chain_valuations():
    with criterion(6, "valuation case analysis, j bound, mod-3 congruence", 5):
        fields = [Q, make_field("x^2 + 1"), K_SQRT2]
        bounds = [8, 6, 6]
        for field, bound in zip(fields, bounds):
            S = s_k(field)
            for sol in solve_sunit(field, S, bound).solutions:
                # j of the Legendre curve, through lambda*mu for lambda + mu = 1
                prod = sol.lam * sol.mu
                j = (1 - prod) ** 3 * 256 / (prod * prod)
                for P in S:
                    vl, vm = sol.val_profile[P]
                    t = max(abs(vl), abs(vm))
                    if t > 0:
                        assert vl + vm in (-2 * t, t)
                    vj = valuation(j, P)
                    assert vj >= 8 * P.e - 2 * t
                    assert (vj - (8 * P.e - 2 * (vl + vm))) % 3 == 0


def test_criterion_08_valuation_form_semantics():
    with criterion(8, "symbolic divisibility/sign rules vs evaluation", 1):
        rng = random.Random(77)
        for _ in range(1000):
            form = ValuationForm(rng.randint(-50, 50), rng.randint(-8, 8))
            for p in (7, 11, 13, 10007):
                value = form.alpha + form.beta * p
                if p > abs(form.alpha):
                    assert (value % p == 0) == (form.alpha == 0)
                if p > form.threshold:
                    # past the threshold beta*p outweighs alpha
                    lead = form.beta or form.alpha
                    assert (value > 0) - (value < 0) == (lead > 0) - (lead < 0)


def test_criterion_09_selmer_groups():
    with criterion(9, "Selmer group values, closure, non-square ratios", 5):
        sg_q = selmer_group(Q, s_k(Q))
        assert {r.coords[0] for r in sg_q.representatives} == \
            {Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}
        sg_2 = selmer_group(K_SQRT2, s_k(K_SQRT2))
        reps = sg_2.representatives
        assert sg_2.basis_size == 3 and len(reps) == 8
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not is_square(a / b)
        for a in reps:
            for b in reps:
                assert sum(1 for r in reps if is_square(a * b / r)) == 1


def test_criterion_10_theorem_52_pipeline():
    with criterion(10, "full x^p + y^p = z^2 pipeline over the rationals", 60):
        verdict = check_thm_5_2(Q, 6)
        assert verdict.applies == "unknown"
        assert all(h.holds for h in verdict.hypotheses)
        narrow = next(h for h in verdict.hypotheses if "narrow" in h.name)
        assert narrow.witness == {"h": 1, "h_plus": 1}
        ext_hyps = [h for h in verdict.hypotheses if "S_L" in h.name]
        assert len(ext_hyps) == 3
        polys = {tuple(h.witness["extension_poly"]) for h in ext_hyps}
        assert polys == {(1, 0, 1), (-2, 0, 1), (2, 0, 1)}
        for h in ext_hyps:
            ext = make_field(list(h.witness["extension_poly"]))
            ext_primes = s_k(ext)
            assert ext_primes  # S_L computed in each extension
            assert h.witness["witnesses"], "every extension produced witnesses"
            for wit in h.witness["witnesses"]:
                lam = ext.element([Fraction(c) for c in wit["lambda"]])
                mu = ext.element([Fraction(c) for c in wit["mu"]])
                prime = next(P for P in ext_primes
                             if P.to_dict() == wit["prime"])
                assert lam + mu == 1
                assert max(abs(valuation(lam, prime)),
                           abs(valuation(mu, prime))) <= 4 * prime.e
