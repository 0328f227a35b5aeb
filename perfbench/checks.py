"""Correctness checks of every afcheck output, independent of afcheck.

``check(workload, requests, results)`` returns one failure reason per request,
``None`` when its outcome is correct.  An expected exit 1 on bad input
(``Reducible``, ``IndexDivisor`` where q^2 divides the discriminant) is not
a failure.  sympy is the oracle; it is imported only here, after the timed
passes.
"""

import json
from fractions import Fraction
from functools import reduce
from math import gcd

import sympy

import workloads as wl

_X = sympy.Symbol("x")


def check(workload, requests, results):
    checker = {"sunit-box": _check_sunit, "criteria-suite": _check_criterion,
               "field-sweep": _FieldSweep().check}[workload]
    reasons = []
    for request, (code, text) in zip(requests, results):
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            reasons.append(f"exit {code}, output is not JSON")
            continue
        reasons.append(checker(request, code, report["result"],
                               report["field"]))
    return reasons


def _error(result):
    return result.get("error", {}).get("type")


# -------------------------------------------------------------- sunit-box

def _check_sunit(request, code, result, summary):
    if code != 0:
        return f"exit {code} ({_error(result)}), expected 0"
    _, expected = wl.SUNIT_BOX[request.poly]
    solutions = result["solutions"]
    if len(solutions) != expected:
        return f"{len(solutions)} solutions, recorded {expected}"
    f = sympy.Poly(summary["poly"][::-1], _X)
    for sol in solutions:
        lam = [Fraction(c) for c in sol["lambda"]]
        mu = [Fraction(c) for c in sol["mu"]]
        if [a + b for a, b in zip(lam, mu)] != [1] + [0] * (len(lam) - 1):
            return f"lambda + mu != 1 for lambda = {sol['lambda']}"
        for elem in (lam, mu):
            if not _two_unit(f, elem):
                return f"{elem} is not an S-unit for S above 2"
    return None


def _two_unit(f, coords):
    """Denominator and N(den * x) supported on 2, the norm as a resultant."""
    den = reduce(lambda a, b: a * b // gcd(a, b),
                 (c.denominator for c in coords), 1)
    g = sympy.Poly([int(c * den) for c in reversed(coords)], _X)
    norm = abs(int(sympy.resultant(f, g)))
    return _power_of_two(den) and norm != 0 and _power_of_two(norm)


def _power_of_two(n):
    return n & (n - 1) == 0


# --------------------------------------------------------- criteria-suite

def _check_criterion(request, code, result, summary):
    _, theorem, poly = request.argv[:3]
    accepted = wl.CRITERIA_EXPECT[(theorem, poly)]
    outcome = (code, result.get("applies", _error(result)))
    if outcome not in accepted:
        return f"outcome {outcome}, expected one of {sorted(accepted)}"
    return None


# ------------------------------------------------------------ field-sweep

class _FieldSweep:
    """sympy facts about each field, computed once per defining polynomial."""

    def __init__(self):
        self._facts = {}

    def facts(self, coeffs):
        if coeffs not in self._facts:
            f = sympy.Poly(coeffs[::-1], _X)
            _, factors = f.factor_list()
            n = len(coeffs) - 1
            disc = int(sympy.discriminant(f))
            self._facts[coeffs] = {
                "n": n,
                "irreducible": len(factors) == 1 and factors[0][1] == 1,
                "disc": disc,
                "r1": f.count_roots() if n else 0,
                "f": f,
            }
        return self._facts[coeffs]

    def pattern(self, coeffs, q):
        """Sorted (e, f) pairs of f mod q, as lists like afcheck's JSON."""
        key = ("pattern", q)
        facts = self.facts(coeffs)
        if key not in facts:
            fq = sympy.Poly(facts["f"].all_coeffs(), _X, modulus=q)
            _, factors = fq.factor_list()
            facts[key] = sorted([e, g.degree()] for g, e in factors)
        return facts[key]

    def check(self, request, code, result, summary):
        facts = self.facts(request.coeffs)
        error = _error(result)
        if not facts["irreducible"] or error == "Reducible":
            if facts["irreducible"]:
                return "Reducible on an irreducible polynomial"
            if (code, error) != (1, "Reducible"):
                return f"exit {code} ({error}) on a reducible polynomial"
            return None
        if error is not None:
            return self._check_error(request, code, result, facts)
        n, r1 = facts["n"], facts["r1"]
        expect = {"poly": list(request.coeffs), "degree": n,
                  "signature": [r1, (n - r1) // 2], "poly_disc": facts["disc"]}
        got = {k: summary[k] for k in expect}
        got["poly_disc"] = int(got["poly_disc"])
        if got != expect:
            return f"field summary {got} != sympy {expect}"
        kind = "-".join(request.argv[:2]) if request.argv[0] == "check" \
            else request.argv[0]
        return getattr(self, "_" + kind.replace("-", "_"))(
            request, code, result, facts)

    def _check_error(self, request, code, result, facts):
        error = _error(result)
        if code != 1:
            return f"error {error} with exit {code}"
        if error == "IndexDivisor":
            q = result["error"]["q"]
            if facts["disc"] % (q * q):
                return f"IndexDivisor at {q}, but {q}^2 does not divide disc"
            return None
        return f"unexpected error {error}"

    def _field(self, request, code, result, facts):
        if code != 0:
            return f"exit {code}"
        for q in (2, 3):
            got = sorted(result[f"splitting_{q}"]["pattern"])
            if got != self.pattern(request.coeffs, q):
                return (f"splitting_{q} {got} != sympy "
                        f"{self.pattern(request.coeffs, q)}")
        return None

    def _verdict(self, code, result, holds):
        expected = (0, "yes") if holds else (2, "no")
        if (code, result["applies"]) != expected:
            return f"verdict {(code, result['applies'])}, sympy says {expected}"
        return None

    def _check_cor_7_2(self, request, code, result, facts):
        n, c = facts["n"], request.coeffs
        holds = (facts["r1"] == n and n % 2 == 1 and n % 3 != 0
                 and self.pattern(c, 2) == [[1, n]]
                 and self.pattern(c, 3) == [[1, 1]] * n)
        return self._verdict(code, result, holds)

    def _check_thm_7_3(self, request, code, result, facts):
        n = facts["n"]
        holds = (facts["r1"] == n and n % 2 == 1
                 and self.pattern(request.coeffs, 3) == [[1, 1]] * n)
        return self._verdict(code, result, holds)

    def _check_thm_7_1(self, request, code, result, facts):
        n, c, ell = facts["n"], request.coeffs, wl.THM_7_1_L
        holds = (facts["r1"] == n and gcd(n, ell - 1) == 1
                 and self.pattern(c, ell) == [[n, 1]]
                 and self.pattern(c, 2) == [[1, n]])
        return self._verdict(code, result, holds)

    def _scan(self, request, code, result, facts):
        if code != 0:
            return f"exit {code}"
        disc = facts["disc"]
        expected = [ell for ell in sympy.primefactors(disc)
                    if 5 < ell <= wl.SCAN_L_MAX]
        entries = result["candidates"]
        if [e["l"] for e in entries] != expected:
            return f"scan candidates {[e['l'] for e in entries]} != {expected}"
        for entry in entries:
            ell = entry["l"]
            if "skipped" in entry:
                if disc % (ell * ell):
                    return f"scan skipped {ell}, but {ell}^2 does not divide disc"
            elif entry["totally_ramified"] != (
                    self.pattern(request.coeffs, ell) == [[facts["n"], 1]]):
                return f"scan: wrong ramification at {ell}"
        return None

    def _frey(self, request, code, result, facts):
        if code != 0:
            return f"exit {code}"
        if not (result["invariants"]["forms_agree"] and result["cross_check"]):
            return "Frey invariants disagree between the two forms"
        if "--prime" in request.argv:
            primes = len(self.pattern(request.coeffs, 2))
            if len(result["reduction_reports"]) != primes:
                return (f"{len(result['reduction_reports'])} reduction reports, "
                        f"{primes} primes above 2")
        return None
