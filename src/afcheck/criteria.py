"""Hypothesis checkers producing three-valued verdicts with witnesses.

Each hypothesis has a status, the provenance of its answer: ("proven",),
("bounded-search", B) when read off the S-unit box of bound B,
("user-supplied",) when read off the user's class number, or ("assumed",
reason).  A verdict is "no" if a hypothesis fails, "yes" if every one holds
and is proven, else "unknown", with a caveat per unproven hypothesis.  Every
hypothesis carries enough witness data to be recomputed independently.
CRITERIA lists every criterion once: its conclusion, the check options it
reads and its checker.
"""

from math import gcd

from .errors import (BasisUnavailable, FactorizationIncomplete, IndexDivisor,
                     MissingUserClassNumber, SearchExhausted, Unsupported)
from .integerfactor import SMALL_PRIMES, factorint, is_prime
from .numberfield import NumberField
from .prime_ideals import factor_rational_prime, s_k, splitting_type, u_k
from .sunits import quadratic_extension, selmer_group, solve_sunit
from .units import class_data

_ALL_SOLUTIONS = ("for r in {2, 3} and all sufficiently large prime exponents p, "
                  "x^p + y^p = 2^r z^p has no non-trivial solution over the field")
_ABC_OVER_2 = ("for all sufficiently large prime exponents p, "
               "x^p + y^p = 2^r z^p has no non-trivial solution in which "
               "every prime over 2 divides a*b*c")


class HypothesisStatus:
    """A checked hypothesis; the note explains a failure, so it is kept only
    when the hypothesis fails."""
    __slots__ = ("name", "holds", "witness", "status", "note")

    def __init__(self, name: str, holds: bool, witness: object = None,
                 status: tuple = ("proven",), note: str = None):
        self.name = name
        self.holds = holds
        self.witness = witness
        self.status = status
        self.note = None if holds else note

    @property
    def proven(self):
        return self.status[0] == "proven"

    def to_dict(self):
        out = {"name": self.name, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        if not self.proven:
            out["status"] = list(self.status)
        if self.note:
            out["note"] = self.note
        return out


class Verdict:
    """Read off its hypotheses; the notes are the checker's, then the note
    of each failing hypothesis."""
    __slots__ = ("theorem_id", "hypotheses", "notes")

    def __init__(self, theorem_id: str, hypotheses: list, notes: list = ()):
        self.theorem_id = theorem_id
        self.hypotheses = hypotheses
        self.notes = [*notes, *(h.note for h in hypotheses if h.note)]

    @property
    def applies(self):
        if not all(h.holds for h in self.hypotheses):
            return "no"
        return "yes" if all(h.proven for h in self.hypotheses) else "unknown"

    @property
    def caveats(self):
        return [f"{h.name}: " + "=".join(map(str, h.status))
                for h in self.hypotheses if not h.proven]

    def to_dict(self):
        return {"theorem": self.theorem_id, "applies": self.applies,
                "hypotheses": [h.to_dict() for h in self.hypotheses],
                "conclusion": CRITERIA[self.theorem_id].conclusion,
                "caveats": self.caveats, "notes": self.notes}


def _hyp_totally_real(field):
    return HypothesisStatus("field is totally real", field.is_totally_real,
                            {"signature": list(field.signature)},
                            note=f"computed signature {field.signature}")


def _hyp_odd_degree(field):
    n = field.degree
    return HypothesisStatus("degree is odd", n % 2 == 1, {"degree": n},
                            note=f"degree {n} is even")


def _hyp_shape(field, q, name, predicate):
    """q factors with the shape named by `predicate`, a key of
    splitting_type; the witness lists every prime over q."""
    st = splitting_type(field, q)
    wit = {**st, "pattern": [list(p) for p in st["pattern"]], "primes": []}
    for P in factor_rational_prime(field, q):
        entry = P.to_dict()
        if (root := P.residue_root()) is not None:
            entry["root"] = root
        wit["primes"].append(entry)
    return HypothesisStatus(name, st[predicate], wit, note=f"{q} factors "
                            f"with shape {list(st['pattern'])}")


_TWO_INERT = (2, "2 is inert", "inert")
_THREE_SPLIT = (3, "3 is totally split", "totally_split")


def _hyps_aux_prime(field, ell):
    """The conditions on the auxiliary prime l: l > 5 prime, gcd(n, l-1) = 1
    and l totally ramified.  A non-prime l is never factored."""
    n, g, prime = field.degree, gcd(field.degree, ell - 1), is_prime(ell)
    ramified = "l is totally ramified"
    return [
        HypothesisStatus("l is a prime larger than 5", prime and ell > 5,
                         {"l": ell}, note=f"l = {ell}"),
        HypothesisStatus("gcd(degree, l - 1) = 1", g == 1,
                         {"degree": n, "l": ell, "gcd": g},
                         note=f"gcd({n}, {ell - 1}) = {g}"),
        _hyp_shape(field, ell, ramified, "totally_ramified") if prime
        else HypothesisStatus(
            ramified, False,
            note=f"{ell} is not a prime; ramification not evaluated"),
    ]


# ----------------------------------------------------- S-unit based criteria

def _solution_witness(sol, prime, bound_val):
    return {**sol.pair_dict(),
            "prime": prime.to_dict() if prime is not None else None,
            "t": None if prime is None else max(abs(v) for v in sol.val_profile[prime]),
            "bound": bound_val}


def _within_4v2(sol, P):
    return max(abs(v) for v in sol.val_profile[P]) <= 4 * P.e


def _box_hypothesis(name, search, primes, predicate, bound, bound_desc=None):
    """Every solution in the box of exponent bound `bound` meets `predicate`
    at some prime of `primes`.  The witness is one entry per solution, or the
    first solution that fails; the status is the search's.  `bound_desc(P)`
    replaces `bound` in the entry of a solution that meets it at P."""
    witnesses = []
    for sol in search.solutions:
        hit = next((P for P in primes if predicate(sol, P)), None)
        if hit is None:
            return HypothesisStatus(name, False,
                                    _solution_witness(sol, None, bound),
                                    search.completeness)
        witnesses.append(_solution_witness(
            sol, hit, bound if bound_desc is None else bound_desc(hit)))
    return HypothesisStatus(name, True, witnesses, search.completeness)


def _empty_box_note(search, bound):
    if not search.solutions:
        return [f"no S-unit solutions found in the box (B={bound})"]
    return []


def check_thm_3_2(field: NumberField, bound: int) -> Verdict:
    """Every S_K-unit solution must satisfy max(|v(lam)|,|v(mu)|) <= 4 v(2)
    at some prime over 2; bounded box, so confirmation is always 'unknown'."""
    primes = s_k(field)
    search = solve_sunit(field, primes, bound)
    hyps = [_hyp_totally_real(field), _box_hypothesis(
        "every solution of lambda + mu = 1 in S_K-units meets "
        "max(|v(lambda)|, |v(mu)|) <= 4*v(2) at some prime over 2",
        search, primes, _within_4v2, bound, lambda P: 4 * P.e)]
    notes = [n + "; condition is vacuously satisfied there"
             for n in _empty_box_note(search, bound)]
    return Verdict("thm-3-2", hyps, notes)


def _hyp_lifting(field):
    if field.degree % 2 == 1:
        return HypothesisStatus("degree of the field is odd (lifting "
                                "hypothesis satisfied unconditionally)", True,
                                {"degree": field.degree})
    return HypothesisStatus(
        "modularity-lift statement for even-degree fields", True,
        status=("assumed", f"[K:Q] = {field.degree} is even; the "
                "Hilbert-newform lifting statement is assumed-if-needed"))


def check_thm_3_3(field: NumberField, bound: int) -> Verdict:
    """U_K version: the witness prime must also satisfy
    v(lambda*mu) = v(2) mod 3."""
    primes_u = u_k(field)
    search = solve_sunit(field, s_k(field), bound)

    def pred(sol, P):
        vl, vm = sol.val_profile[P]
        return _within_4v2(sol, P) and (vl + vm - P.e) % 3 == 0

    hyps = [_hyp_totally_real(field), _hyp_lifting(field), _box_hypothesis(
        "every solution of lambda + mu = 1 in S_K-units meets, at some prime "
        "over 2 with v(2) coprime to 3, max(|v|) <= 4*v(2) and "
        "v(lambda*mu) = v(2) (mod 3)", search, primes_u, pred, bound)]
    notes = [] if primes_u else ["U_K is empty: no prime over 2 has v(2) "
                                 "coprime to 3"]
    return Verdict("thm-3-3", hyps, notes + _empty_box_note(search, bound))


def check_cor_3_4(field: NumberField, bound: int) -> Verdict:
    """Single equality condition max(|v(lambda)|,|v(mu)|) = v(2) at a prime
    of U_K; the mod-3 congruence of the parent theorem is re-derived and
    re-checked on every witness."""
    primes_u = u_k(field)
    search = solve_sunit(field, s_k(field), bound)

    def pred(sol, P):
        return max(abs(v) for v in sol.val_profile[P]) == P.e

    derivation_ok = True
    for sol in search.solutions:
        for P in primes_u:
            vl, vm = sol.val_profile[P]
            t = max(abs(vl), abs(vm))
            if t > 0 and (vl + vm - t) % 3 != 0:
                derivation_ok = False
    hyps = [_hyp_totally_real(field), _hyp_lifting(field), _box_hypothesis(
        "every solution meets max(|v(lambda)|, |v(mu)|) = v(2) exactly at "
        "some prime over 2 with v(2) coprime to 3",
        search, primes_u, pred, bound),
        HypothesisStatus(
            "derived congruence v(lambda*mu) = t (mod 3) for t > 0",
            derivation_ok, status=search.completeness)]
    return Verdict("cor-3-4", hyps, _empty_box_note(search, bound))


def check_thm_5_2(field: NumberField, bound: int) -> Verdict:
    """Narrow class number one, the S_K condition on K, and the S_L condition
    on every quadratic extension K(sqrt(a)) over the 2-Selmer classes.  Each
    L is built without a class number: the user's is K's, on field."""
    hyps = [_hyp_totally_real(field)]
    narrow = "narrow class number equals 1"
    try:
        info = class_data(field)
        hyps.append(HypothesisStatus(narrow, info.h_plus == 1,
                                     {"h": info.h, "h_plus": info.h_plus},
                                     info.completeness,
                                     note=f"computed h+ = {info.h_plus}"))
    except (MissingUserClassNumber, Unsupported, SearchExhausted) as exc:
        hyps.append(HypothesisStatus(narrow, True,
                                     status=("assumed", str(exc))))

    primes = s_k(field)
    search = solve_sunit(field, primes, bound)
    hyps.append(_box_hypothesis(
        "every S_K-unit solution over the base field meets "
        "max(|v(lambda)|, |v(mu)|) <= 4*v(2) at some prime over 2",
        search, primes, _within_4v2, bound))

    selmer = selmer_group(field, primes)
    for rep in selmer.representatives:
        if rep == 1:
            continue
        label = "sqrt(" + repr(rep) + ")"
        try:
            ext = quadratic_extension(field, rep)
            ext_primes = s_k(ext)
            ext_search = solve_sunit(ext, ext_primes, bound)
        except (IndexDivisor, BasisUnavailable) as exc:
            note = (f"index divisor at {exc.q} while factoring 2 in the "
                    "extension; diagnostic: defining polynomial unusable"
                    if isinstance(exc, IndexDivisor)
                    else f"S-unit basis unavailable over the extension: {exc}")
            hyps.append(HypothesisStatus(
                f"S_L-unit condition over K({label})", True,
                status=("assumed", note)))
            continue
        hyp = _box_hypothesis(
            f"every S_L-unit solution over K({label}) meets "
            "max(|v(lambda)|, |v(mu)|) <= 4*v(2) at some prime of S_L",
            ext_search, ext_primes, _within_4v2, bound)
        hyp.witness = {"extension_poly": list(ext.coeffs),
                       "witnesses" if hyp.holds else "counterexample": hyp.witness}
        hyps.append(hyp)
    return Verdict("thm-5-2", hyps)


# ------------------------------------------------------------ local criteria

def check_thm_7_1(field: NumberField, ell: int) -> Verdict:
    """Purely local: gcd(n, l-1) = 1, l totally ramified, 2 inert."""
    hyps = [_hyp_totally_real(field), *_hyps_aux_prime(field, ell),
            _hyp_shape(field, *_TWO_INERT)]
    return Verdict("thm-7-1", hyps)


def check_cor_7_2(field: NumberField) -> Verdict:
    """Purely local: odd degree prime to 3, 2 inert, 3 totally split."""
    n = field.degree
    hyps = [_hyp_totally_real(field), _hyp_odd_degree(field),
            HypothesisStatus("3 does not divide the degree", n % 3 != 0,
                             {"degree": n}, note=f"3 divides degree {n}"),
            _hyp_shape(field, *_TWO_INERT), _hyp_shape(field, *_THREE_SPLIT)]
    return Verdict("cor-7-2", hyps)


def check_thm_7_3_1(field: NumberField, ell: int) -> Verdict:
    """W_K-restricted local criterion (1): l > 5 totally ramified with
    gcd(n, l-1) = 1."""
    return Verdict("thm-7-3-1", [_hyp_totally_real(field),
                                 *_hyps_aux_prime(field, ell)])


def check_thm_7_3_2(field: NumberField) -> Verdict:
    """W_K-restricted local criterion (2): odd degree with 3 totally
    split."""
    return Verdict("thm-7-3-2", [_hyp_totally_real(field),
                                 _hyp_odd_degree(field),
                                 _hyp_shape(field, *_THREE_SPLIT)])


# ------------------------------------------------------------ the criteria

class Criterion:
    __slots__ = ("conclusion", "reads", "check")

    def __init__(self, conclusion: str, reads: tuple, check: object):
        self.conclusion = conclusion
        self.reads = reads  # the check options read, in the checker's order
        self.check = check  # check(field, *values of those options) -> Verdict


_SUNIT_OPTIONS = ("bound", "user_class_number")
CRITERIA = {
    "thm-3-2": Criterion(_ABC_OVER_2, _SUNIT_OPTIONS, check_thm_3_2),
    "thm-3-3": Criterion(_ALL_SOLUTIONS, _SUNIT_OPTIONS, check_thm_3_3),
    "cor-3-4": Criterion(_ALL_SOLUTIONS, _SUNIT_OPTIONS, check_cor_3_4),
    "thm-5-2": Criterion(("for all sufficiently large prime exponents p, "
                          "x^p + y^p = z^2 has no non-trivial solution in "
                          "which every prime over 2 divides a*b"),
                         _SUNIT_OPTIONS, check_thm_5_2),
    "thm-7-1": Criterion(_ALL_SOLUTIONS, ("l",), check_thm_7_1),
    "cor-7-2": Criterion(_ALL_SOLUTIONS, (), check_cor_7_2),
    "thm-7-3-1": Criterion(_ABC_OVER_2, ("l",), check_thm_7_3_1),
    "thm-7-3-2": Criterion(_ABC_OVER_2, (), check_thm_7_3_2),
}


def scan_ramified_l(field: NumberField, l_max: int):
    """Candidate auxiliary primes l: only divisors of the polynomial
    discriminant can ramify.  Reports ramification shape and the gcd test.

    A discriminant that factorint cannot finish still yields every prime
    factor of the trial-division table, which is all the scan needs when
    l_max lies within the table; above it, FactorizationIncomplete
    propagates."""
    try:
        primes = factorint(field.poly_disc)
    except FactorizationIncomplete as exc:
        if l_max > SMALL_PRIMES[-1]:
            raise
        primes = exc.partial
    out = []
    for ell in sorted(primes):
        if ell <= 5 or ell > l_max:
            continue
        entry = {"l": ell, "gcd_ok": gcd(field.degree, ell - 1) == 1}
        try:
            st = splitting_type(field, ell)
            entry["totally_ramified"] = st["totally_ramified"]
            entry["pattern"] = [list(p) for p in st["pattern"]]
        except IndexDivisor:
            entry["skipped"] = f"index divisor at {ell}"
        out.append(entry)
    return out
