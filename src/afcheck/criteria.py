"""Hypothesis checkers producing three-valued verdicts with witnesses.

Local criteria (inertia/ramification shapes) are decidable and report yes or
no.  Criteria quantifying over all S-unit solutions can never be confirmed by
a bounded search, so they report either "no" with a counterexample or
"unknown" with bounded-search caveats; "yes" is structurally impossible for
them.  Every hypothesis carries enough witness data to be recomputed
independently.
"""

from dataclasses import dataclass, field as dc_field
from math import gcd

from .errors import (BasisUnavailable, IndexDivisor, MissingUserClassNumber,
                     Unsupported)
from .integerfactor import factorint, is_prime
from .numberfield import NumberField
from .prime_ideals import s_k, splitting_type, u_k
from .sunits import quadratic_extension, selmer_group, solve_sunit
from .units import class_data

CONCLUSIONS = {
    "thm-3-2": ("for all sufficiently large prime exponents p, "
                "x^p + y^p = 2^r z^p has no non-trivial solution in which "
                "every prime over 2 divides a*b*c"),
    "thm-3-3": ("for r in {2, 3} and all sufficiently large prime exponents p, "
                "x^p + y^p = 2^r z^p has no non-trivial solution over the field"),
    "cor-3-4": ("for r in {2, 3} and all sufficiently large prime exponents p, "
                "x^p + y^p = 2^r z^p has no non-trivial solution over the field"),
    "thm-5-2": ("for all sufficiently large prime exponents p, "
                "x^p + y^p = z^2 has no non-trivial solution in which "
                "every prime over 2 divides a*b"),
    "thm-7-1": ("for r in {2, 3} and all sufficiently large prime exponents p, "
                "x^p + y^p = 2^r z^p has no non-trivial solution over the field"),
    "cor-7-2": ("for r in {2, 3} and all sufficiently large prime exponents p, "
                "x^p + y^p = 2^r z^p has no non-trivial solution over the field"),
    "thm-7-3-1": ("for all sufficiently large prime exponents p, "
                  "x^p + y^p = 2^r z^p has no non-trivial solution in which "
                  "every prime over 2 divides a*b*c"),
    "thm-7-3-2": ("for all sufficiently large prime exponents p, "
                  "x^p + y^p = 2^r z^p has no non-trivial solution in which "
                  "every prime over 2 divides a*b*c"),
}


@dataclass
class HypothesisStatus:
    name: str
    holds: bool
    witness: object = None
    caveat: tuple = None
    assumed: bool = False
    note: str = None

    def to_dict(self):
        out = {"name": self.name, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.caveat is not None:
            out["caveat"] = list(self.caveat)
        if self.assumed:
            out["assumed"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Verdict:
    theorem_id: str
    field: NumberField
    applies: str                      # "yes" | "no" | "unknown"
    hypotheses: list
    conclusion_text: str
    r: int = None
    caveats: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    def to_dict(self):
        out = {"theorem": self.theorem_id, "applies": self.applies,
               "hypotheses": [h.to_dict() for h in self.hypotheses],
               "conclusion": self.conclusion_text,
               "caveats": self.caveats, "notes": self.notes}
        if self.r is not None:
            out["r"] = self.r
        return out


def _hyp_totally_real(field):
    return HypothesisStatus(
        "field is totally real", field.is_totally_real,
        witness={"signature": list(field.signature)},
        note=None if field.is_totally_real
        else f"computed signature {field.signature}")


def _finalize(theorem_id, field, hypotheses, *, r=None, bounded=False,
              bound=None, notes=None, diagnostics_unknown=False):
    notes = notes or []
    for h in hypotheses:
        if not h.holds and not h.assumed and h.note:
            notes.append(h.note)
    failed = [h for h in hypotheses if not h.holds and not h.assumed]
    caveats = []
    if bounded:
        caveats.append(f"bounded-search:B={bound}")
    for h in hypotheses:
        if h.caveat:
            caveats.append(f"{h.name}: {h.caveat[0]}={h.caveat[1]}")
    if any(h.assumed for h in hypotheses):
        caveats.append("modularity-lift conjecture assumed-if-needed")
    if failed:
        applies = "no"
    elif bounded or diagnostics_unknown or any(h.caveat for h in hypotheses):
        applies = "unknown"
    else:
        applies = "yes"
    return Verdict(theorem_id, field, applies, hypotheses,
                   CONCLUSIONS[theorem_id], r=r, caveats=caveats, notes=notes)


# ----------------------------------------------------- S-unit based criteria

def _solution_witness(sol, prime, bound_val):
    return {"lambda": [str(c) for c in sol.lam.coords],
            "mu": [str(c) for c in sol.mu.coords],
            "prime": prime.to_dict() if prime is not None else None,
            "t": None if prime is None else max(abs(v) for v in sol.val_profile[prime]),
            "bound": bound_val}


def _check_box_condition(field, solutions, primes, predicate, bound_desc):
    """Per-solution existential check; returns (holds, witnesses, counterexample)."""
    witnesses = []
    for sol in solutions:
        hit = None
        for P in primes:
            if predicate(sol, P):
                hit = P
                break
        if hit is None:
            return False, witnesses, _solution_witness(sol, None, bound_desc)
        witnesses.append(_solution_witness(sol, hit, bound_desc(sol, hit)
                                           if callable(bound_desc) else bound_desc))
    return True, witnesses, None


def check_thm_3_2(field: NumberField, bound: int, **solver_kw) -> Verdict:
    """Every S_K-unit solution must satisfy max(|v(lam)|,|v(mu)|) <= 4 v(2)
    at some prime over 2; bounded box, so confirmation is always 'unknown'."""
    hyps = [_hyp_totally_real(field)]
    primes = s_k(field)
    search = solve_sunit(field, primes, bound, **solver_kw)
    holds, witnesses, counter = _check_box_condition(
        field, search.solutions, primes,
        lambda sol, P: max(abs(v) for v in sol.val_profile[P]) <= 4 * P.e,
        lambda sol, P: 4 * P.e)
    notes = []
    if not search.solutions:
        notes.append(f"no S-unit solutions found in the box (B={bound}); "
                     "condition is vacuously satisfied there")
    hyps.append(HypothesisStatus(
        "every solution of lambda + mu = 1 in S_K-units meets "
        "max(|v(lambda)|, |v(mu)|) <= 4*v(2) at some prime over 2",
        holds, witness=witnesses if holds else counter,
        caveat=("bounded-search", bound)))
    return _finalize("thm-3-2", field, hyps, bounded=True, bound=bound,
                     notes=notes)


def _es_hypotheses(field):
    odd_degree = field.degree % 2 == 1
    if odd_degree:
        return [HypothesisStatus("degree of the field is odd (lifting "
                                 "hypothesis satisfied unconditionally)", True,
                                 witness={"degree": field.degree})]
    return [HypothesisStatus(
        "modularity-lift statement for even-degree fields", True,
        assumed=True,
        note=f"[K:Q] = {field.degree} is even; the Hilbert-newform lifting "
              "statement is assumed-if-needed")]


def check_thm_3_3(field: NumberField, bound: int, **solver_kw) -> Verdict:
    """U_K version: the witness prime must also satisfy
    v(lambda*mu) = v(2) mod 3."""
    hyps = [_hyp_totally_real(field)] + _es_hypotheses(field)
    primes_u = u_k(field)
    search = solve_sunit(field, s_k(field), bound, **solver_kw)
    notes = []
    if not primes_u:
        notes.append("U_K is empty: no prime over 2 has v(2) coprime to 3")

    def pred(sol, P):
        vl, vm = sol.val_profile[P]
        return (max(abs(vl), abs(vm)) <= 4 * P.e
                and (vl + vm - P.e) % 3 == 0)

    holds, witnesses, counter = _check_box_condition(
        field, search.solutions, primes_u, pred, bound)
    if not search.solutions:
        notes.append(f"no S-unit solutions found in the box (B={bound})")
    hyps.append(HypothesisStatus(
        "every solution of lambda + mu = 1 in S_K-units meets, at some prime "
        "over 2 with v(2) coprime to 3, max(|v|) <= 4*v(2) and "
        "v(lambda*mu) = v(2) (mod 3)",
        holds, witness=witnesses if holds else counter,
        caveat=("bounded-search", bound)))
    return _finalize("thm-3-3", field, hyps, bounded=True, bound=bound,
                     notes=notes)


def check_cor_3_4(field: NumberField, bound: int, **solver_kw) -> Verdict:
    """Single equality condition max(|v(lambda)|,|v(mu)|) = v(2) at a prime
    of U_K; the mod-3 congruence of the parent theorem is re-derived and
    re-checked on every witness."""
    hyps = [_hyp_totally_real(field)] + _es_hypotheses(field)
    primes_u = u_k(field)
    search = solve_sunit(field, s_k(field), bound, **solver_kw)

    def pred(sol, P):
        vl, vm = sol.val_profile[P]
        return max(abs(vl), abs(vm)) == P.e

    holds, witnesses, counter = _check_box_condition(
        field, search.solutions, primes_u, pred, bound)
    derivation_ok = True
    for sol in search.solutions:
        for P in primes_u:
            vl, vm = sol.val_profile[P]
            t = max(abs(vl), abs(vm))
            if t > 0 and (vl + vm - t) % 3 != 0:
                derivation_ok = False
    hyps.append(HypothesisStatus(
        "every solution meets max(|v(lambda)|, |v(mu)|) = v(2) exactly at "
        "some prime over 2 with v(2) coprime to 3",
        holds, witness=witnesses if holds else counter,
        caveat=("bounded-search", bound)))
    hyps.append(HypothesisStatus(
        "derived congruence v(lambda*mu) = t (mod 3) for t > 0",
        derivation_ok))
    notes = []
    if not search.solutions:
        notes.append(f"no S-unit solutions found in the box (B={bound})")
    return _finalize("cor-3-4", field, hyps, bounded=True, bound=bound,
                     notes=notes)


def check_thm_5_2(field: NumberField, bound: int, *,
                  user_class_number=None, **solver_kw) -> Verdict:
    """Narrow class number one, the S_K condition on K, and the S_L condition
    on every quadratic extension K(sqrt(a)) over the 2-Selmer classes."""
    hyps = [_hyp_totally_real(field)]
    notes = []
    diagnostics_unknown = False
    try:
        info = class_data(field, user_class_number=user_class_number)
        hyps.append(HypothesisStatus(
            "narrow class number equals 1", info.h_plus == 1,
            witness={"h": info.h, "h_plus": info.h_plus},
            note=None if info.h_plus == 1
            else f"computed h+ = {info.h_plus}"))
    except (MissingUserClassNumber, Unsupported) as exc:
        hyps.append(HypothesisStatus("narrow class number equals 1", True,
                                     assumed=True, note=str(exc)))
        diagnostics_unknown = True

    primes = s_k(field)
    # user_class_number is K's class number, so only the search over K gets
    # it; the searches over the extensions L below do not
    search = solve_sunit(field, primes, bound,
                         user_class_number=user_class_number, **solver_kw)
    holds, witnesses, counter = _check_box_condition(
        field, search.solutions, primes,
        lambda sol, P: max(abs(v) for v in sol.val_profile[P]) <= 4 * P.e,
        bound)
    hyps.append(HypothesisStatus(
        "every S_K-unit solution over the base field meets "
        "max(|v(lambda)|, |v(mu)|) <= 4*v(2) at some prime over 2",
        holds, witness=witnesses if holds else counter,
        caveat=("bounded-search", bound)))

    selmer = selmer_group(field, primes, 2, user_class_number=user_class_number)
    for rep in selmer.representatives:
        if rep == 1:
            continue
        label = "sqrt(" + repr(rep) + ")"
        try:
            ext = quadratic_extension(field, rep)
            ext_primes = s_k(ext)
            ext_search = solve_sunit(ext, ext_primes, bound, **solver_kw)
        except IndexDivisor as exc:
            hyps.append(HypothesisStatus(
                f"S_L-unit condition over K({label})", True, assumed=True,
                note=f"index divisor at {exc.q} while factoring 2 in the "
                     f"extension; diagnostic: defining polynomial unusable"))
            diagnostics_unknown = True
            continue
        except BasisUnavailable as exc:
            hyps.append(HypothesisStatus(
                f"S_L-unit condition over K({label})", True, assumed=True,
                note=f"S-unit basis unavailable over the extension: {exc}"))
            diagnostics_unknown = True
            continue
        ok, wit, cnt = _check_box_condition(
            field, ext_search.solutions, ext_primes,
            lambda sol, P: max(abs(v) for v in sol.val_profile[P]) <= 4 * P.e,
            bound)
        hyps.append(HypothesisStatus(
            f"every S_L-unit solution over K({label}) meets "
            "max(|v(lambda)|, |v(mu)|) <= 4*v(2) at some prime of S_L",
            ok, witness={"extension_poly": list(ext.coeffs),
                         "witnesses": wit} if ok
            else {"extension_poly": list(ext.coeffs), "counterexample": cnt},
            caveat=("bounded-search", bound)))
    return _finalize("thm-5-2", field, hyps, bounded=True, bound=bound,
                     notes=notes, diagnostics_unknown=diagnostics_unknown)


# ------------------------------------------------------------ local criteria

def _splitting_witness(field, q):
    from .prime_ideals import factor_rational_prime
    st = splitting_type(field, q)
    wit = st.to_dict()
    wit["primes"] = []
    for p in factor_rational_prime(field, q):
        entry = p.to_dict()
        root = p.residue_root()
        if root is not None:
            entry["root"] = root
        wit["primes"].append(entry)
    return st, wit


def check_thm_7_1(field: NumberField, ell: int) -> Verdict:
    """Purely local: gcd(n, l-1) = 1, l totally ramified, 2 inert."""
    n = field.degree
    hyps = [_hyp_totally_real(field)]
    hyps.append(HypothesisStatus(
        "l is a prime larger than 5", is_prime(ell) and ell > 5,
        witness={"l": ell},
        note=None if is_prime(ell) and ell > 5 else f"l = {ell}"))
    ok_gcd = gcd(n, ell - 1) == 1
    hyps.append(HypothesisStatus(
        "gcd(degree, l - 1) = 1", ok_gcd,
        witness={"degree": n, "l": ell, "gcd": gcd(n, ell - 1)},
        note=None if ok_gcd else f"gcd({n}, {ell - 1}) = {gcd(n, ell - 1)}"))
    st_l, wit_l = _splitting_witness(field, ell)
    hyps.append(HypothesisStatus(
        "l is totally ramified", st_l.totally_ramified, witness=wit_l,
        note=None if st_l.totally_ramified
        else f"{ell} factors with shape {list(st_l.pattern)}"))
    st_2, wit_2 = _splitting_witness(field, 2)
    hyps.append(HypothesisStatus(
        "2 is inert", st_2.inert, witness=wit_2,
        note=None if st_2.inert else f"2 factors with shape {list(st_2.pattern)}"))
    return _finalize("thm-7-1", field, hyps)


def check_cor_7_2(field: NumberField) -> Verdict:
    """Purely local: odd degree prime to 3, 2 inert, 3 totally split."""
    n = field.degree
    hyps = [_hyp_totally_real(field)]
    hyps.append(HypothesisStatus("degree is odd", n % 2 == 1,
                                 witness={"degree": n},
                                 note=None if n % 2 else f"degree {n} is even"))
    hyps.append(HypothesisStatus("3 does not divide the degree", n % 3 != 0,
                                 witness={"degree": n},
                                 note=None if n % 3 else f"3 divides degree {n}"))
    st_2, wit_2 = _splitting_witness(field, 2)
    hyps.append(HypothesisStatus(
        "2 is inert", st_2.inert, witness=wit_2,
        note=None if st_2.inert else f"2 factors with shape {list(st_2.pattern)}"))
    st_3, wit_3 = _splitting_witness(field, 3)
    hyps.append(HypothesisStatus(
        "3 is totally split", st_3.totally_split, witness=wit_3,
        note=None if st_3.totally_split
        else f"3 factors with shape {list(st_3.pattern)}"))
    return _finalize("cor-7-2", field, hyps)


def check_thm_7_3(field: NumberField, mode: int, ell: int = None) -> Verdict:
    """W_K-restricted local criteria: (1) l > 5 totally ramified with
    gcd(n, l-1) = 1, or (2) odd degree with 3 totally split."""
    n = field.degree
    hyps = [_hyp_totally_real(field)]
    if mode == 1:
        if ell is None:
            raise ValueError("mode 1 needs the auxiliary prime l")
        hyps.append(HypothesisStatus(
            "l is a prime larger than 5", is_prime(ell) and ell > 5,
            witness={"l": ell}))
        ok_gcd = gcd(n, ell - 1) == 1
        hyps.append(HypothesisStatus(
            "gcd(degree, l - 1) = 1", ok_gcd,
            witness={"degree": n, "l": ell, "gcd": gcd(n, ell - 1)},
            note=None if ok_gcd else f"gcd({n}, {ell - 1}) != 1"))
        st_l, wit_l = _splitting_witness(field, ell)
        hyps.append(HypothesisStatus(
            "l is totally ramified", st_l.totally_ramified, witness=wit_l,
            note=None if st_l.totally_ramified
            else f"{ell} factors with shape {list(st_l.pattern)}"))
        return _finalize("thm-7-3-1", field, hyps)
    if mode == 2:
        hyps.append(HypothesisStatus("degree is odd", n % 2 == 1,
                                     witness={"degree": n},
                                     note=None if n % 2 else f"degree {n} is even"))
        st_3, wit_3 = _splitting_witness(field, 3)
        hyps.append(HypothesisStatus(
            "3 is totally split", st_3.totally_split, witness=wit_3,
            note=None if st_3.totally_split
            else f"3 factors with shape {list(st_3.pattern)}"))
        return _finalize("thm-7-3-2", field, hyps)
    raise ValueError(f"mode must be 1 or 2, got {mode}")


def scan_ramified_l(field: NumberField, l_max: int):
    """Candidate auxiliary primes l: only divisors of the polynomial
    discriminant can ramify.  Reports ramification shape and the gcd test."""
    disc = field.poly_disc
    out = []
    for ell in sorted(factorint(disc)):
        if ell <= 5 or ell > l_max:
            continue
        entry = {"l": ell, "gcd_ok": gcd(field.degree, ell - 1) == 1}
        try:
            st = splitting_type(field, ell)
            entry["totally_ramified"] = st.totally_ramified
            entry["pattern"] = [list(p) for p in st.pattern]
        except IndexDivisor:
            entry["skipped"] = f"index divisor at {ell}"
        out.append(entry)
    return out
