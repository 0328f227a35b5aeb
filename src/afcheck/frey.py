"""Frey-curve invariants and reduction reports, symbolic in the exponent.

Two curve families are supported, keyed by the equation they encode:
  "2r"  : Y^2 = X(X - a^p)(X + b^p)        for a^p + b^p = 2^r c^p
  "pp2" : Y^2 = X^3 + 4c X^2 + 4 a^p X     for a^p + b^p = c^2

For a concrete exponent the closed-form Delta, c4 and j are checked against
the literal Weierstrass model.  Both run in the ring of the triple: ints and
Fractions when a, b and c are all rational, else field elements.  A quotient
of two rationals is a Fraction, never a float, and each result is lifted to
a field element once, when it is returned.  Valuations of Delta, c4 and j at
a prime are affine forms alpha + beta*p in the symbolic exponent; every report
carries the smallest p for which its sign and divisibility conclusions are
valid.  Inertia-image statements are represented exclusively through their
valuation criteria (negative j with p not dividing v(j); potentially good
with 3 not dividing v(Delta)).  The conductor shape lists the exponent
range at each prime and the odd primes that level lowering deletes.  No
function here decides whether a triple is trivial or lies in W_K.
"""

from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import (InconsistentDivisibility, RelationViolated,
                     UnsupportedCase, WorkExceeded)
from .numberfield import FieldElement, NumberField
from .parsing import _DIGITS_BOUND, MAX_PARSED_DIGITS
from .prime_ideals import PrimeIdeal, element_valuations, s_k

FAMILY_TWO_POWER = "2r"
FAMILY_SQUARE = "pp2"


# ----------------------------------------------------------- symbolic forms

class ValuationForm:
    """The affine form alpha + beta*p in the symbolic prime exponent p."""
    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        self.alpha = alpha
        self.beta = beta

    def __eq__(self, other):
        return (isinstance(other, ValuationForm)
                and (self.alpha, self.beta) == (other.alpha, other.beta))

    def __hash__(self):
        return hash((self.alpha, self.beta))

    @property
    def threshold(self) -> Fraction:
        """Sign and p-divisibility conclusions hold for primes p > threshold."""
        return Fraction(abs(self.alpha), max(1, abs(self.beta)))

    def to_dict(self):
        return {"alpha": self.alpha, "beta": self.beta, "threshold": self.threshold}


# ------------------------------------------------------------------- specs

class FreySpec:
    """A Frey curve request.  A zero entry is refused at every exponent; a
    concrete exponent p is checked against the defining relation once, when
    the spec is built, so the spec is frozen.  p None means symbolic.  A
    concrete p whose powers could pass MAX_PARSED_DIGITS digits is refused
    before they are built (see _refuse_long_powers)."""
    # the cached properties live in __dict__
    __slots__ = ("family", "a", "b", "c", "r", "p", "__dict__")

    def __init__(self, family: str, a: FieldElement, b: FieldElement,
                 c: FieldElement, r: int, p: int):
        if family not in (FAMILY_TWO_POWER, FAMILY_SQUARE):
            raise ValueError(f"unknown family {family!r}")
        if family == FAMILY_TWO_POWER and (r is None or r < 1):
            raise ValueError("family '2r' needs a positive twist exponent r")
        for name, value in zip(self.__slots__, (family, a, b, c, r, p)):
            object.__setattr__(self, name, value)
        if 0 in self.triple:
            raise RelationViolated("triple with abc = 0 gives a singular curve")
        if p is not None:
            self._refuse_long_powers()
            self.validate()

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set "
                             f"{name!r}")

    def _refuse_long_powers(self):
        """WorkExceeded when 2^r, or a^p, b^p or c^p, could pass the bits of
        10^MAX_PARSED_DIGITS.  For an entry num/den let h be the larger of
        den and the row-sum norm of the multiplication matrix of num: h^p
        bounds every coordinate of the p-th power and its denominator, so
        p * bit_length(h - 1) >= log2(h^p) bounds its bits.  An entry +-1
        has h = 1 and passes at every p."""
        bits = _DIGITS_BOUND.bit_length()
        if self.r is not None and self.r > bits:
            raise WorkExceeded(f"2^{self.r} would pass {MAX_PARSED_DIGITS} "
                               "digits")
        for name, x in zip("abc", (self.a, self.b, self.c)):
            # a rational num is num[0] times the identity matrix
            rows = (x.num,) if x.is_rational() else x.num_matrix()
            h = max(x.den, *(sum(map(abs, row)) for row in rows))
            if self.p * (h - 1).bit_length() > bits:
                raise WorkExceeded(f"{name}^{self.p} could pass "
                                   f"{MAX_PARSED_DIGITS} digits")

    @property
    def field(self) -> NumberField:
        return self.a.field

    @cached_property
    def triple(self):
        """(a, b, c) in the smallest ring that holds all three: an int or a
        Fraction each when all are rational, else the field elements."""
        entries = (self.a, self.b, self.c)
        if not all(x.is_rational() for x in entries):
            return entries
        return tuple(x.num[0] if x.den == 1 else Fraction(x.num[0], x.den)
                     for x in entries)

    def lift(self, value):
        """A value of the ring of the triple as an element of the field."""
        if isinstance(value, FieldElement):
            return value
        return self.field.from_rational(value)

    @cached_property
    def powers(self):
        """(a^p, b^p, c^p) for the concrete exponent, computed once."""
        p = self.p
        return tuple(x ** p for x in self.triple)

    def validate(self):
        """Exact check of the defining relation for a concrete exponent."""
        p = self.p
        ap, bp, cp = self.powers
        if self.family == FAMILY_TWO_POWER:
            if ap + bp != cp * (2 ** self.r):
                raise RelationViolated(
                    f"a^{p} + b^{p} != 2^{self.r} * c^{p} for the given triple")
        else:
            c = self.triple[2]
            if ap + bp != c * c:
                raise RelationViolated(f"a^{p} + b^{p} != c^2 for the given triple")


# -------------------------------------------------------------- invariants

class FreyInvariants:
    __slots__ = ("delta", "c4", "j", "j_alt", "c4_alt")

    def __init__(self, delta: FieldElement, c4: FieldElement, j: FieldElement,
                 j_alt: FieldElement = None, c4_alt: FieldElement = None):
        self.delta = delta
        self.c4 = c4
        self.j = j
        self.j_alt = j_alt
        self.c4_alt = c4_alt

    @property
    def forms_agree(self):
        ok = True
        if self.j_alt is not None:
            ok = ok and self.j == self.j_alt
        if self.c4_alt is not None:
            ok = ok and self.c4 == self.c4_alt
        return ok


def invariants(spec: FreySpec):
    """Closed-form Delta, c4, j: exact values (FreyInvariants) for a
    concrete exponent, else the formulas in p as a report dict.

    Both published shapes of the single redundant invariant (j for "2r",
    c4 for "pp2") are evaluated; agreement is exposed, never assumed.
    The values are computed in the ring of the triple and lifted to the
    field on return.
    """
    if spec.p is None:
        return _symbolic_invariants(spec)
    ap, bp, cp = spec.powers
    if spec.family == FAMILY_TWO_POWER:
        r = spec.r
        a2p = ap * ap
        core = (ap * bp * cp) ** 2
        inner = a2p + bp * cp * (2 ** r)
        inner_alt = a2p + bp * bp + ap * bp
        scale = Fraction(2) ** (8 - 2 * r)
        delta = core * (2 ** (4 + 2 * r))
        c4 = inner * 16
        j = _quotient(inner ** 3 * scale, core)
        j_alt = _quotient(inner_alt ** 3 * scale, core)
        return FreyInvariants(*map(spec.lift, (delta, c4, j)),
                              j_alt=spec.lift(j_alt))
    c = spec.triple[2]
    core = ap * ap * bp
    delta = core * (2 ** 12)
    c4 = (c * c * 4 - ap * 3) * 64
    c4_alt = (bp * 4 + ap) * 64
    j = _quotient((ap + bp * 4) ** 3 * 64, core)
    return FreyInvariants(*map(spec.lift, (delta, c4, j)),
                          c4_alt=spec.lift(c4_alt))


def _quotient(x, y):
    """x / y in the ring of the triple; two rationals divide as a Fraction,
    so no float appears."""
    if isinstance(x, FieldElement) or isinstance(y, FieldElement):
        return x / y
    return Fraction(x, y)


def _symbolic_invariants(spec):
    if spec.family == FAMILY_TWO_POWER:
        r = spec.r
        return {"family": spec.family,
                "delta": f"2^{4 + 2 * r} * (a*b*c)^(2p)",
                "c4": f"2^4 * (a^(2p) + 2^{r} * b^p * c^p)",
                "j": f"2^{8 - 2 * r} * (a^(2p) + 2^{r} * b^p * c^p)^3 "
                     "/ (a*b*c)^(2p)"}
    return {"family": spec.family,
            "delta": "2^12 * (a^2*b)^p",
            "c4": "2^6 * (4*b^p + a^p)",
            "j": "2^6 * (a^p + 4*b^p)^3 / (a^2*b)^p"}


def weierstrass_invariants(spec: FreySpec):
    """Independent route: the literal model evaluated by the b2/b4/b6 formulas.

    Returns (delta, c4, c6, j) and verifies c4^3 - c6^2 = 1728*Delta exactly.
    It shares only the model's coefficients a^p, b^p with invariants().  The
    values are computed in the ring of the triple and lifted on return.
    """
    if spec.p is None:
        raise ValueError("cross-check needs a concrete exponent")
    ap, bp, _cp = spec.powers
    if spec.family == FAMILY_TWO_POWER:
        a1, a2, a3 = 0, bp - ap, 0
        a4, a6 = -(ap * bp), 0
    else:
        a1, a2, a3 = 0, spec.triple[2] * 4, 0
        a4, a6 = ap * 4, 0
    b2 = a1 * a1 + a2 * 4
    b4 = a4 * 2 + a1 * a3
    b6 = a3 * a3 + a6 * 4
    b8 = (a1 * a1 * a6 + a2 * a6 * 4 - a1 * a3 * a4
          + a2 * a3 * a3 - a4 * a4)
    delta = -(b2 * b2 * b8) - b4 ** 3 * 8 - b6 * b6 * 27 + b2 * b4 * b6 * 9
    c4 = b2 * b2 - b4 * 24
    c6 = -(b2 ** 3) + b2 * b4 * 36 - b6 * 216
    if c4 ** 3 - c6 * c6 != delta * 1728:
        raise ArithmeticError("c4^3 - c6^2 != 1728*Delta on the literal model")
    if delta == 0:
        raise RelationViolated("singular model")
    return tuple(map(spec.lift, (delta, c4, c6, _quotient(c4 ** 3, delta))))


def concrete_cross_check(spec: FreySpec, inv: FreyInvariants) -> bool:
    """Closed forms against the literal Weierstrass computation; exact.
    inv is invariants(spec)."""
    delta, c4, _c6, j = weierstrass_invariants(spec)
    return (inv.forms_agree and inv.delta == delta
            and inv.c4 == c4 and inv.j == j)


# ------------------------------------------------------- reduction reports

class ReductionReport:
    __slots__ = ("prime", "family", "v_delta", "v_c4", "v_j",
                 "reduction_type", "p_threshold", "notes")

    def __init__(self, prime: PrimeIdeal, family: str,
                 v_delta: ValuationForm, v_c4: ValuationForm,
                 v_j: ValuationForm, reduction_type: str, p_threshold: int,
                 notes: list = ()):
        self.prime = prime
        self.family = family
        self.v_delta = v_delta
        self.v_c4 = v_c4
        self.v_j = v_j
        self.reduction_type = reduction_type
        self.p_threshold = p_threshold
        self.notes = list(notes)

    @property
    def flag_p_in_inertia(self):
        """v(j) negative and, for p past the threshold, prime to p."""
        return self.v_j.beta < 0 and self.v_j.alpha != 0

    @property
    def flag_3_in_inertia(self):
        """Potentially good with 3 not dividing v(Delta)."""
        return self.v_j.beta == 0 and self.v_delta.alpha % 3 != 0

    def to_dict(self):
        return {"prime": self.prime.to_dict(), "family": self.family,
                "v_delta": self.v_delta.to_dict(), "v_c4": self.v_c4.to_dict(),
                "v_j": self.v_j.to_dict(), "type": self.reduction_type,
                "flag_p_in_inertia": self.flag_p_in_inertia,
                "flag_3_in_inertia": self.flag_3_in_inertia,
                "p_threshold": self.p_threshold, "notes": self.notes}


def valuation_profile(spec: FreySpec, prime: PrimeIdeal,
                      v_a: int, v_b: int, v_c: int) -> ReductionReport:
    """Symbolic reduction data at a prime under a declared divisibility pattern.

    The pattern gives v_P(a), v_P(b), v_P(c); the triple must be integral at
    the prime, and normalized solutions admit at most one positive entry
    (two positives contradict the gcd ideal being an odd prime), so anything
    else is rejected.
    """
    if min(v_a, v_b, v_c) < 0:
        raise InconsistentDivisibility(
            "the triple is not integral at the prime: valuations "
            f"({v_a}, {v_b}, {v_c})")
    if spec.family == FAMILY_TWO_POWER:
        relevant = [v_a, v_b, v_c]
    else:
        relevant = [v_a, v_b]
    if sum(1 for v in relevant if v > 0) > 1:
        raise InconsistentDivisibility(
            "more than one of the declared entries is divisible by the prime; "
            "normalized triples admit at most one")
    if prime.q == 2:
        return _profile_above_two(spec, prime, v_a, v_b, v_c)
    return _profile_odd(spec, prime, v_a, v_b, v_c)


def _profile_above_two(spec, prime, v_a, v_b, v_c):
    v2 = prime.e
    if spec.family == FAMILY_TWO_POWER:
        r = spec.r
        v = v_a + v_b + v_c
        if v > 0:
            v_delta = ValuationForm((4 + 2 * r) * v2, 2 * v)
            v_c4 = ValuationForm(4 * v2, 0)
            v_j = ValuationForm((8 - 2 * r) * v2, -2 * v)
            threshold = max(abs((4 - r) * v2), 5)
            return ReductionReport(
                prime, spec.family, v_delta, v_c4, v_j,
                "potentially-multiplicative", p_threshold=threshold)
        if r not in (2, 3):
            raise UnsupportedCase(
                f"good-reduction branch above 2 is stated for r in (2, 3), got r={r}")
        v_delta = ValuationForm((4 + 2 * r) * v2, 0)
        v_c4 = ValuationForm(4 * v2, 0)
        v_j = ValuationForm((8 - 2 * r) * v2, 0)
        return ReductionReport(
            prime, spec.family, v_delta, v_c4, v_j, "potentially-good",
            p_threshold=2)
    # family pp2
    if v_a > 0:
        v_delta = ValuationForm(12 * v2, 2 * v_a)
        v_c4 = ValuationForm(8 * v2, 0)
        v_j = ValuationForm(12 * v2, -2 * v_a)
    elif v_b > 0:
        v_delta = ValuationForm(12 * v2, v_b)
        v_c4 = ValuationForm(6 * v2, 0)
        v_j = ValuationForm(6 * v2, -v_b)
    else:
        v_delta = ValuationForm(12 * v2, 0)
        v_c4 = ValuationForm(6 * v2, 0)
        v_j = ValuationForm(6 * v2, 0)
        return ReductionReport(
            prime, spec.family, v_delta, v_c4, v_j, "potentially-good",
            p_threshold=2, notes=["prime above 2 divides neither a nor b"])
    return ReductionReport(
        prime, spec.family, v_delta, v_c4, v_j, "potentially-multiplicative",
        p_threshold=max(6 * v2, 5))


def _profile_odd(spec, prime, v_a, v_b, v_c):
    if spec.family == FAMILY_TWO_POWER:
        v = v_a + v_b + v_c
        beta = 2 * v
    else:
        v = v_a + v_b
        beta = 2 * v_a + v_b
    if v == 0:
        zero = ValuationForm(0, 0)
        return ReductionReport(prime, spec.family, zero, zero, zero, "good",
                               p_threshold=2)
    v_delta = ValuationForm(0, beta)
    v_j = ValuationForm(0, -beta)
    return ReductionReport(
        prime, spec.family, v_delta, ValuationForm(0, 0), v_j, "multiplicative",
        p_threshold=5)


# ---------------------------------------------------------------- conductor

def conductor_shape(field: NumberField, family: str,
                    class_rep: PrimeIdeal | None,
                    odd_multiplicative: list) -> dict:
    """Formal conductor with exponent ranges, and the level-lowered part,
    as the report dict {"conductor", "level_lowered", "deleted"}.

    Primes above 2 carry the bound 2 + 6*v_P(2); the class representative
    carries 2 + 3*v_m(3); odd multiplicative primes appear with exponent 1
    and are the ones deleted in the level-lowered ideal.
    """
    factors = [{"prime": P.to_dict(), "exponent": {"min": 0, "max": 2 + 6 * P.e}}
               for P in s_k(field)]
    if class_rep is not None:
        if family == FAMILY_SQUARE:
            raise ValueError("the pp2 family carries no class-representative prime")
        v3 = class_rep.e if class_rep.q == 3 else 0
        factors.append({"prime": class_rep.to_dict(),
                        "exponent": {"min": 0, "max": 2 + 3 * v3}})
    mult = [{"prime": P.to_dict(), "exponent": 1} for P in odd_multiplicative]
    return {"conductor": factors + mult, "level_lowered": factors,
            "deleted": [P.to_dict() for P in odd_multiplicative]}


def odd_multiplicative_primes(spec: FreySpec):
    """Odd primes where the concrete triple forces multiplicative reduction."""
    elems = spec.triple if spec.family == FAMILY_TWO_POWER else spec.triple[:2]
    # v_P of the product is the sum of the entries' valuations; 2 is skipped
    # unfactored, so an index divisor at 2 does not block the odd primes
    return [P for P, v in element_valuations(spec.lift(prod(elems)),
                                             skip=(2,)) if v > 0]
