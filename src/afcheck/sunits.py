"""S-unit equation solutions, 2-Selmer square classes, quadratic extensions.

solve_sunit walks a bounded exponent box on the S-unit generators and tests
mu = 1 - lambda for S-unit membership.  The equation is invariant under
(lambda, mu) -> (1/lambda, -mu/lambda), which maps the box onto itself, so
the walk visits only half of it: the exponent vectors e that are
lexicographically positive, and e = 0 with j <= -j mod T for the torsion
power zeta^j.  The outer exponent levels multiply FieldElements from power
tables; the innermost level, which holds nearly all candidates, works on
integer numerators only: one NumberField.mul_num and a gcd give lambda in
canonical form, then the numerator of mu and its integer norm
NumberField.num_norm.  The norm test rejects mu without factoring anything
when its norm has a prime below no prime of S, and it gives the same answer
for lambda and 1/lambda.  Each survivor and its mirror 1/lambda, built from
the power tables, become FieldElements and are factored into prime ideals,
so a candidate of the full box costs half a product and half a norm, and a
survivor is factored as in a full walk.  Rejections on incomplete
factorizations or index divisors become warnings, never silent acceptances,
ordered by the candidate's place in the full walk; so the search has false
negatives only, and its warnings name only candidates that could be
S-units.  Completeness is always reported as a bounded-search caveat, never
claimed.
"""

import logging
from dataclasses import dataclass, field as dc_field
from math import gcd, isqrt

from .errors import (BasisUnavailable, FactorizationIncomplete,
                     IndexDivisor, IsSquare, MissingUserClassNumber,
                     SearchExhausted, Unsupported, WorkExceeded, ZeroElement)
from . import linalg
from .numberfield import FieldElement, NumberField
from .polynomials import isolate_real_roots, poly_disc, zx_factor
from .prime_ideals import element_valuations, valuation
from .units import class_data, principal_generator, unit_generators

log = logging.getLogger("afcheck")


# ------------------------------------------------------------------ basis

@dataclass
class SUnitBasis:
    torsion_gen: FieldElement
    torsion_order: int
    free_generators: list   # fundamental units then one pi_P per P in S
    exponent_bound: int


def build_sunit_basis(field: NumberField, S, bound: int, *,
                      user_class_number=None) -> SUnitBasis:
    """Torsion, fundamental units and P-power generators for the S-units."""
    try:
        units = unit_generators(field)
    except (Unsupported, SearchExhausted) as exc:
        raise BasisUnavailable(f"unit group unavailable: {exc}") from exc
    pis = []
    orders = {}
    if S:
        try:
            info = class_data(field, user_class_number=user_class_number)
        except (MissingUserClassNumber, Unsupported, SearchExhausted) as exc:
            raise BasisUnavailable(f"class data unavailable: {exc}") from exc
        for P in S:
            try:
                o, pi = _prime_power_generator(field, P, info.h)
            except SearchExhausted as exc:
                raise BasisUnavailable(f"no generator for {P}: {exc}") from exc
            orders[P] = o
            pis.append(pi)
        for P, pi in zip(S, pis):
            if valuation(pi, P) != orders[P]:
                raise ArithmeticError("pi generator has wrong valuation")
            for Q in S:
                if Q != P and valuation(pi, Q) != 0:
                    raise ArithmeticError("pi generator meets another prime of S")
    return SUnitBasis(units.torsion_gen, units.torsion_order,
                      list(units.fundamental_units) + pis, bound)


def _prime_power_generator(field, P, h):
    """(k, pi): the least k dividing h for which principal_generator finds
    a generator pi of P^k; searched once per field, P and h."""

    def search():
        for k in range(1, h + 1):
            gen = principal_generator(field, {P: k}) if h % k == 0 else None
            if gen is not None:
                return k, gen
        raise BasisUnavailable(f"no power of {P} found principal up to h={h}")

    return field.memo(("prime_power_generator", P, h), search)


# -------------------------------------------------------------- solutions

@dataclass
class SUnitSolution:
    lam: FieldElement
    mu: FieldElement
    val_profile: dict        # P -> (v_P(lambda), v_P(mu))
    from_box: bool

    def t_max(self):
        return {P: max(abs(v[0]), abs(v[1])) for P, v in self.val_profile.items()}

    def pair_dict(self):
        return {"lambda": self.lam.coord_strs(), "mu": self.mu.coord_strs()}

    def to_dict(self):
        return {**self.pair_dict(),
                "val_profile": {P.key(): list(v) for P, v in self.val_profile.items()},
                "t_max": {P.key(): t for P, t in self.t_max().items()},
                "from_box": self.from_box}


@dataclass
class SUnitSearch:
    bound: int
    solutions: list
    warnings: list = dc_field(default_factory=list)

    @property
    def completeness(self):
        return ("bounded-search", self.bound)

    def to_dict(self):
        return {"bound": self.bound,
                "solutions": [s.to_dict() for s in self.solutions],
                "completeness": list(self.completeness),
                "warnings": self.warnings}


# give-up cap on the candidates of one exponent box
MAX_CANDIDATES = 500_000


def solve_sunit(field: NumberField, S, bound: int, *,
                user_class_number=None) -> SUnitSearch:
    """All solutions of lambda + mu = 1 in S-units found inside the exponent box.

    The box covers lambda = zeta^j * prod g_i^{e_i} with |e_i| <= bound; the
    solution set is closed under the (lambda, mu) swap before returning, and
    every emitted pair is re-verified exactly.

    The box spans <zeta, units, pi_P>, pi_P a generator of P^(k_P).  When
    the classes of two primes of S are related, that group is smaller than
    the S-units, and the box misses solutions at every bound: over
    x^2 - x - 16 (h = 2) the pi_P have S-valuations (2, 0) and (0, 2), and
    2 = P1 P2 lies outside the group, so (1/2, 1/2) is not found, while it
    is over x^2 - x - 4.
    """
    if bound <= 0:
        # degenerate empty box: a vacuous search, reported as such
        return SUnitSearch(bound, [])
    basis = build_sunit_basis(field, S, bound,
                              user_class_number=user_class_number)
    gens = basis.free_generators
    n_boxes = basis.torsion_order * (2 * bound + 1) ** len(gens)
    if n_boxes > MAX_CANDIDATES:
        raise WorkExceeded(f"{n_boxes} candidates exceed limit {MAX_CANDIDATES}")
    gen_valuations = [{P: valuation(g, P) for P in S} for g in gens]
    # g^e for |e| <= bound; e = 0 carries None so the walk skips it
    powers = []
    for g in gens:
        table = {0: None, 1: g, -1: g.inverse()}
        for e in range(2, bound + 1):
            table[e] = table[e - 1] * g
            table[-e] = table[1 - e] * table[-1]
        powers.append(table)
    order = basis.torsion_order
    torsion_powers = [field.one()]
    for _ in range(1, order):
        torsion_powers.append(torsion_powers[-1] * basis.torsion_gen)

    # The outer levels of the box multiply FieldElements; the innermost
    # level works on integer numerators, and only a candidate whose mu
    # passes the norm test becomes a FieldElement.
    tables = [[(e, table[e]) for e in range(-bound, bound + 1)]
              for table in powers]
    *outer, last = tables or [[(0, None)]]
    last = [(e, None if g is None else (g.num, g.den)) for e, g in last]
    last_half = [(e, power) for e, power in last if e >= 0]
    mul_num = field.mul_num
    primes = {P.q for P in S}
    one_key = ((1,) + (0,) * (field.degree - 1), 1)
    found = {}    # (num, den) of lambda -> solution
    ranked = []   # ((j, exps), warnings of that candidate)

    def keep(lam, j, exps):
        """Factor mu = 1 - lambda for lambda = zeta^j prod g_i^exps_i and
        record the solution, or the candidate's warnings under (j, exps):
        the full walk's order, as each exponent runs upwards."""
        msgs = []
        mu = 1 - lam
        mu_profile = _s_unit_profile(mu, S, msgs)
        if msgs:
            ranked.append(((j, exps), msgs))
        if mu_profile is None:
            return
        profile = {P: (sum(x * gen_valuations[i][P]
                           for i, x in enumerate(exps)), mu_profile[P])
                   for P in S}
        found[lam.num, lam.den] = SUnitSolution(lam, mu, profile, True)

    # (lambda, mu) -> (1/lambda, -mu/lambda) maps the box onto itself and
    # solutions onto solutions, and N(-mu/lambda) = +-N(mu)/N(lambda) has
    # the same primes outside S as N(mu).  So the walk visits one vector of
    # each pair {(j, e), (-j mod T, -e)}, the one with e lexicographically
    # positive (or e = 0 and j <= -j mod T), and each norm-test survivor
    # sends its mirror, built from the power tables, through the same
    # factoring step.
    for j, base in enumerate(torsion_powers):
        mirror_j = -j % order
        for exps, prefix, positive in _half_prefixes(base, outer):
            pnum, pden = prefix.num, prefix.den
            for e, power in (last if positive else last_half):
                if power is None:
                    if not positive and j > mirror_j:
                        continue
                    num, den = pnum, pden
                else:
                    num, den = mul_num(pnum, power[0]), pden * power[1]
                    g = gcd(den, *num)
                    if g != 1:
                        num, den = [c // g for c in num], den // g
                    num = tuple(num)
                key = (num, den)
                if key == one_key or key in found:
                    continue
                # mu = 1 - lambda, over the same denominator; canonical
                # because lambda is
                mu_num = [-c for c in num]
                mu_num[0] += den
                if not _norm_supported(field, mu_num, den, primes):
                    continue
                exps_e = exps + (e,)
                keep(FieldElement(field, num, den), j, exps_e)
                # lambda = -1 (e = 0, j = T/2) is its own mirror
                if positive or e or j != mirror_j:
                    inv = torsion_powers[mirror_j]
                    for table, x in zip(powers, exps_e):
                        if x:
                            inv = inv * table[-x]
                    keep(inv, mirror_j, tuple(-x for x in exps_e))

    ranked.sort(key=lambda item: item[0])
    warnings = [msg for _, msgs in ranked for msg in msgs]
    for msg in warnings:
        log.warning(msg)
    # FieldElement.key fixes the output order; only kept solutions need one
    found = {sol.lam.key(): sol for sol in found.values()}
    for key in sorted(found):
        sol = found[key]
        mu_key = sol.mu.key()
        if mu_key not in found:
            swapped = {P: (v[1], v[0]) for P, v in sol.val_profile.items()}
            found[mu_key] = SUnitSolution(sol.mu, sol.lam, swapped, False)

    solutions = [found[k] for k in sorted(found)]
    for sol in solutions:
        _verify_solution(sol)
    return SUnitSearch(bound, solutions, warnings)


def _half_prefixes(prefix, tables, exps=(), positive=False):
    """Yield (exps, prefix * prod_i g_i^e_i, positive) over the exponent
    vectors of the given levels that are zero or lexicographically
    positive (positive tells which), in itertools.product order.  Each
    step multiplies the running prefix by one power-table entry, and e = 0
    multiplies nothing; once a level is positive the levels below it take
    every exponent."""
    if not tables:
        yield exps, prefix, positive
        return
    table, rest = tables[0], tables[1:]
    for e, power in table:
        if positive or e >= 0:
            yield from _half_prefixes(
                prefix if power is None else prefix * power, rest,
                exps + (e,), positive or e > 0)


def _verify_solution(sol: SUnitSolution):
    if not (sol.lam + sol.mu == 1) or sol.lam.is_zero() or sol.mu.is_zero():
        raise ArithmeticError("emitted pair fails lambda + mu = 1")
    for P, (vl, vm) in sol.val_profile.items():
        t = max(abs(vl), abs(vm))
        if t > 0:
            vlm = vl + vm
            if vlm not in (-2 * t, t):
                raise ArithmeticError(
                    f"case analysis violated at {P}: v(lambda*mu)={vlm}, t={t}")


def _norm_supported(field, num, den, primes):
    """The norm test for x = num/den != 0: False when x cannot be an S-unit.

    N(x) = +-prod N(P)^v_P(x), so a prime outside primes = {P.q for P in S}
    in the reduced rational N(x) means v_P(x) != 0 at some P outside S.  In
    integers, with the primes of S stripped from a = |N(num)| and from den,
    that prime exists unless a == den^n.  (N(num) alone would not do: a
    prime of den outside S, such as an index divisor, divides it even when
    x is a unit.)"""
    a = abs(field.num_norm(num))
    for q in primes:
        while a % q == 0:
            a //= q
        while den % q == 0:
            den //= q
    return a == den ** field.degree


def _s_unit_profile(x: FieldElement, S, warnings):
    """{P: v_P(x)} over S when x is an S-unit, else None, for an x that
    passed the norm test.  Factorization failures reject the candidate with
    a warning appended to warnings, so rejections stay sound."""
    profile = dict.fromkeys(S, 0)
    try:
        for P, v in element_valuations(x):
            if P not in profile:
                return None
            profile[P] = v
    except (FactorizationIncomplete, IndexDivisor) as exc:
        reason = (f"index divisor at {exc.q} blocks valuation"
                  if isinstance(exc, IndexDivisor)
                  else f"incomplete factorization ({exc.leftover})")
        warnings.append(f"candidate rejected: {reason}")
        return None
    return profile


# ----------------------------------------------------------- square classes

def is_square(x: FieldElement) -> bool:
    """Exact square test in K.

    Even degree >= 4 raises Unsupported: there a rational or an element of
    a proper subfield can be a square in K without passing the test below.
    The answer is kept in the field's memo, so the square test that
    selmer_group made of an element answers quadratic_extension's.
    """
    field = x.field
    if field.degree % 2 == 0 and field.degree >= 4:
        raise Unsupported(f"square test in even degree {field.degree} > 2")
    return field.memo(("is_square", x.num, x.den), lambda: _square_test(x))


def _is_int_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _square_test(x: FieldElement) -> bool:
    """0 is a square.  A rational u/v is a square when u*v is one, and in
    degree 2 also when u*v*poly_disc is one (sqrt(poly_disc) lies in K);
    odd degree has no quadratic subfield, so no other rational is.  Any
    other x generates K.  Its norm must be the square of a rational
    (N(y^2) = N(y)^2); then x is a square exactly when m(t^2) has a factor
    of degree deg m, m the minimal polynomial of den^2 x (integral, as
    den^2 x lies in Z[theta]): a root y of that factor squares to a
    conjugate of x and generates that conjugate's field, so that
    conjugate, and with it x, is a square.
    """
    if x.is_zero():
        return True
    field = x.field
    if x.is_rational():
        uv = x.num[0] * x.den
        return _is_int_square(uv) or (field.degree == 2 and
                                      _is_int_square(uv * field.poly_disc))
    if not _is_int_square(field.num_norm(x.num) * x.den ** field.degree):
        return False
    mp = (x * (x.den * x.den)).min_poly()
    doubled = [0] * (2 * len(mp) - 1)
    doubled[::2] = [int(c) for c in mp]
    return any(len(fac) == len(mp) for fac, _ in zx_factor(doubled))


@dataclass
class SelmerGroup:
    basis: list
    representatives: list

    @property
    def basis_size(self):
        return len(self.basis)

    def to_dict(self):
        return {"m": 2,
                "basis": [g.coord_strs() for g in self.basis],
                "basis_size": self.basis_size,
                "representatives": [r.coord_strs()
                                    for r in self.representatives]}


def selmer_group(field: NumberField, S, *,
                 user_class_number=None) -> SelmerGroup:
    """K(S, 2): square classes with even valuation outside S.

    Generated by the torsion generator, the fundamental units and the pi_P;
    the generating set is reduced to an independent basis by exact square
    testing of all subset products.
    """
    basis_data = build_sunit_basis(field, S, 1,
                                   user_class_number=user_class_number)
    gens = []
    if basis_data.torsion_order > 1:
        gens.append(basis_data.torsion_gen)
    units = basis_data.free_generators[:len(basis_data.free_generators) - len(S)]
    pis = basis_data.free_generators[len(units):]
    gens.extend(sorted(units, key=lambda u: (u.height(), u.coords)))
    gens.extend(sorted(pis, key=lambda p: (abs(p.norm()), p.coords)))
    independent = []
    for g in gens:
        reducible = False
        for mask in range(1 << len(independent)):
            prod_elem = g
            for i in range(len(independent)):
                if mask >> i & 1:
                    prod_elem = prod_elem * independent[i]
            if is_square(prod_elem):
                reducible = True
                break
        if not reducible:
            independent.append(g)
    reps = []
    for mask in range(1 << len(independent)):
        r = field.one()
        for i in range(len(independent)):
            if mask >> i & 1:
                r = r * independent[i]
        reps.append(r)
    return SelmerGroup(independent, reps)


# ------------------------------------------------------ quadratic extensions

_GENERATOR_SHIFTS = (0, 1, -1, 2, -2, 3, -3, 4, -4)


def quadratic_extension(base: NumberField, a: FieldElement) -> NumberField:
    """K(sqrt(a)) as an absolute field, ready for prime factorization.

    A square a raises IsSquare, before the degree limit is checked.  a is
    scaled by a rational square to be integral (same extension).  Once a is
    known to be a non-square, [L:Q] = 2n, so the characteristic polynomial
    g of gamma = sqrt(a) + t*theta, a power of the minimal polynomial of
    gamma, is irreducible exactly when it is squarefree, that is when
    poly_disc(g) != 0: the defining polynomial is g for the first shift t
    with a nonzero discriminant, and no factoring is needed.  At t = 0, g is
    chi(x^2) for chi the characteristic polynomial of the scaled a, the
    resultant of the defining polynomial with x^2 - a.
    """
    if a.is_zero():
        raise ZeroElement("cannot adjoin sqrt(0)")
    _raise_if_square(a)
    n = base.degree
    if 2 * n > 6:
        raise Unsupported(f"extension degree {2 * n} > 6")
    den = a.den
    a_int = a * (den * den)
    for t in _GENERATOR_SHIFTS:
        if t:
            g = linalg.charpoly(_gamma_matrix(base, a_int, t))
        else:
            # det(x^2 I - A) of the block matrix at t = 0
            g = [0] * (2 * n + 1)
            g[::2] = linalg.charpoly(a_int.num_matrix())
        disc = poly_disc(g)
        if disc:
            return NumberField(g, disc, isolate_real_roots(g))
    raise ArithmeticError("no primitive generator among the shift candidates")


def _raise_if_square(a: FieldElement):
    if is_square(a):
        raise IsSquare("element is already a square in the base field")


def _gamma_matrix(base: NumberField, a_int: FieldElement, t: int):
    """Integer multiplication matrix of gamma = z + t*theta on
    K[z]/(z^2 - a_int), in the basis theta^i then z*theta^i.  Since
    gamma * (u + v z) = (t*theta*u + a*v) + (u + t*theta*v) z, it is the
    block matrix [[t*Theta, A], [I, t*Theta]] of the matrices Theta of theta
    and A of a_int; a_int lies in Z[theta], so every entry is an integer."""
    t_theta = [[t * c for c in row] for row in base.theta().num_matrix()]
    n = len(t_theta)
    return ([row + a_row for row, a_row in zip(t_theta, a_int.num_matrix())]
            + [[int(i == j) for j in range(n)] + row
               for i, row in enumerate(t_theta)])
