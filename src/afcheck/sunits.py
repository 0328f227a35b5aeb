"""S-unit equation solutions, 2-Selmer square classes, quadratic extensions.

The S-unit basis is the torsion generator, the fundamental units and, for
each P in S, a generator pi_P of P^(k_P).  The pi_P, the k_P and the check
that v_P(pi_P) = k_P and v_Q(pi_P) = 0 at the other Q of S are computed
once per field and S (NumberField.memo); units have valuation 0, so
v_P(lambda) = k_P e_P for the exponent e_P of pi_P.

solve_sunit walks a bounded exponent box on the S-unit generators and tests
mu = 1 - lambda for S-unit membership.  The equation is invariant under
(lambda, mu) -> (1/lambda, -mu/lambda), which maps the box onto itself, so
the walk visits only half of it: the exponent vectors e that are
lexicographically positive, and e = 0 with j <= -j mod T for the torsion
power zeta^j.  The outer exponent levels multiply FieldElements from power
tables.  The innermost level, which holds nearly all candidates, decides
the norm test on mu without forming lambda: for lambda = c/D, c = a*b and
D = d_a*d_b from the prefix a/d_a and the table entry b/d_b, the integer
norm N(D - c) is the characteristic polynomial of c at D, and its
coefficients come from the trace form T_ij = Tr(theta^(i+j)): Tr c =
<T a, b>, Tr c^2 = <T a^2, b^2> (degree 3 only) and N(c) = N(a) N(b).  So
T a, T a^2 and N(a) are computed once per prefix, b, b^2 and N(b) once per
table entry, and a candidate costs one or two dot products and a few
integer operations.  The norm test rejects mu when its norm has a prime
below no prime of S, and answers the same for lambda and 1/lambda.  A
survivor is an S-unit, and its valuations at S follow from its exponents
and its integer norm (_mu_valuations): nothing is factored.  Its mirror
1/lambda is built from the power tables, its profile read off lambda's.
Completeness is always reported as a bounded-search caveat, never claimed.
"""

from dataclasses import dataclass
from math import isqrt

from .errors import (BasisUnavailable, IsSquare, MissingUserClassNumber,
                     SearchExhausted, Unsupported, WorkExceeded, ZeroElement)
from . import linalg
from .numberfield import MAX_DEGREE, FieldElement, NumberField
from .polynomials import isolate_real_roots, poly_disc, zx_factor
from .prime_ideals import int_valuation, valuation
from .units import class_data, principal_generator, unit_generators


# ------------------------------------------------------------------ basis

@dataclass
class SUnitBasis:
    torsion_gen: FieldElement
    torsion_order: int
    units: list
    pis: list       # pi_P for each P in S, in the order of S
    orders: list    # k_P for each P in S
    exponent_bound: int

    @property
    def free_generators(self):
        return self.units + self.pis


def build_sunit_basis(field: NumberField, S, bound: int) -> SUnitBasis:
    """Torsion, fundamental units and P-power generators for the S-units."""
    try:
        units = unit_generators(field)
    except (Unsupported, SearchExhausted) as exc:
        raise BasisUnavailable(f"unit group unavailable: {exc}") from exc
    pis, orders = [], []
    if S:
        try:
            info = class_data(field)
        except (MissingUserClassNumber, Unsupported, SearchExhausted) as exc:
            raise BasisUnavailable(f"class data unavailable: {exc}") from exc
        pis, orders = _prime_power_generators(field, S, info.h)
    return SUnitBasis(units.torsion_gen, units.torsion_order,
                      units.fundamental_units, pis, orders, bound)


def _prime_power_generators(field, S, h):
    """(pis, orders): for each P in S the least k dividing h for which
    principal_generator finds a generator pi of P^k, and that pi, checked
    to have valuation k at P and 0 at the other primes of S.  Searched and
    checked once per field and S."""

    def search():
        pis, orders = [], []
        for P in S:
            for k in range(1, h + 1):
                try:
                    pi = principal_generator(field, {P: k}) if h % k == 0 else None
                except SearchExhausted as exc:
                    raise BasisUnavailable(f"no generator for {P}: {exc}") from exc
                if pi is not None:
                    break
            else:
                raise BasisUnavailable(
                    f"no power of {P} found principal up to h={h}")
            pis.append(pi)
            orders.append(k)
        for P, pi, k in zip(S, pis, orders):
            if valuation(pi, P) != k:
                raise ArithmeticError("pi generator has wrong valuation")
            for Q in S:
                if Q != P and valuation(pi, Q) != 0:
                    raise ArithmeticError("pi generator meets another prime of S")
        return pis, orders

    return field.memo(("prime_power_generators", tuple(S)), search)


# -------------------------------------------------------------- solutions

@dataclass
class SUnitSolution:
    lam: FieldElement
    mu: FieldElement
    val_profile: dict        # P -> (v_P(lambda), v_P(mu))
    from_box: bool

    def pair_dict(self):
        return {"lambda": self.lam.coord_strs(), "mu": self.mu.coord_strs()}

    def to_dict(self, keys):
        """The report entry; keys[P] is P.key()."""
        profile = self.val_profile
        return {**self.pair_dict(),
                "val_profile": {keys[P]: list(v) for P, v in profile.items()},
                "t_max": {keys[P]: max(map(abs, v)) for P, v in profile.items()},
                "from_box": self.from_box}


@dataclass
class SUnitSearch:
    bound: int
    solutions: list

    @property
    def completeness(self):
        return ("bounded-search", self.bound)

    def to_dict(self):
        # every solution's profile runs over the same primes, S
        keys = {P: P.key() for s in self.solutions[:1] for P in s.val_profile}
        return {"bound": self.bound,
                "solutions": [s.to_dict(keys) for s in self.solutions],
                "completeness": list(self.completeness),
                "warnings": []}


# give-up cap on the candidates of one exponent box
MAX_CANDIDATES = 500_000


def solve_sunit(field: NumberField, S, bound: int) -> SUnitSearch:
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

    S must hold every prime above each of its rational primes, as s_k(field)
    does; otherwise ValueError.  Then the norm test alone decides which
    candidates are S-units (see _mu_valuations).
    """
    primes = {P.q for P in S}
    if any(sum(P.e * P.f for P in S if P.q == q) != field.degree
           for q in primes):
        raise ValueError("S misses a prime above one of its rational primes")
    if bound <= 0:
        # degenerate empty box: a vacuous search, reported as such
        return SUnitSearch(bound, [])
    basis = build_sunit_basis(field, S, bound)
    gens = basis.free_generators
    n_boxes = basis.torsion_order * (2 * bound + 1) ** len(gens)
    if n_boxes > MAX_CANDIDATES:
        raise WorkExceeded(f"{n_boxes} candidates exceed limit {MAX_CANDIDATES}")
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
    # level is screened by the norm test on integer data of the prefix and
    # of each table entry, and only a candidate whose mu passes becomes a
    # FieldElement.
    tables = [[(e, table[e]) for e in range(-bound, bound + 1)]
              for table in powers]
    *outer, last = tables or [[(0, None)]]
    one = field.one()
    last = [(e, *_factor_data(field, (g or one).num, (g or one).den, primes))
            for e, g in last]
    last_half = [entry for entry in last if entry[0] >= 0]
    screen = _norm_screen(field, primes)
    found = {}    # (num, den) of lambda -> solution

    # (lambda, mu) -> (1/lambda, -mu/lambda) maps the box onto itself and
    # solutions onto solutions, and N(-mu/lambda) = +-N(mu)/N(lambda) has
    # the same primes outside S as N(mu).  So the walk visits one vector of
    # each pair {(j, e), (-j mod T, -e)}, the one with e lexicographically
    # positive (or e = 0 and j <= -j mod T), and each norm-test survivor
    # also gives its mirror, built from the power tables, whose profile
    # (-v(lambda), v(mu) - v(lambda)) is read off the survivor's.
    for j, base in enumerate(torsion_powers):
        mirror_j = -j % order
        for exps, prefix, positive in _half_prefixes(base, outer):
            pnum, pden = prefix.num, prefix.den
            pre = _factor_data(field, pnum, pden, primes)
            for (e, b, _, _, bden, _), norm in screen(
                    pre, last if positive else last_half):
                if not (e or positive) and j > mirror_j:
                    continue
                lam = FieldElement(field, field.mul_num(pnum, b), pden * bden)
                if (lam.num, lam.den) in found:
                    continue
                exps_e = exps + (e,)
                lam_vals = [k * x for k, x in
                            zip(basis.orders, exps_e[len(basis.units):])]
                mu = 1 - lam
                mu_vals = _mu_valuations(mu, S, lam_vals, norm, pden * bden)
                found[lam.num, lam.den] = SUnitSolution(
                    lam, mu, dict(zip(S, zip(lam_vals, mu_vals))), True)
                # lambda = -1 (e = 0, j = T/2) is its own mirror
                if positive or e or j != mirror_j:
                    inv = torsion_powers[mirror_j]
                    for table, x in zip(powers, exps_e):
                        if x:
                            inv = inv * table[-x]
                    found[inv.num, inv.den] = SUnitSolution(
                        inv, 1 - inv, {P: (-vl, vm - vl) for P, vl, vm
                                       in zip(S, lam_vals, mu_vals)}, True)

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
    return SUnitSearch(bound, solutions)


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


def _s_free(x, primes):
    """x with every factor q in primes divided out (x != 0)."""
    for q in primes:
        while x % q == 0:
            x //= q
    return x


def _factor_data(field, num, den, primes):
    """(num, num^2, N(num), den, s(den)^n) for a factor num/den of lambda,
    s(d) the part of d prime to primes: what the norm test needs of it."""
    return (tuple(num), tuple(field.mul_num(num, num)), field.num_norm(num),
            den, _s_free(den, primes) ** field.degree)


def _trace_form(field):
    """T_ij = Tr(theta^(i+j)), so that Tr(a*b) = <T a, b>; kept in the
    field's memo."""

    def compute():
        n = field.degree
        traces = [linalg.trace(field.num_matrix(field.reduce([0] * k + [1])))
                  for k in range(2 * n - 1)]
        return tuple(tuple(traces[i:i + n]) for i in range(n))

    return field.memo(("trace_form",), compute)


def _mu_norms(field):
    """norms(pre, entries): N(D - c) for each entry (e, *data), where
    lambda = c/D with c = a*b and D = d_a*d_b unreduced, pre the
    _factor_data of the prefix a/d_a and data that of the entry b/d_b.
    N(D - c) = chi_c(D), chi_c the characteristic polynomial of c, whose
    coefficients need no product: e1 = Tr c = <T a, b>, in degree 3
    e2 = (e1^2 - Tr c^2)/2 with Tr c^2 = <T a^2, b^2>, and e_n = N(a) N(b),
    T the trace form; T a and T a^2 are taken once per call.  Closed forms
    in degrees 1-3; the S-unit walk reaches no other degree, as
    unit_generators stops at 3."""
    n = field.degree
    if n > 3:
        raise Unsupported(f"trace-form norm test in degree {n} > 3")
    form = _trace_form(field)

    def traced(v):
        return [sum(t * x for t, x in zip(row, v)) for row in form]

    if n == 1:
        def norms(pre, entries):
            (a0,), _, _, da, _ = pre
            return [da * db - a0 * b0 for _, (b0,), _, _, db, _ in entries]
    elif n == 2:
        def norms(pre, entries):
            a, _, na, da, _ = pre
            t0, t1 = traced(a)
            return [D * (D - t0 * b0 - t1 * b1) + na * nb
                    for _, (b0, b1), _, nb, db, _ in entries
                    for D in (da * db,)]
    else:
        def norms(pre, entries):
            a, sq, na, da, _ = pre
            (t0, t1, t2), (u0, u1, u2) = traced(a), traced(sq)
            return [D * (D * (D - e1) + e2) - na * nb
                    for _, (b0, b1, b2), (s0, s1, s2), nb, db, _ in entries
                    for D in (da * db,)
                    for e1 in (t0 * b0 + t1 * b1 + t2 * b2,)
                    for e2 in ((e1 * e1 - u0 * s0 - u1 * s1 - u2 * s2) // 2,)]
    return norms


def _norm_screen(field, primes):
    """screen(pre, entries): (entry, N(D - c)) for the entries whose
    candidate lambda = c/D (see _mu_norms) can give an S-unit
    mu = (D - c)/D.

    N(mu) = +-prod N(P)^v_P(mu), so a prime outside primes = {P.q for P in
    S} in the reduced rational N(mu) means v_P(mu) != 0 at some P outside
    S.  In integers, with those primes stripped from |N(D - c)| and from
    D^n, that prime exists unless the two agree.  (|N(D - c)| alone would
    not do: a prime of D outside S, such as an index divisor, divides it
    even when mu is a unit.)  Scaling c and D by g scales both by g^n, so
    the answer does not depend on whether c/D is reduced.  N(D - c) = 0
    exactly when lambda = 1, which is skipped."""
    norms = _mu_norms(field)

    def screen(pre, entries):
        target = pre[-1]
        return [(entry, x) for entry, x in zip(entries, norms(pre, entries))
                if x and _s_free(abs(x), primes) == target * entry[-1]]

    return screen


def _mu_valuations(mu, S, lam_vals, norm, D):
    """[v_P(mu) for P in S] for a survivor mu = 1 - lambda = (D - c)/D of
    the norm test, from lam_vals = [v_P(lambda) for P in S] and the
    screen's norm = N(D - c), D the unreduced denominator.

    Membership.  lambda is an S-unit, so v_P(mu) = v_P(1 - lambda) >= 0 at
    every P outside S.  S holds every prime above each of its q, so those P
    lie over rational primes outside {P.q}, none of which divides N(mu) =
    +-prod N(P)^v_P(mu) by the norm test.  So mu is an S-unit.

    Valuations at S.  Over the P above q, sum f_P v_P(mu) = v_q(N(mu)) =
    v_q(norm) - n v_q(D).  By the ultrametric rule v_P(lambda) > 0 gives
    v_P(mu) = 0, v_P(lambda) < 0 gives v_P(mu) = v_P(lambda), and
    v_P(lambda) = 0 leaves v_P(mu) >= 0 open.  What the settled P leave of
    v_q(N(mu)) is the sum of f_P v_P(mu) over the open P: a single open P
    takes all of it, and a rest of 0 leaves 0 at each.  Only two or more
    open P with a nonzero rest (lambda = -1, mu = 2 with 2 split) call
    valuation."""
    mu_vals = [min(v, 0) if v else None for v in lam_vals]
    for q in {P.q for P in S}:
        above = [i for i, P in enumerate(S) if P.q == q]
        unsettled = [i for i in above if mu_vals[i] is None]
        rest = (int_valuation(norm, q) - mu.field.degree * int_valuation(D, q)
                - sum(S[i].f * mu_vals[i] for i in above
                      if mu_vals[i] is not None))
        for i in unsettled:
            mu_vals[i] = (rest // S[i].f if len(unsettled) == 1
                          else valuation(mu, S[i]) if rest else 0)
    return mu_vals


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


def selmer_group(field: NumberField, S) -> SelmerGroup:
    """K(S, 2): square classes with even valuation outside S.

    Generated by the torsion generator, the fundamental units and the pi_P.
    The representatives are the products of the subsets of the basis so
    far, in the order of the bitmask of the subset; a generator joins the
    basis when its product with no representative is a square.
    """
    basis = build_sunit_basis(field, S, 1)
    gens = []
    if basis.torsion_order > 1:
        gens.append(basis.torsion_gen)
    gens.extend(sorted(basis.units, key=lambda u: (u.height(), u.coords)))
    gens.extend(sorted(basis.pis, key=lambda p: (abs(p.norm()), p.coords)))
    independent, reps = [], [field.one()]
    for g in gens:
        if not any(is_square(g * r) for r in reps):
            independent.append(g)
            reps += [r * g for r in reps]
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
    if 2 * n > MAX_DEGREE:
        raise Unsupported(f"extension degree {2 * n} > {MAX_DEGREE}")
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
