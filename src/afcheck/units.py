"""Unit groups, class data and principal generators.

Quadratic fields rest on one walk: the reduction operator rho on the binary
forms of the fundamental discriminant, with its multipliers, gives the
fundamental unit, principal generators (or a proof that there is none) and,
through the reduced forms and their cycles, h and h+.  Totally real
cubic fields get one budgeted coordinate walk, shell by shell of growing
height, for their unit pair and their principal generators; the unit pairs
are certified multiplicatively independent through integer log intervals:
the atanh series in fixed point, on the absolute bounds that
numberfield.embedding_bounds gives at each real place.
Each new unit is paired with the earlier ones in search order, and the
first pair the certificate proves independent is returned.  The
certificate is a proof, so it never passes a dependent pair; such a pair
costs its full refinement schedule.  A real quadratic field's fundamental
unit is kept as (x, y, norm), the unit being (x + y sqrt d)/2, the form
its products and generators take.  The class data is h, h+ and how they
are known; a cubic's h+ comes from the F_2-rank of the sign bitmasks of
its unit generators, read off the size of their xor span.  The odd prime
of the conductor of the 2r Frey curve is the first odd prime ideal in
norm order (least_odd_prime), found by factoring odd q in increasing
order until q passes the least norm so far.  A cubic's h is the one its
field carries (make_field), read only by class_data.  Computed once per field
(NumberField.memo): a quadratic field's (d, m, b, D) and, in its own entry
when first read, its fundamental unit; the unit group of a supported
field; the class data."""

from itertools import product
from math import gcd, isqrt, prod

from .errors import (IndexDivisor, MissingUserClassNumber, SearchExhausted,
                     Unsupported)
from .integerfactor import SMALL_PRIMES, factorint, squarefree_part
from .numberfield import (FieldElement, NumberField, embedding_bounds,
                          embedding_sign)
from .prime_ideals import PrimeIdeal, factor_rational_prime, valuation

# odd q up to which least_odd_prime factors
CLASS_ENUM_BOUND = 100

# give-up cap on the integer vectors one coordinate walk visits, for a
# cubic unit pair or a generator in degree >= 3: the whole degree-3 box of
# coordinate magnitude 64
SHELL_WALK_BUDGET = (2 * 64 + 1) ** 3

# steps of one walk on the forms of a quadratic discriminant: the rho steps
# of a unit or a principality walk (a cycle that long gives a fundamental
# unit of several thousand digits), and the values of b that enumerate the
# reduced forms (so D up to about 10^9)
QUADRATIC_STEP_BUDGET = 1 << 14


# --------------------------------------------------------------- containers

class UnitGroup:
    __slots__ = ("fundamental_units", "torsion_order", "torsion_gen")

    def __init__(self, fundamental_units: list, torsion_order: int,
                 torsion_gen: FieldElement):
        self.fundamental_units = fundamental_units
        self.torsion_order = torsion_order
        self.torsion_gen = torsion_gen

    def generators(self):
        return [self.torsion_gen] + list(self.fundamental_units)


class ClassData:
    __slots__ = ("h", "h_plus", "completeness")

    def __init__(self, h: int, h_plus: int, completeness: tuple):
        self.h = h
        self.h_plus = h_plus
        self.completeness = completeness


# --------------------------------------------------- quadratic field data

def _quadratic(field: NumberField):
    """(d, m, b, D) with sqrt(d) = (2*theta + b)/m, d the squarefree core
    and D the fundamental discriminant; kept in the field's memo."""

    def compute():
        c0, b, _ = field.coeffs
        d0 = b * b - 4 * c0
        d = squarefree_part(d0)
        return d, isqrt(d0 // d), b, d if d % 4 == 1 else 4 * d

    return field.memo("quadratic", compute)


def _quad_element(field, x, y, den):
    """(x + y*sqrt(d))/den as a FieldElement, with sqrt(d) = (2*theta + b)/m."""
    _, m, b, _ = _quadratic(field)
    return FieldElement(field, [x * m + y * b, 2 * y], m * den)


def _times(d, u, v):
    """The product of (x + y sqrt d)/2 for (x, y) = u and v, as (x, y)."""
    return ((u[0] * v[0] + d * u[1] * v[1]) // 2,
            (u[0] * v[1] + u[1] * v[0]) // 2)


def _quad_torsion(d):
    """(order, (x, y)): a generator (x + y sqrt d)/2 of the roots of unity."""
    return {-1: (4, (0, 2)), -3: (6, (1, 1))}.get(d, (2, (-2, 0)))


# ---------------------------------------------------- binary quadratic forms

def _rho(form, D):
    """rho(a, b, c) = (c, r, (r^2 - D)/(4c)), r = -b mod 2|c| in the window
    (top - 2|c|, top], top = isqrt(D) for D > 0 and |c| for D < 0.

    I_(a,b,c) = mu I_rho(a,b,c) for I_(a,b,c) = [a, (b + sqrt D)/2] and the
    multiplier mu = (b + sqrt D)/(2c): mu c and mu (r + sqrt D)/2 lie in
    I_(a,b,c), and N(mu) = a/c.  Every walk reaches the reduced forms; for
    D > 0 rho permutes them, for D < 0 it swaps a reduced form and its
    rho."""
    _, b, c = form
    top = isqrt(D) if D > 0 else abs(c)
    r = top - (top + b) % (2 * abs(c))
    return (c, r, (r * r - D) // (4 * c))


def _walk_to_principal(D, form):
    """The forms from form up to the first with |a| = 1, that one left out:
    I_(+-1,b,c) = O_K, so their multipliers multiply to a generator of
    I_form.  None when a form repeats first: the walk closed the cycle of
    its class without meeting the forms (+-1, b, c) of the principal ones."""
    path, seen = [], set()
    while abs(form[0]) != 1:
        if form in seen:
            return None
        if len(path) == QUADRATIC_STEP_BUDGET:
            raise SearchExhausted(
                f"continued fraction of the forms of discriminant {D} meets "
                f"no form with |a| = 1 within {QUADRATIC_STEP_BUDGET} steps")
        seen.add(form)
        path.append(form)
        form = _rho(form, D)
    return path


def _multiplier_product(d, D, path):
    """(x, y) with (x + y sqrt d)/2 the product of the multipliers
    (b + sqrt D)/(2c) of the forms (a, b, c) of path, an integer of K."""
    f = isqrt(D // d)  # sqrt D = f sqrt d
    num_x, num_y, den = 1, 0, 1
    for _, b, c in path:
        num_x, num_y, den = (num_x * b + num_y * f * d, num_x * f + num_y * b,
                             2 * c * den)
        g = gcd(den, num_x, num_y)
        num_x, num_y, den = num_x // g, num_y // g, den // g
    return 2 * num_x // den, 2 * num_y // den


def _quad_fundamental_unit(field: NumberField):
    """(x, y, norm) with (x + y sqrt d)/2 the fundamental unit > 1 of a real
    quadratic field; kept in the field's memo.

    The principal form (1, b, c), b the largest below sqrt D with b = D mod
    2, is reduced.  Its cycle up to the next form with |a| = 1 runs over
    the minima of O_K from 1 to the fundamental unit (Cohen, GTM 138,
    5.7), so the multipliers multiply to +-eps or +-1/eps; each has
    |mu| > 1 at sqrt d > 0 on a reduced form, which rules out 1/eps."""

    def walk():
        d, _, _, D = _quadratic(field)
        s = isqrt(D)
        b = s - (s - D) % 2
        principal = (1, b, (b * b - D) // 4)
        path = [principal] + _walk_to_principal(D, _rho(principal, D))
        x, y = _multiplier_product(d, D, path)
        if x < 0:
            x, y = -x, -y
        return x, y, (x * x - d * y * y) // 4

    return field.memo("quadratic_unit", walk)


# ------------------------------------------- fixed-point logarithm intervals

def _atanh_fixed(n, d, w):
    """Integers (lo, hi) with lo <= 2^w atanh(n/d) <= hi, for 0 <= n/d <= 1/3.

    The series sum t^(2i+1) / (2i+1) in fixed point over 2^w, the powers
    and terms rounded down for lo and up for hi, until the upper power is
    one unit; hi then adds the bound t^(2m+1) / ((2m+1)(1 - t^2)) on the
    terms left."""
    t2lo = (n * n << w) // (d * d)
    t2hi = t2lo + 1
    plo = (n << w) // d
    phi = plo + 1
    lo = hi = 0
    i = 1
    while phi > 1:
        lo += plo // i
        hi -= -phi // i
        plo, phi = plo * t2lo >> w, -(-phi * t2hi >> w)
        i += 2
    return lo, hi - (-phi << w) // (i * ((1 << w) - t2hi))


def _ln_interval(lo, hi, p, w):
    """Integers (a, b) with a <= 2^w ln(x) <= b for every x in
    [lo / 2^p, hi / 2^p], 0 < lo <= hi.

    m / 2^p = 2^k y with y = m / 2^e in [1, 2), 2^e <= m < 2^(e+1), and
    ln y = 2 atanh((m - 2^e) / (m + 2^e)); ln 2 = 2 atanh(1/3) comes from
    the same series at the same precision."""
    ln2 = _atanh_fixed(1, 3, w)

    def bound(m, side):
        e = m.bit_length() - 1
        k = e - p
        t = _atanh_fixed(m - (1 << e), m + (1 << e), w)[side]
        return 2 * (k * ln2[side if k >= 0 else 1 - side] + t)

    return bound(lo, 0), bound(hi, 1)


def _certified_independent(u: FieldElement, v: FieldElement):
    """True when the log-embedding vectors of u, v are provably non-parallel.

    Round r = 1, ..., 12 bounds ln|u| and ln|v| at the first two real places
    by integers over 2^w, w = 8r + 8, from embedding_bounds started at 8r
    bits (a unit is nonzero, so its bounds leave out zero); the 2x2
    determinant ad - bc is then certified nonzero when the integer bounds
    of ad and bc, over 2^(2w), do not overlap."""
    for r in range(1, 13):
        p = 8 * r
        (a, b), (c, d) = [
            [_ln_interval(*sorted((abs(lo), abs(hi))), q, p + 8)
             for lo, hi, q in (embedding_bounds(x, idx, p) for idx in (0, 1))]
            for x in (u, v)]
        ad = [s * t for s in a for t in d]
        bc = [s * t for s in b for t in c]
        if min(ad) > max(bc) or max(ad) < min(bc):
            return True
    return False


# ----------------------------------------------------------- fundamental units

def _shell(dim, h):
    """Coordinate dim-tuples with max coordinate magnitude exactly h, sorted:
    the surface of the box [-h, h]^dim, enumerated without its interior.
    A tuple whose first coordinate is +-h may continue with any tuple of the
    box; any other first coordinate needs a continuation on the surface."""
    if dim == 0:
        return [()] if h == 0 else []
    surface = _shell(dim - 1, h)
    return [(c,) + t for c in range(-h, h + 1)
            for t in (product(range(-h, h + 1), repeat=dim - 1)
                      if abs(c) == h else surface)]


def _shell_walk(dim):
    """The first SHELL_WALK_BUDGET integer dim-vectors, shell by shell:
    h = 0, 1, 2, ..., each shell in _shell order."""
    left, h = SHELL_WALK_BUDGET, 0
    while left > 0:
        shell = _shell(dim, h)[:left]
        left -= len(shell)
        yield from shell
        h += 1


def _cubic_fundamental_pair(field: NumberField):
    """[u, v]: the first pair of the coordinate walk's units that is
    certified independent."""
    found = []
    for coords in _shell_walk(3):
        x = FieldElement(field, coords)
        if x.is_rational():
            continue
        if abs(x.norm()) != 1:
            continue
        found.append(x)
        for prev in found[:-1]:
            if _certified_independent(prev, x):
                return [prev, x]
    raise SearchExhausted(
        "no independent unit pair within the coordinate walk's budget of "
        f"SHELL_WALK_BUDGET = {SHELL_WALK_BUDGET} vectors")


def unit_generators(field: NumberField) -> UnitGroup:
    """Unit group generators for degree <= 3: torsion and fundamental units.

    Imaginary quadratic fields return their torsion; mixed-signature cubics
    are unsupported.  The group is kept in the field's memo; an unsupported
    field is refused up front and stores nothing there.
    """
    n = field.degree
    if n > 3 or n == 3 and not field.is_totally_real:
        raise Unsupported(
            f"unit group for degree {n}, signature {field.signature}")

    def group():
        if n == 1:
            return UnitGroup([], 2, field.from_rational(-1))
        if n == 2:
            d = _quadratic(field)[0]
            if d < 0:
                order, (x, y) = _quad_torsion(d)
                return UnitGroup([], order, _quad_element(field, x, y, 2))
            x, y, _norm = _quad_fundamental_unit(field)
            return UnitGroup([_quad_element(field, x, y, 2)], 2,
                             field.from_rational(-1))
        return UnitGroup(_cubic_fundamental_pair(field), 2,
                         field.from_rational(-1))

    return field.memo("unit_group", group)


# ------------------------------------------------------- form class numbers

def _divisors(n):
    divisors = [1]
    for p, k in factorint(n).items():
        divisors = [x * p ** i for x in divisors for i in range(k + 1)]
    return sorted(divisors)


def _reduced_forms(D: int):
    """The reduced primitive forms (a, b, c) of discriminant D, positive
    definite for D < 0, in the order of b >= 0 and then of |a|.

    Reduced: |b| <= a <= c, b >= 0 if |b| = a or a = c, for D < 0 (so
    3b^2 <= -D); sqrt(D) - b < 2|a| < sqrt(D) + b for D > 0.  For each
    b = D mod 2 within that, |a| runs over the divisors of |b^2 - D|/4."""
    top = isqrt(-D // 3) if D < 0 else isqrt(D)
    bs = range(D % 2, top + 1, 2)
    if len(bs) > QUADRATIC_STEP_BUDGET:
        raise SearchExhausted(
            f"reduced forms of discriminant {D} need more than "
            f"{QUADRATIC_STEP_BUDGET} steps")
    forms = []
    for b in bs:
        n = abs(b * b - D) // 4
        for a in _divisors(n):
            c = n // a
            if D < 0:
                if b <= a <= c:
                    forms += [(a, b, c)] + ([(a, -b, c)]
                                            if 0 < b < a < c else [])
            elif (2 * a + b) ** 2 > D and (2 * a <= b or (2 * a - b) ** 2 < D):
                forms += [(a, b, -c), (-a, b, c)]
    return [form for form in forms if gcd(*form) == 1]


def _cycle_count(forms, D: int) -> int:
    """The number of rho-cycles of the reduced indefinite forms."""
    remaining, cycles = set(forms), 0
    while remaining:
        form = start = remaining.pop()
        cycles += 1
        while (form := _rho(form, D)) != start:
            if form not in remaining:
                raise ArithmeticError("rho left the reduced set")
            remaining.remove(form)
    return cycles


# ------------------------------------------------------ principal generators

def _sqrt_mod(D, q, e):
    """b with b^2 = D mod 4q^e (so b = D mod 2), defined mod 2q^e: a root
    mod 4q, lifted one power of q at a time."""
    b = next(b for b in range(2 * q) if (b * b - D) % (4 * q) == 0)
    for i in range(1, e):
        step = 2 * q ** i
        b = next(b + t * step for t in range(q)
                 if ((b + t * step) ** 2 - D) % (4 * q ** (i + 1)) == 0)
    return b


def _ideal_form(field, profile):
    """(r, a, b) with prod P^k = r [a, (b + sqrt D)/2], b^2 = D mod 4a.

    An inert P and the square of a ramified one are rational; P^k P'^k' of
    a split q is q^min(k,k') Q^e, with Q^e = [q^e, (b_q + sqrt D)/2] for
    the root b_q of D mod 4q^e whose (b_q + sqrt D)/2 lies in Q.  Distinct
    q combine by CRT on b mod 2a."""
    d, _, _, D = _quadratic(field)
    f = isqrt(D // d)
    r, a, b = 1, 1, D % 2
    by_q = {}
    for P, k in profile.items():
        by_q.setdefault(P.q, []).append((P, k))
    for q, primes in by_q.items():
        (P, k), *conjugate = primes
        if P.f == 2:
            r *= q ** k
            continue
        if P.e == 2:
            r *= q ** (k // 2)
            e = k % 2
        else:
            P2, k2 = conjugate[0] if conjugate else (P, 0)
            r *= q ** min(k, k2)
            if k2 > k:
                P = P2
            e = abs(k - k2)
        if not e:
            continue
        m = q ** e
        bq = _sqrt_mod(D, q, e)
        if P.e == 1 and valuation(_quad_element(field, bq, f, 2), P) == 0:
            bq = -bq
        t = (bq - b) // 2 * pow(a, -1, m) % m
        a, b = a * m, b + 2 * a * t
    return r, a, b


def _least_y(field, alpha):
    """The generators zeta eps^j alpha of alpha O_K, as (x, y) in
    (x + y sqrt d)/2, that have the least |y|.

    For d > 0 let u, v be the values of one at sqrt d > 0 and < 0, so
    |x| = |u + v| and |y| sqrt d = |u - v|.  Once xy >= 0, |u| >= |v|, and
    every eps^i times it (i >= 0) has |y'| sqrt d >= |u'| - |v'| >= |u| -
    |v| = min(|x|, |y| sqrt d); alike for 1/eps once xy <= 0.  Each
    direction ends when that bound passes the least |y| so far."""
    d = _quadratic(field)[0]
    gens = [alpha]
    if d < 0:
        order, zeta = _quad_torsion(d)
        for _ in range(order - 1):
            gens.append(_times(d, gens[-1], zeta))
    else:
        ex, ey, norm = _quad_fundamental_unit(field)
        for step, side in (((ex, ey), 1), ((norm * ex, -norm * ey), -1)):
            x, y = alpha
            while not (side * x * y >= 0 and min(x * x, d * y * y)
                       > d * min(abs(g[1]) for g in gens) ** 2):
                x, y = _times(d, (x, y), step)
                gens.append((x, y))
    best = min(abs(g[1]) for g in gens)
    return [g for g in gens if abs(g[1]) == best]


def principal_generator(field: NumberField, profile: dict):
    """A generator of the integral ideal with the given prime valuation
    profile, or None; None proves the ideal non-principal only in degree
    <= 2.

    Degree 1 gives the positive rational.  In degree 2 the rho walk from
    the form of the ideal's primitive part decides, and its multipliers
    give a generator: the one returned has the least |y| in (x + y sqrt
    d)/2, then the sign of _canonical_sign, then the least (height,
    coords).  Degree >= 3 takes the first generator of the coordinate walk
    (_find_generator), and None there means only that the walk ended."""
    if field.degree == 1:
        return field.from_rational(prod(p.norm() ** v
                                        for p, v in profile.items()))
    if field.degree >= 3:
        return _find_generator(field, profile)
    d, _, _, D = _quadratic(field)
    r, a, b = _ideal_form(field, profile)
    path = _walk_to_principal(D, (a, b, (b * b - D) // (4 * a)))
    if path is None:
        return None
    x, y = _multiplier_product(d, D, path)
    return min((_canonical_sign(_quad_element(field, x, y, 2))
                for x, y in _least_y(field, (r * x, r * y))),
               key=lambda g: (g.height(), g.coords))


def _canonical_sign(x: FieldElement):
    """Fix the sign so the first nonzero coordinate is positive."""
    return -x if next((c for c in x.num if c), 0) < 0 else x


# ----------------------------------------------------------------- class data

def class_data(field: NumberField) -> ClassData:
    """Class number and narrow class number: proven in degree <= 2; for a
    cubic, h is the class number the field was built with (make_field) and
    h+ follows from the signs of the units."""
    n = field.degree
    if n == 1:
        return ClassData(1, 1, ("proven",))
    if n == 2:
        return field.memo("class_data", lambda: _quadratic_class_data(field))
    if n == 3:
        h = field.user_class_number
        if h is None:
            raise MissingUserClassNumber(
                "cubic class numbers are not computed; supply one with "
                "--user-class-number")
        return field.memo("class_data", lambda: ClassData(
            h, _h_plus_from_unit_signs(field, h), ("user-supplied",)))
    raise Unsupported(f"class data for degree {n}")


def _quadratic_class_data(field):
    d, _, _, D = _quadratic(field)
    forms = _reduced_forms(D)
    if d < 0:
        h = h_plus = len(forms)
    else:
        h_plus = _cycle_count(forms, D)
        unit_norm = _quad_fundamental_unit(field)[2]
        h = h_plus if unit_norm == -1 else h_plus // 2
    return ClassData(h, h_plus, ("proven",))


def _by_norm(p: PrimeIdeal):
    """Enumeration order of odd prime ideals: norm first."""
    root = p.residue_root()
    return (p.norm(), root if root is not None else -1, p.q, p.sort_key())


def least_odd_prime(field: NumberField) -> PrimeIdeal:
    """The first odd prime ideal in _by_norm order over q <= CLASS_ENUM_BOUND,
    with the index divisors skipped.  A prime above q has norm >= q, so odd
    q are factored in increasing order only until q passes the least norm
    found so far."""
    primes = []
    for q in SMALL_PRIMES:
        if q > CLASS_ENUM_BOUND or primes and q > primes[0].norm():
            break
        if q == 2:
            continue
        try:
            primes = sorted(primes + factor_rational_prime(field, q),
                            key=_by_norm)
        except IndexDivisor:
            continue
    if not primes:
        raise SearchExhausted("no odd prime ideal within enumeration bound")
    return primes[0]


def _h_plus_from_unit_signs(field, h):
    """h 2^r1 / 2^rank, rank the F_2-rank of the unit generators' sign
    vectors: bit i of a generator's mask is set when it is negative at the
    real place i, and the xor span of the masks has 2^rank members."""
    r1 = field.signature[0]
    span = {0}
    for u in unit_generators(field).generators():
        mask = sum(1 << i for i in range(r1) if embedding_sign(u, i) < 0)
        span |= {s ^ mask for s in span}
    return h * 2 ** r1 // len(span)


def _find_generator(field, profile):
    """The first x of the coordinate walk with |N(x)| the ideal's norm that
    lies in the ideal, so generates it; None when the walk ends first."""
    target = prod(p.norm() ** v for p, v in profile.items())
    for coords in _shell_walk(field.degree):
        # coords are integral, so this is the norm of x; target >= 1, so
        # the zero vector fails here too
        if abs(field.num_norm(coords)) != target:
            continue
        x = FieldElement(field, coords)
        if all(valuation(x, p) >= v for p, v in profile.items()):
            return x
    return None
