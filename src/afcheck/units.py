"""Unit groups, class data and principal generators.

Fundamental units of real quadratic fields come from the continued fraction
of sqrt(d) (or a cube root of that unit, for d = 1 mod 4); totally real
cubic fields get a bounded-height coordinate search whose output pairs are
certified multiplicatively independent through integer log intervals: the
atanh series in fixed point, on dyadic embedding intervals.
Each new unit is paired with the earlier ones in search order: a one-round
interval certificate comes first, since it proves most independent pairs at
once; only a pair it leaves open is scanned for a small relation u^m v^k =
+-1 and, when none exists, certified with the full refinement schedule.  A
certificate is a proof, so the first certified pair is the same in either
order.  Class numbers of quadratic fields are counted through reduced binary
forms; principality questions are settled by a generator search that is
complete within a proven, unit-scaled coordinate bound.  Each ideal class
is represented by its first odd prime ideal in norm order, for every class
number: one lazy walk factors odd q in increasing order, tests a prime
against the classes so far once no later q can give a smaller one, and
factors no further q once h classes are represented, save the possible
index divisors.  The cubic unit pair and the class data are computed once
per field, the cubic class data per class number (NumberField.memo).
"""

from dataclasses import dataclass, field as dc_field
from itertools import product
from math import gcd, inf, isqrt

from .errors import (GeneratorNotFound, IndexDivisor, MissingUserClassNumber,
                     SearchExhausted, Unsupported)
from .integerfactor import SMALL_PRIMES, squarefree_part
from .numberfield import (FieldElement, NumberField, embedding_interval,
                          embedding_sign)
from .prime_ideals import PrimeIdeal, factor_rational_prime, valuation

# give-up cap on coordinate magnitude in unit searches; searches stop at the
# first certified pair, so this only bounds the hopeless case
UNIT_HEIGHT_BOUND = 10 ** 6

# odd q up to which class representatives are enumerated
CLASS_ENUM_BOUND = 100

# coordinate bound of the search for a generator of a power of a prime of S
# in degree >= 3 (quadratic fields use principal_generator)
GENERATOR_COORD_BOUND = 64

# give-up cap on the candidates one generator search tests: the full
# degree-3 box at GENERATOR_COORD_BOUND, so searches in degree <= 3 never
# reach it, while degree >= 4 stops long before (2*64+1)^n
GENERATOR_SEARCH_LIMIT = (2 * GENERATOR_COORD_BOUND + 1) ** 3

# continued-fraction steps one Pell solution may take; a period that long
# gives a fundamental unit of about PELL_STEP_BUDGET / 2 digits
PELL_STEP_BUDGET = 1 << 14

# steps of the two exhaustive real quadratic loops: the (b, |a|) pairs of
# the reduced indefinite forms of discriminant D (about 3D/4 of them, so D
# up to about 1.4 million fits) and the y of one principal_generator search
QUADRATIC_STEP_BUDGET = 1 << 20


# --------------------------------------------------------------- containers

@dataclass
class UnitGroup:
    rank: int
    fundamental_units: list
    torsion_order: int
    torsion_gen: FieldElement
    completeness: tuple

    def generators(self):
        return [self.torsion_gen] + list(self.fundamental_units)


@dataclass
class ClassData:
    h: int
    h_plus: int
    reps_H: list
    completeness: tuple
    notes: list = dc_field(default_factory=list)


# --------------------------------------------------- quadratic field data

def _quad_data(field: NumberField):
    """(d, m, b) with sqrt(d) = (2*theta + b)/m, d the squarefree core."""
    c0, b, _ = field.coeffs
    d0 = b * b - 4 * c0
    d = squarefree_part(d0)
    m = isqrt(d0 // d)
    return d, m, b


def sqrt_core_element(field: NumberField) -> FieldElement:
    """The element sqrt(d) for the squarefree core d of the discriminant."""
    return _quad_element(field, 0, 1, 1)


def _quad_element(field, x, y, den):
    """(x + y*sqrt(d))/den as a FieldElement, with sqrt(d) = (2*theta + b)/m."""
    _, m, b = _quad_data(field)
    return FieldElement(field, [x * m + y * b, 2 * y], m * den)


def _icbrt(n: int) -> int:
    """Exact floor cube root, integer-only (Pell solutions overflow floats)."""
    if n < 0:
        return -_icbrt(-n)
    if n < 2:
        return n
    lo, hi = 1, 1 << (n.bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * mid * mid <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _pell_fundamental(d: int):
    """Fundamental solution of x^2 - d y^2 = +-1 via the CF of sqrt(d).

    The period of the expansion can be about sqrt(d) long, so it may take
    PELL_STEP_BUDGET steps; past that SearchExhausted is raised."""
    a0 = isqrt(d)
    p_prev, q_prev = 1, 0
    p, q = a0, 1
    big_p, big_q = a0, d - a0 * a0
    for _ in range(PELL_STEP_BUDGET):
        # p^2 - d q^2 = +-big_q at every step
        if big_q == 1:
            return p, q
        a_k = (a0 + big_p) // big_q
        p, p_prev = a_k * p + p_prev, p
        q, q_prev = a_k * q + q_prev, q
        big_p_next = a_k * big_q - big_p
        big_q = (d - big_p_next * big_p_next) // big_q
        big_p = big_p_next
    raise SearchExhausted(
        f"continued fraction of sqrt({d}) has no period within "
        f"{PELL_STEP_BUDGET} steps")


def _quad_fundamental_unit(d: int):
    """(x, y, den, norm) with (x + y sqrt d)/den the fundamental unit of O_K.

    For d = 1 mod 4, [O_K^* : Z[sqrt d]^*] is 1 or 3: the Pell unit x1 + y1
    sqrt d is fundamental or the cube of e = (t + y sqrt d)/2, t odd, of
    the same norm n; e^3 has trace t^3 - 3nt = 2 x1, so t is within one of
    cbrt(2 x1), and y^2 = (t^2 - 4n)/d."""
    x1, y1 = _pell_fundamental(d)
    n = x1 * x1 - d * y1 * y1
    if d % 4 == 1:
        c = _icbrt(2 * x1)
        for t in (c, c + 1):
            if t % 2 == 0 or t ** 3 - 3 * n * t != 2 * x1:
                continue
            y2, rem = divmod(t * t - 4 * n, d)
            y = isqrt(y2)
            if not rem and y * y == y2:
                return t, y, 2, n
    return x1, y1, 1, n


def _quad_torsion(field, d):
    if d == -1:
        return 4, sqrt_core_element(field)
    if d == -3:
        return 6, _quad_element(field, 1, 1, 2)
    return 2, field.from_rational(-1)


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


def _abs_embedding(x: FieldElement, idx: int, p: int):
    """(lo, hi, q) with 0 < lo / 2^q <= |x| <= hi / 2^q under the real
    embedding idx, for a nonzero x: q is the first of p, 2p, 4p, ... whose
    interval leaves out zero."""
    while True:
        lo, hi = embedding_interval(x, idx, p)
        if lo > 0:
            return lo, hi, p
        if hi < 0:
            return -hi, -lo, p
        p *= 2


def _certified_independent(u: FieldElement, v: FieldElement, max_rounds=12):
    """True when the log-embedding vectors of u, v are provably non-parallel.

    Round r bounds ln|u| and ln|v| at the first two real places by integers
    over 2^w, w = 8r + 8, from embeddings to 8r bits; the 2x2 determinant
    ad - bc is then certified nonzero when the integer bounds of ad and bc,
    over 2^(2w), do not overlap."""
    for r in range(1, max_rounds + 1):
        p = 8 * r
        (a, b), (c, d) = [[_ln_interval(*_abs_embedding(x, idx, p), p + 8)
                           for idx in (0, 1)] for x in (u, v)]
        ad = [s * t for s in a for t in d]
        bc = [s * t for s in b for t in c]
        if min(ad) > max(bc) or max(ad) < min(bc):
            return True
    return False


def _small_relation(u: FieldElement, v: FieldElement, box=6):
    """Exact scan for u^m * v^k in {1, -1} with 0 < max(|m|,|k|) <= box."""
    for m in range(-box, box + 1):
        for k in range(-box, box + 1):
            if m == 0 and k == 0:
                continue
            w = (u ** m) * (v ** k)
            if w == 1 or w == -1:
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


def _cubic_fundamental_pair(field: NumberField):
    found = []
    h = 1
    while h <= UNIT_HEIGHT_BOUND:
        for coords in _shell(3, h):
            x = FieldElement(field, coords)
            if x.is_rational():
                continue
            if abs(x.norm()) != 1:
                continue
            found.append(x)
            for prev in found[:-1]:
                # one round proves most independent pairs; the relation scan
                # is only for the pairs it leaves open
                if _certified_independent(prev, x, max_rounds=1):
                    return [prev, x], h
                if _small_relation(prev, x):
                    continue
                if _certified_independent(prev, x):
                    return [prev, x], h
        h += 1
    raise SearchExhausted(
        "no independent unit pair within coordinate height "
        f"{UNIT_HEIGHT_BOUND}")


def unit_generators(field: NumberField) -> UnitGroup:
    """Unit group generators for degree <= 3: torsion and fundamental units.

    Imaginary quadratic fields return their torsion; mixed-signature cubics
    are unsupported.
    """
    n = field.degree
    if n == 1:
        return UnitGroup(0, [], 2, field.from_rational(-1), ("proven",))
    if n == 2:
        d, _, _ = _quad_data(field)
        if d < 0:
            order, gen = _quad_torsion(field, d)
            return UnitGroup(0, [], order, gen, ("proven",))
        x, y, den, _norm = _quad_fundamental_unit(d)
        unit = _quad_element(field, x, y, den)
        return UnitGroup(1, [unit], 2, field.from_rational(-1), ("proven",))
    if n == 3 and field.is_totally_real:
        units, used = field.memo("cubic_units",
                                 lambda: _cubic_fundamental_pair(field))
        return UnitGroup(2, list(units), 2, field.from_rational(-1),
                         ("bounded-search", used))
    raise Unsupported(f"unit group for degree {n}, signature {field.signature}")


# ------------------------------------------------------- form class numbers

def _fundamental_discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def _definite_class_number(D: int) -> int:
    """Count of reduced primitive positive definite forms of discriminant D < 0.

    Reduced: |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    count = 0
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            count += 1
    return count


def _reduced_indefinite_forms(D: int):
    s = isqrt(D)
    forms = []
    steps = 0
    for b in range(1, s + 1):
        steps += (s + b) // 2 + 1
        if steps > QUADRATIC_STEP_BUDGET:
            raise SearchExhausted(
                f"reduced forms of discriminant {D} need more than "
                f"{QUADRATIC_STEP_BUDGET} steps")
        if (b - D) % 2:
            continue
        n4 = b * b - D
        if n4 >= 0:
            continue
        prod = -n4 // 4
        for a_abs in range(1, (s + b) // 2 + 2):
            if prod % a_abs:
                continue
            # reduced: sqrt(D) - b < 2|a| < sqrt(D) + b, exact comparisons
            if D >= (2 * a_abs + b) ** 2:
                continue
            if 2 * a_abs > b and (2 * a_abs - b) ** 2 >= D:
                continue
            for a in (a_abs, -a_abs):
                c = -prod // a
                if gcd(gcd(abs(a), b), abs(c)) == 1:
                    forms.append((a, b, c))
    return forms


def _rho(form, D, s):
    a, b, c = form
    ac = abs(c)
    # r = -b mod 2|c|, shifted into (s - 2|c|, s]
    r = (-b) % (2 * ac)
    while r > s:
        r -= 2 * ac
    while r <= s - 2 * ac:
        r += 2 * ac
    return (c, r, (r * r - D) // (4 * c))


def _indefinite_cycle_count(D: int) -> int:
    forms = set(_reduced_indefinite_forms(D))
    s = isqrt(D)
    cycles = 0
    remaining = set(forms)
    while remaining:
        start = min(remaining)
        cycles += 1
        current = start
        while True:
            remaining.discard(current)
            current = _rho(current, D, s)
            if current == start:
                break
            if current not in forms:
                raise ArithmeticError("rho left the reduced set")
    return cycles


# ------------------------------------------------------ principality search

def _eps_ceiling(field) -> int:
    d, _, _ = _quad_data(field)
    if d < 0:
        return 1
    x, y, den, _ = _quad_fundamental_unit(d)
    return (x + y * (isqrt(d) + 1)) // den + 1


def principal_generator(field: NumberField, profile: dict):
    """Generator of the integral ideal with the given prime valuation profile,
    or None (certified, within a proven unit-scaled bound) for quadratic fields.
    The bound grows with the fundamental unit, so the search gives up with
    SearchExhausted after QUADRATIC_STEP_BUDGET values of y.
    """
    d, _, _ = _quad_data(field)
    target = 1
    for prime, k in profile.items():
        target *= prime.norm() ** k
    eps = _eps_ceiling(field)
    ybound = 2 * isqrt(target * eps // abs(d)) + 2
    candidates = []
    for y in range(0, ybound + 1):
        if y > QUADRATIC_STEP_BUDGET:
            raise SearchExhausted(
                f"no generator of norm {target} with y <= "
                f"{QUADRATIC_STEP_BUDGET}; the proven bound is {ybound}")
        for sgn in (-4, 4):
            t = d * y * y + sgn * target
            if t < 0:
                continue
            x = isqrt(t)
            if x * x != t:
                continue
            if (x * x - d * y * y) % 4:
                continue
            for xs in ((x,) if x == 0 else (x, -x)):
                for ys in ((y,) if y == 0 else (y, -y)):
                    alpha = _quad_element(field, xs, ys, 2)
                    if alpha.is_zero():
                        continue
                    if not alpha.is_algebraic_integer():
                        continue
                    if all(valuation(alpha, p) >= k for p, k in profile.items()):
                        candidates.append(alpha)
        if candidates:
            break
    if not candidates:
        return None
    candidates = [_canonical_sign(a) for a in candidates]
    candidates.sort(key=lambda a: (a.height(), a.coords))
    return candidates[0]


def _canonical_sign(x: FieldElement):
    """Fix the sign so the first nonzero coordinate is positive."""
    return -x if next((c for c in x.num if c), 0) < 0 else x


def _ideal_class_equal(field, p1: PrimeIdeal, p2: PrimeIdeal) -> bool:
    """[p1] == [p2] in the class group, via principality of p1 * conj(p2)."""
    if p1 == p2:
        return True
    conj = _conjugate_prime(field, p2)
    profile = {p1: 1}
    profile[conj] = profile.get(conj, 0) + 1
    return principal_generator(field, profile) is not None


def _conjugate_prime(field, p: PrimeIdeal) -> PrimeIdeal:
    others = [q for q in factor_rational_prime(field, p.q) if q != p]
    return others[0] if others else p


# ----------------------------------------------------------------- class data

def class_data(field: NumberField, *,
               user_class_number: int | None = None) -> ClassData:
    """Class number, narrow class number and odd-prime class representatives."""
    n = field.degree
    if n == 1:
        rep = factor_rational_prime(field, 3)[0]
        return ClassData(1, 1, [rep], ("proven",))
    if n == 2:
        return field.memo("class_data", lambda: _quadratic_class_data(field))
    if n == 3:
        if user_class_number is None:
            raise MissingUserClassNumber(
                "cubic class numbers are not computed; supply one with "
                "--user-class-number")
        return field.memo(("class_data", user_class_number),
                          lambda: _cubic_class_data(field, user_class_number))
    raise Unsupported(f"class data for degree {n}")


def _cubic_class_data(field, h):
    h_plus = _h_plus_from_unit_signs(field, h)
    reps, notes = ([], ["reps_H omitted: h > 1 unsupported for cubics"])
    if h == 1:
        reps, notes = _collect_reps(field, 1)
    return ClassData(h, h_plus, reps, ("user-supplied",), notes)


def _quadratic_class_data(field):
    d, _, _ = _quad_data(field)
    D = _fundamental_discriminant(d)
    if d < 0:
        h = _definite_class_number(D)
        h_plus = h
    else:
        h_plus = _indefinite_cycle_count(D)
        _, _, _, unit_norm = _quad_fundamental_unit(d)
        h = h_plus if unit_norm == -1 else h_plus // 2
    reps, notes = _collect_reps(field, h)
    return ClassData(h, h_plus, reps, ("proven",), notes)


def _by_norm(p: PrimeIdeal):
    """Enumeration order of odd prime ideals: norm first."""
    root = p.residue_root()
    return (p.norm(), root if root is not None else -1, p.q, p.sort_key())


def _collect_reps(field, h):
    """(reps, notes): the first odd prime ideal of each class, up to h of
    them, in _by_norm order over q <= CLASS_ENUM_BOUND, with the index
    divisors skipped.

    One lazy walk serves every h.  It factors odd q in increasing order and
    keeps the primes not yet placed sorted by _by_norm; a prime above q has
    norm >= q, so the least of them is final once the next q passes its norm,
    and only then is it tested against the representatives so far.  After
    the h-th one a larger q can still divide the index [O_K : Z[theta]] for
    the note, but then q^2 divides poly_disc, so only those q get the
    Dedekind test."""
    odd = [q for q in SMALL_PRIMES if 2 < q <= CLASS_ENUM_BOUND]
    reps, pending, skipped = [], [], []
    for q, next_q in zip(odd, odd[1:] + [inf]):
        if len(reps) == h and field.poly_disc % (q * q):
            continue
        try:
            primes = factor_rational_prime(field, q)
        except IndexDivisor:
            skipped.append(q)
            primes = []
        if len(reps) == h:
            continue
        pending = sorted(pending + primes, key=_by_norm)
        while pending and len(reps) < h and pending[0].norm() < next_q:
            p = pending.pop(0)
            if not any(_ideal_class_equal(field, p, r) for r in reps):
                reps.append(p)
    if not reps and h == 1:
        raise SearchExhausted("no odd prime ideal within enumeration bound")
    notes = ([f"index-divisor primes skipped in enumeration: {skipped}"]
             if skipped else [])
    if len(reps) < h:
        notes.append(f"only {len(reps)} of {h} classes represented "
                     f"within q <= {CLASS_ENUM_BOUND}")
    return reps, notes


def _h_plus_from_unit_signs(field, h):
    group = unit_generators(field)
    r1 = field.signature[0]
    vectors = []
    for u in group.generators():
        vec = tuple((1 - embedding_sign(u, i)) // 2 for i in range(r1))
        vectors.append(vec)
    rank = _f2_rank(vectors)
    return h * (2 ** r1) // (2 ** rank)


def _f2_rank(vectors):
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        pivot = next((i for i in range(len(rows))
                      if not used[i] and rows[i][c]), None)
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        for i in range(len(rows)):
            if i != pivot and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[pivot])]
    return rank


def _find_generator(field, profile, gen_bound):
    target = 1
    for p, v in profile.items():
        target *= p.norm() ** v
    if field.degree == 1:
        return field.from_rational(target)
    tested = 0
    for h in range(0, gen_bound + 1):
        for coords in _shell(field.degree, h):
            tested += 1
            if tested > GENERATOR_SEARCH_LIMIT:
                raise GeneratorNotFound(
                    h - 1, f"no generator found within coordinate bound "
                    f"{h - 1}; search stopped after {GENERATOR_SEARCH_LIMIT} "
                    f"candidates")
            # coords are integral, so this is the norm of x; target >= 1,
            # so the zero vector fails here too
            if abs(field.num_norm(coords)) != target:
                continue
            x = FieldElement(field, coords)
            if all(valuation(x, p) >= v for p, v in profile.items()):
                return x
    raise GeneratorNotFound(gen_bound)
