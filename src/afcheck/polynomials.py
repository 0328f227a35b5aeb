"""Exact univariate polynomial machinery over Z and F_p.

Polynomials are dense coefficient lists, lowest degree first, with no
trailing zeros; [] is the zero polynomial.  Coefficients are ints, in
[0, p) for modular ones.  Division by a monic polynomial is one top-down
pass, over Z (``zx_divmod``) and over F_p (``fp_divmod``); over Z the only
gcd is gcd(f, f'), the last member of the Sturm chain.  Everything here is
exact integer arithmetic; no Fraction and no floating point enters.

Real roots of a monic f are isolated over Z: the Sturm chain is a sequence
of scaled pseudo-remainders freed of their content, and a root is held as
a dyadic interval (lo, hi, k), integers lo <= hi standing for
[lo / 2^k, hi / 2^k].  Signs at such an endpoint come from integer Horner
with shifts, refinement bisects on the same integers, and interval Horner
bounds a polynomial over the interval by integers over a power of 2.  The
bisection starts from (-b, b), b the Cauchy bound; its end counts are the
chain's sign variations at -oo and +oo, read off the leading coefficients,
since no root lies outside it and only differences of counts are used.
The chain is a primitive remainder sequence of f and f', so its last member
is gcd(f, f') up to sign: constant for a squarefree f, and the divisor
that ``zx_factor`` takes out of f.

Linear factors are settled by the rational-root test before any modular
work (``integer_roots``): a nonzero integer root of a monic f divides its
lowest nonzero coefficient c, so trying +-1..+-16 finds every root of that
size, and the list is provably complete when |c| <= 16 or when no root can
be as large as 17.  A root
proves reducibility at once; a complete empty list proves a quadratic or
cubic irreducible with no prime spent, and rules out factors of degree 1
and n - 1 in degrees 4-6.  Irreducibility over Z is otherwise proven from
the factor degrees modulo small primes (distinct-degree factorization
only).  ``zx_factor`` divides the integer roots out of the squarefree
part f / gcd(f, f') first; Zassenhaus factoring with Hensel lifting covers
what is left unless a complete list leaves it irreducible.

A value mod q is the Z value reduced: products and differences are taken
over Z and reduced once, and ``fp_gcd`` reduces its own copies.  Powers
mod (f, q) run on an F_q kernel built per (f, q) and dropped with the call
(``FqKernel``): a table of x^k mod f filled by shifts, a multiply-and-reduce
over it, and the Frobenius matrix whose rows are x^(iq) mod f.
Distinct-degree factorization steps h -> h^q as one matrix-vector product,
and equal-degree splitting takes the conjugates h^(q^i) the same way
(Cohen, GTM 138, Section 3.4), so both the degree patterns and
``fp_factor`` (Dedekind, splitting types, Zassenhaus) pay for x^q once per
squarefree part.  A constant gcd(f, f') ends the squarefree decomposition
at once: f is its own and only part.  The discriminant of a monic f of
degree n is (-1)^(n(n-1)/2) N(f'(theta)), the determinant of the n x n
multiplication matrix of f'(theta), since Res(f, f') = N(f'(theta)).
Hensel lifting is quadratic (von zur Gathen and Gerhard, Modern Computer
Algebra, Alg. 15.10): the factors and their Bezout pair are lifted together
from p^j to p^(2j).
"""

from functools import reduce
from itertools import combinations
from math import gcd, isqrt

from . import linalg
from .integerfactor import SMALL_PRIMES, is_prime


# ---------------------------------------------------------------- basics

def strip(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p):
    return len(p) - 1


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return strip(out)


def pneg(a):
    return [-c for c in a]


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return strip(out)


def pderiv(p):
    return strip([i * c for i, c in enumerate(p)][1:])


def sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------- Sturm and isolation

def _primitive(p):
    """Integer p divided by its positive content."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _scaled_rem(a, b):
    """Remainder of |lc(b)|^k * a by b over Z for the least k that keeps it
    integral: a positive multiple of the remainder of a by b over Q."""
    a = list(a)
    lead = b[-1]
    scale, flip = abs(lead), 1 if lead > 0 else -1
    nb = len(b) - 1
    while len(a) > nb:
        # scale * top - c * lead = 0, so the top coefficient drops out
        c = a.pop() * flip
        k = len(a) - nb
        if scale != 1:
            a = [scale * x for x in a]
        for i in range(nb):
            a[i + k] -= c * b[i]
        while a and not a[-1]:
            a.pop()
    return a


def sturm_chain(p):
    """Sturm sequence of a squarefree integer polynomial.

    Each member is a positive multiple of the classical member over Q (the
    remainders are scaled by powers of |lc| and freed of their content), so
    the two chains have the same signs everywhere.  For any p of degree
    >= 1 the last member is gcd(p, p') up to a constant factor."""
    p = _primitive(p)
    if degree(p) < 1:
        return [p] if p else []
    chain = [p, _primitive(pderiv(p))]
    while True:
        rem = _scaled_rem(chain[-2], chain[-1])
        if not rem:
            return chain
        chain.append(_primitive(pneg(rem)))


def _scaled_value(p, m, j):
    """sum c_i m^i 2^(j(k-i)) for p = c_0..c_k: 2^(jk) p(m / 2^j), which
    has the sign of p at m / 2^j."""
    acc, shift = 0, 0
    for c in reversed(p):
        acc = acc * m + (c << shift)
        shift += j
    return acc


def _chain_variations(chain, m, j):
    """Sign variations of the chain at m / 2^j."""
    count, last = 0, 0
    for p in chain:
        s = sign(_scaled_value(p, m, j))
        if s:
            if s == -last:
                count += 1
            last = s
    return count


def _end_variations(chain):
    """Sign variations of the chain at -oo and at +oo: each member has the
    sign of its leading coefficient at +oo, times (-1)^degree at -oo, and
    none of these signs is zero."""
    top = [sign(p[-1]) for p in chain]
    low = [s if len(p) % 2 else -s for s, p in zip(top, chain)]
    return tuple(sum(a != b for a, b in zip(signs, signs[1:]))
                 for signs in (low, top))


def isolate_real_roots(f):
    """Isolating intervals for the real roots of a monic squarefree integer
    polynomial f.

    Returns triples (lo, hi, k), integers standing for [lo / 2^k, hi / 2^k],
    sorted; a degree-one f yields the exact point (r, r, 0).  For degree >= 2
    f must have no rational roots (true for irreducible defining
    polynomials), so endpoints never collide with a root and each interval
    holds exactly one simple root with a sign change between its endpoints.
    A repeated root makes the last member of the Sturm chain, gcd(f, f') up
    to a constant, nonconstant, and raises ValueError before any bisection.

    The search bisects (-b, b), b the Cauchy bound 1 + max |f_i|, so every
    endpoint at depth k is an integer over 2^k, and the Sturm chain is
    evaluated at each midpoint by integer Horner with shifts.
    """
    if not f or f[-1] != 1:
        raise ValueError("isolate_real_roots expects a monic polynomial")
    if degree(f) == 0:
        return []
    if degree(f) == 1:
        return [(-f[0], -f[0], 0)]
    chain = sturm_chain(f)
    if degree(chain[-1]) > 0:
        raise ValueError("isolate_real_roots expects a squarefree polynomial")
    bound = 1 + max(abs(c) for c in f[:-1])
    out = []
    # (lo, hi, depth, variations at lo, at hi), endpoints over 2^depth: the
    # interval holds the difference in roots, in (lo, hi].  At -bound and
    # bound the counts at -oo and +oo stand in, read off the leading
    # signs: no root lies outside (-bound, bound), so each difference they
    # enter into is unchanged
    work = [(-bound, bound, 0, *_end_variations(chain))]
    while work:
        lo, hi, k, vlo, vhi = work.pop()
        cnt = vlo - vhi
        if cnt == 0:
            continue
        if cnt == 1:
            if sign(_scaled_value(f, lo, k)) \
                    * sign(_scaled_value(f, hi, k)) >= 0:
                raise ArithmeticError("isolation endpoint touched a root")
            out.append((lo, hi, k))
            continue
        mid, k = lo + hi, k + 1
        vmid = _chain_variations(chain, mid, k)
        work.append((2 * lo, mid, k, vlo, vmid))
        work.append((mid, 2 * hi, k, vmid, vhi))
    # the upper half of each split is popped first, so the roots came out
    # in decreasing order
    out.reverse()
    return out


def refine_root(f, root, k):
    """The isolating triple root = (lo, hi, j) of a root of f, bisected
    until its endpoints are over 2^k.

    Each step keeps the half holding the root: f keeps its sign at lo, as
    no root lies between the first lo and the root."""
    lo, hi, j = root
    s = sign(_scaled_value(f, lo, j))
    while j < k:
        mid, lo, hi, j = lo + hi, 2 * lo, 2 * hi, j + 1
        if sign(_scaled_value(f, mid, j)) == s:
            lo = mid
        else:
            hi = mid
    return lo, hi, j


def interval_eval(p, lo, hi, k):
    """Integers (a, b) with a <= 2^(k*d) p(x) <= b for every x in
    [lo / 2^k, hi / 2^k], d = len(p) - 1: interval Horner on the integers
    lo, hi, each coefficient shifted to the common denominator."""
    a = b = p[-1]
    shift = 0
    for c in reversed(p[:-1]):
        shift += k
        prods = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(prods) + (c << shift), max(prods) + (c << shift)
    return a, b


# ----------------------------------------------------------- F_p machinery

def fp_norm(p, q):
    return strip([c % q for c in p])


def fp_divmod(a, b, q):
    """Quotient and remainder of a by b over F_q, q prime, or modulo any q
    when b is monic: one top-down pass over a copy of a."""
    if not b:
        raise ZeroDivisionError
    a = list(a)
    n = len(b) - 1
    inv = pow(b[-1], q - 2, q)
    quo = [0] * max(0, len(a) - n)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = a[k + n] * inv % q
        if c:
            for i in range(n):
                a[i + k] = (a[i + k] - c * b[i]) % q
    return strip(quo), strip(a[:n])


def fp_monic(a, q):
    if not a:
        return a
    inv = pow(a[-1], q - 2, q)
    return [c * inv % q for c in a]


def fp_gcd(a, b, q):
    """Monic gcd of a and b over F_q, q prime: Euclid's algorithm on reduced
    copies of a and b, each remainder computed in place in its dividend."""
    a, b = fp_norm(a, q), fp_norm(b, q)
    while b:
        n = len(b) - 1
        inv = pow(b[-1], q - 2, q)
        for k in range(len(a) - n - 1, -1, -1):
            c = a[k + n] * inv % q
            if c:
                for i in range(n):
                    a[i + k] = (a[i + k] - c * b[i]) % q
        del a[n:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return fp_monic(a, q)


def _fp_sqf(f, q):
    """Squarefree decomposition of a monic nonconstant f over F_q, q prime,
    with coefficients in [0, q): list of (factor, mult).  A constant
    gcd(f, f') makes f squarefree, and f is returned as its only part."""
    out = []
    d = fp_norm(pderiv(f), q)
    if not d:
        # f = g(x^q) = g(x)^q since Frobenius fixes F_q
        g = [f[i] for i in range(0, len(f), q)]
        return [(fac, m * q) for fac, m in _fp_sqf(strip(g), q)]
    c = fp_gcd(f, d, q)
    if degree(c) == 0:
        return [(f, 1)]
    w = fp_divmod(f, c, q)[0]
    i = 1
    while degree(w) > 0:
        y = fp_gcd(w, c, q)
        z = fp_divmod(w, y, q)[0]
        if degree(z) > 0:
            out.append((fp_monic(z, q), i))
        w, c = y, fp_divmod(c, y, q)[0]
        i += 1
    if degree(c) > 0:
        g = strip([c[j] for j in range(0, len(c), q)])
        out.extend((fac, m * q) for fac, m in _fp_sqf(g, q))
    return out


class FqKernel:
    """Arithmetic in F_q[x]/(f) for one monic f of degree n >= 2, q prime.

    Residues are dense lists of n coefficients in [0, q).  The table holds
    x^k mod f for k <= top, each from the one before by a shift, where
    top = 2n - 2, or q when shifting on to x^q is cheaper than squaring;
    ``mulmod`` multiplies two residues and folds the high part of the
    product back through it, reducing mod q once per coefficient; ``pow``
    squares and multiplies on it, and gives ``xq`` = x^q mod f when q is
    past the table.  The Frobenius matrix has the rows x^(iq) mod f,
    0 <= i < n (Cohen, GTM 138, Section 3.4): the q-th power is F_q-linear
    and fixes F_q, so h^q = sum_i h_i x^(iq), one matrix-vector product.
    It is built on the first ``frobenius`` call.
    """

    __slots__ = ("f", "q", "n", "_powers", "_high", "xq", "_frob")

    def __init__(self, f, q):
        n = len(f) - 1
        self.f, self.q, self.n = f, q, n
        # shifting from x^(2n-2) on to x^q costs about (q - 2n) * n
        # products, squaring about 2n^2 per bit of q
        top = 2 * n - 2
        if top < q and q - 2 * n < 2 * n * q.bit_length():
            top = q
        powers = [[0] * k + [1] + [0] * (n - 1 - k) for k in range(n)]
        while len(powers) <= top:
            powers.append(self._times_x(powers[-1]))
        self._powers, self._high = powers, powers[n:]
        self.xq = powers[q] if q <= top else self.pow(powers[1], q)
        self._frob = None

    def _times_x(self, r):
        f, q, lead = self.f, self.q, r[-1]
        return [-lead * f[0] % q] + [(r[i - 1] - lead * f[i]) % q
                                     for i in range(1, self.n)]

    def mulmod(self, a, b):
        """a * b mod f."""
        n = self.n
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    prod[j] += ca * cb
        return self._fold(prod[:n], prod[n:], self._high)

    def pow(self, h, e):
        """h^e mod f for e >= 1: from the top bit of e down, square and
        multiply by h at each set bit."""
        out = h
        for bit in bin(e)[3:]:
            out = self.mulmod(out, out)
            if bit == "1":
                out = self.mulmod(out, h)
        return out

    def frobenius(self, h):
        """h^q mod f."""
        if self._frob is None:
            powers, xq = self._powers, self.xq
            rows = [powers[0], xq]
            for i in range(2, self.n):
                k = i * self.q
                rows.append(powers[k] if k < len(powers)
                            else self.mulmod(rows[-1], xq))
            self._frob = rows
        return self._fold([0] * self.n, h, self._frob)

    def _fold(self, out, coeffs, rows):
        """out + sum_k coeffs[k] * rows[k], each coefficient reduced mod q."""
        for c, row in zip(coeffs, rows):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        q = self.q
        return [o % q for o in out]


def _fp_ddf(f, q, kernel):
    """Distinct-degree split of monic squarefree f: list of (product, d).

    kernel is the FqKernel of f, or of a multiple of f; None when f has
    degree < 2.  h = x^(q^d) mod f steps through its Frobenius matrix.  The
    factors of degree d of what is left of f divide h - x, and h reduced
    mod a divisor of f is h mod that divisor, so the one kernel serves
    throughout."""
    out = []
    d, h = 0, None
    while 2 * (d + 1) <= degree(f):
        d += 1
        h = kernel.xq if h is None else kernel.frobenius(h)
        g = fp_gcd(psub(h, [0, 1]), f, q)
        if degree(g) > 0:
            out.append((g, d))
            f = fp_divmod(f, g, q)[0]
    if degree(f) > 0:
        out.append((f, degree(f)))
    return out


def _candidate_polys(deg_lim, q):
    """Deterministic finite stream of nonconstant polys of degree < deg_lim
    over F_q: the digits of k in base q, k >= q, so the top one is nonzero."""
    for k in range(q, q ** deg_lim):
        digits = []
        while k:
            digits.append(k % q)
            k //= q
        yield digits


def _split_witness(h, d, kernel):
    """w mod kernel.f from the conjugates h^(q^i), 0 <= i < d, each from the
    last by the Frobenius matrix: their sum (the trace) for q = 2, else
    their product (the norm) to the power (q-1)/2, less 1, which is
    h^((q^d-1)/2) - 1 (Cohen, GTM 138, Section 3.4)."""
    q = kernel.q
    conj = acc = h
    for _ in range(d - 1):
        conj = kernel.frobenius(conj)
        acc = padd(acc, conj) if q == 2 else kernel.mulmod(acc, conj)
    return acc if q == 2 else psub(kernel.pow(acc, (q - 1) // 2), [1])


def _fp_edf(f, d, q, kernel):
    """Equal-degree split: f monic squarefree, all factors of degree d, by
    gcd(h, f) or gcd(_split_witness, f) for candidates h; kernel as for
    _fp_ddf."""
    n = degree(f)
    if n == d:
        return [f]
    for h in _candidate_polys(n, q):
        g = fp_gcd(h, f, q)
        if degree(g) == 0:
            g = fp_gcd(_split_witness(h, d, kernel), f, q)
        if 0 < degree(g) < n:
            return _fp_edf(g, d, q, kernel) + _fp_edf(
                fp_divmod(f, g, q)[0], d, q, kernel)
    raise AssertionError("unreachable: split candidates exhausted")


def fp_factor(f, q):
    """Factor f over F_q into monic irreducibles: list of (poly, mult), sorted."""
    f = fp_norm(f, q)
    if degree(f) < 1:
        return []
    out = []
    for part, mult in _fp_sqf(fp_monic(f, q), q):
        kernel = FqKernel(part, q) if degree(part) >= 2 else None
        for prod, d in _fp_ddf(part, q, kernel):
            for irr in _fp_edf(prod, d, q, kernel):
                out.append((irr, mult))
    out.sort(key=lambda t: (degree(t[0]), t[0]))
    return out


# -------------------------------------------------- factorization over Z

def _hensel_pair(f, g, h, p, pk):
    """Lift f = g*h (mod p), g and h monic and coprime mod p, to mod pk.

    Quadratic lift (von zur Gathen and Gerhard, Modern Computer Algebra,
    Alg. 15.10): each step goes from modulus m to m' = min(m^2, pk), which
    divides m^2, and corrects the factors and the Bezout pair s*g + t*h = 1
    together, so pk = p^k is reached in about log2(k) steps; the last step
    leaves the pair alone.  Products are taken over Z and reduced once, and
    the divisor h is monic, so division is exact modulo the composite m'.
    """
    _gcd1, s, t = _fp_xgcd(g, h, p)
    m = p
    while m < pk:
        m = min(m * m, pk)
        e = fp_norm(psub(f, pmul(g, h)), m)
        quo, rem = fp_divmod(pmul(s, e), h, m)
        g = fp_norm(padd(pmul(padd(quo, [1]), g), pmul(t, e)), m)
        h = fp_norm(padd(h, rem), m)
        if m < pk:
            b = fp_norm(padd(padd(pmul(s, g), pmul(t, h)), [-1]), m)
            quo, rem = fp_divmod(pmul(s, b), h, m)
            s = fp_norm(psub(s, rem), m)
            t = fp_norm(psub(t, padd(pmul(t, b), pmul(quo, g))), m)
    if fp_norm(psub(f, pmul(g, h)), pk):
        raise AssertionError("Hensel lift is not a factorization mod pk")
    return g, h


def _fp_xgcd(a, b, q):
    r0, r1 = fp_norm(a, q), fp_norm(b, q)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        quo, rem = fp_divmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, fp_norm(psub(s0, pmul(quo, s1)), q)
        t0, t1 = t1, fp_norm(psub(t0, pmul(quo, t1)), q)
    inv = pow(r0[-1], q - 2, q)
    return tuple([c * inv % q for c in p] for p in (r0, s0, t0))


def _hensel_list(f, facs, p, pk):
    """Lift a list of pairwise-coprime monic factors of f mod p to mod pk."""
    if len(facs) == 1:
        return [strip([c % pk for c in f])]
    h0 = fp_norm(reduce(pmul, facs[1:]), p)
    g, h = _hensel_pair(f, facs[0], h0, p, pk)
    return [g] + _hensel_list(h, facs[1:], p, pk)


def _center(c, pk):
    c %= pk
    return c - pk if c > pk // 2 else c


def zx_divmod(a, b):
    """Quotient and remainder of the integer polynomial a by the monic b
    over Z: one top-down pass over a copy of a."""
    a = list(a)
    n = len(b) - 1
    quo = [0] * max(0, len(a) - n)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = a[k + n]
        if c:
            for i in range(n):
                a[i + k] -= c * b[i]
    return strip(quo), strip(a[:n])


def _odd_primes():
    """3, 5, 7, ...: the trial-division table, then is_prime past it."""
    yield from SMALL_PRIMES[1:]
    cand = SMALL_PRIMES[-1] + 2
    while True:
        if is_prime(cand):
            yield cand
        cand += 2


def _zx_factor_squarefree(f):
    """Zassenhaus: factor a monic squarefree integer polynomial of degree
    >= 2.

    The prime is the least odd one that keeps f squarefree of its degree;
    only the finitely many primes dividing disc(f) != 0 fail that."""
    n = degree(f)
    for p in _odd_primes():
        fb = fp_norm(f, p)
        if degree(fb) == n and degree(fp_gcd(fb, pderiv(fb), p)) == 0:
            break
    modular = [g for g, _ in fp_factor(f, p)]
    if len(modular) == 1:
        return [f]
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = 2 ** (n + 1) * norm2
    pk = p
    while pk <= 2 * bound:
        pk *= p
    lifted = _hensel_list(f, modular, p, pk)
    factors = []
    remaining = list(range(len(lifted)))
    current = list(f)
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for subset in combinations(remaining, size):
            prod = reduce(pmul, [lifted[i] for i in subset])
            cand = strip([_center(c % pk, pk) for c in prod])
            if not cand or cand[-1] != 1:
                continue
            quo, rem = zx_divmod(current, cand)
            if not rem:
                factors.append(cand)
                current = quo
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if degree(current) > 0:
        factors.append(current)
    return factors


def zx_factor(f):
    """Factor a monic integer polynomial into monic irreducibles.

    Returns a list of (factor, multiplicity), sorted by (degree, coefficients).
    g = gcd(f, f') holds each factor to one power less than f, so f / g is
    squarefree and a multiplicity is 1 plus the times the factor divides g.
    g is the last member of the Sturm chain of f with its sign made
    positive: the chain is a primitive remainder sequence of f and f', and a
    primitive divisor of the monic f is monic up to sign (Gauss).
    """
    f = strip(list(f))
    if not f or f[-1] != 1:
        raise ValueError("zx_factor expects a monic integer polynomial")
    if degree(f) == 0:
        return []
    g = sturm_chain(f)[-1]
    if g[-1] < 0:
        g = pneg(g)
    out = []
    for irr in _zx_factor_part(zx_divmod(f, g)[0]):
        mult = 1
        while degree(g) > 0:
            quo, rem = zx_divmod(g, irr)
            if rem:
                break
            mult, g = mult + 1, quo
        out.append((irr, mult))
    out.sort(key=lambda t: (degree(t[0]), t[0]))
    return out


def _zx_factor_part(f):
    """Irreducible factors of a monic squarefree f: the linear ones from its
    integer roots, then Zassenhaus on the quotient, unless that quotient
    has degree <= 1, or degree <= 3 with the root list complete (no linear
    factor left, so no factor at all)."""
    roots, complete = integer_roots(f)
    factors = []
    for r in roots:
        factors.append([-r, 1])
        f = zx_divmod(f, [-r, 1])[0]
    if degree(f) == 0:
        return factors
    if degree(f) == 1 or (degree(f) <= 3 and complete):
        return factors + [f]
    return factors + _zx_factor_squarefree(f)


# largest |r| the integer-root step tries: a miss costs at most 32 Horner
# evaluations
_ROOT_CAP = 16


def integer_roots(f):
    """(roots, complete) for a monic integer polynomial f of degree >= 1.

    roots are the integer roots of f of absolute value <= 16, ascending
    and distinct: 0 when f(0) = 0, and +-r with r dividing the lowest
    nonzero coefficient c of f, since a nonzero integer root of f / x^k
    divides c.  complete says they are all its integer roots, which holds
    when |c| <= 16, and when 17^n > sum_(i<n) |f_i| 17^i, since then
    |f(r)| >= |r|^n - sum |f_i| |r|^i > 0 at every |r| >= 17 (Cauchy's
    bound; the test passes whenever every |f_i| <= 16).

    For deg f >= 2 a root proves f reducible, and a complete empty list
    proves that f has no factor of degree 1 or deg f - 1, at the cost of a
    few Horner evaluations and before any prime is spent."""
    k = 0
    while not f[k]:
        k += 1
    g = f[k:]
    c = g[0]
    roots = [0] if k else []
    for r in range(1, min(abs(c), _ROOT_CAP) + 1):
        if c % r == 0:
            roots += [s for s in (-r, r) if _scaled_value(g, s, 0) == 0]
    roots.sort()
    cap = _ROOT_CAP + 1
    complete = abs(c) <= _ROOT_CAP or _scaled_value(
        [abs(a) for a in f[:-1]], cap, 0) < cap ** degree(f)
    return roots, complete


# Musser, "On the efficiency of a polynomial irreducibility test" (JACM
# 1978): a handful of primes usually leaves no proper factor degree.
_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_PATTERN_TRIES = 6


def irreducible_by_degree_patterns(f, disc, no_linear):
    """True when the factor degrees of the monic f modulo small primes prove
    it irreducible over Z; False when they leave the question open.

    disc = poly_disc(f) must be nonzero.  Modulo a prime q not dividing disc,
    f is squarefree, and a factor of f over Z of degree k reduces to a product
    of some of the irreducible factors of f modulo q, so k is a sum of some of
    their degrees (distinct-degree factorization gives those degrees without
    splitting).  f is irreducible once no degree 0 < k < deg f is such a sum
    at every prime tried.  no_linear says f is known to have no linear
    factor (``integer_roots``), so neither degree 1 nor deg f - 1 is open:
    a quadratic or cubic is then irreducible with no prime tried.
    """
    n = degree(f)
    possible = set(range(1 + no_linear, n - no_linear))
    tries = 0
    for q in _PATTERN_PRIMES:
        if not possible or tries == _PATTERN_TRIES:
            break
        if disc % q == 0:
            continue
        tries += 1
        sums = {0}
        fq = fp_norm(f, q)
        for prod, d in _fp_ddf(fq, q, FqKernel(fq, q)):
            for _ in range(degree(prod) // d):
                sums |= {s + d for s in sums}
        possible &= sums
    return not possible


# ---------------------------------------------------------- discriminants

def mul_matrix(f, g):
    """Integer matrix of multiplication by g(theta) on Z[theta], theta a root
    of the monic f of degree n and g of degree < n, in the power basis:
    column j is theta^j * g(theta)."""
    n = degree(f)
    col = list(g) + [0] * (n - len(g))
    cols = [col]
    for _ in range(n - 1):
        top = col[-1]
        col = [-top * f[0]] + [col[i - 1] - top * f[i] for i in range(1, n)]
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def poly_disc(f):
    """Discriminant of a monic integer polynomial of degree n:
    (-1)^(n(n-1)/2) * Res(f, f'), and Res(f, f') = N(f'(theta)) for monic f,
    the determinant of the n x n multiplication matrix of f'(theta)."""
    n = degree(f)
    if n <= 0:
        raise ValueError("discriminant needs degree >= 1")
    if f[-1] != 1:
        raise ValueError("poly_disc expects a monic polynomial")
    if n == 1:
        return 1
    res = linalg.det(mul_matrix(f, pderiv(f)))
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return s * res
