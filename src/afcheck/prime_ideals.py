"""Prime ideal factorization, splitting classification and valuations.

Rational primes are factored through the reduction of the defining
polynomial, guarded by the Dedekind index criterion: a prime dividing the
index of Z[theta] in the maximal order raises IndexDivisor rather than
producing silently wrong data.  The index squares into poly_disc, so the
criterion runs only at a prime whose square divides poly_disc; every other
prime is prime to the index.  Valuations of rationals come from the
integers: v_P(m/d) = e * (v_q(m) - v_q(d)).  Other valuations come from the
integers too: the numerator is multiplied by the cofactor f/g mod q of the
prime's generator g, and one count is taken per division by q that leaves
integer coordinates (see valuation); no anti-uniformizer is searched for
or stored.
"""

from math import gcd

from .errors import FactorizationIncomplete, IndexDivisor, ZeroElement
from .integerfactor import factorint, is_prime
from .numberfield import FieldElement, NumberField
from .polynomials import (degree, fp_divmod, fp_factor, fp_gcd, fp_norm,
                          pmul, psub)


class PrimeIdeal:
    """A prime of O_K over q, as the two-element ideal (q, g(theta))."""

    def __init__(self, field: NumberField, q: int, e: int, f: int, gen_coeffs):
        self.field = field
        self.q = q
        self.e = e
        self.f = f
        self.gen_coeffs = tuple(int(c) % q for c in gen_coeffs)

    def norm(self):
        return self.q ** self.f

    def residue_root(self):
        """Root of a degree-one generator polynomial in F_q, else None."""
        if self.f == 1 and len(self.gen_coeffs) == 2:
            return (-self.gen_coeffs[0]) % self.q
        return None

    def sort_key(self):
        root = self.residue_root()
        tail = (root,) if root is not None else self.gen_coeffs
        return (-self.e, self.f, tail)

    def __eq__(self, other):
        return (isinstance(other, PrimeIdeal)
                and self.field == other.field and self.q == other.q
                and self.gen_coeffs == other.gen_coeffs
                and (self.e, self.f) == (other.e, other.f))

    def __hash__(self):
        return hash((self.field.coeffs, self.q, self.e, self.f, self.gen_coeffs))

    def __repr__(self):
        return f"PrimeIdeal(q={self.q}, e={self.e}, f={self.f}, g={list(self.gen_coeffs)})"

    def to_dict(self):
        return {"q": self.q, "e": self.e, "f": self.f,
                "gen_poly": list(self.gen_coeffs)}

    def key(self):
        gens = ",".join(map(str, self.gen_coeffs))
        return f"{self.q}|e{self.e}f{self.f}|[{gens}]"


_factor_cache: dict = {}


def factor_rational_prime(field: NumberField, q: int):
    """Primes of O_K above q via Dedekind factorization, canonically sorted.

    poly_disc = [O_K : Z[theta]]^2 * d_K (Cohen, GTM 138, Section 6.1), so q
    can divide the index only when q^2 divides poly_disc; only then does
    the index criterion run, and its failure raises IndexDivisor(q).  Either
    way Z[theta] is q-maximal when primes are returned.  A q that is not
    prime raises ValueError.
    """
    cache_key = (field.coeffs, q)
    if cache_key in _factor_cache:
        return list(_factor_cache[cache_key])
    if not is_prime(q):
        raise ValueError(f"{q} is not a prime")
    factors = fp_factor(field.coeffs, q)
    if field.poly_disc % (q * q) == 0:
        _dedekind_gate(field, q, factors)
    primes = [PrimeIdeal(field, q, e, degree(g), g) for g, e in factors]
    primes.sort(key=PrimeIdeal.sort_key)
    _factor_cache[cache_key] = tuple(primes)
    return list(primes)


def _dedekind_gate(field, q, factors):
    g_rad, h_cof = [1], [1]
    for gbar, e in factors:
        g_rad = pmul(g_rad, gbar)
        for _ in range(e - 1):
            h_cof = pmul(h_cof, gbar)
    g_rad, h_cof = fp_norm(g_rad, q), fp_norm(h_cof, q)
    diff = psub(pmul(g_rad, h_cof), list(field.coeffs))
    if any(c % q for c in diff):
        raise ArithmeticError("lift product not congruent to f")
    t_bar = fp_norm([c // q for c in diff], q)
    common = fp_gcd(fp_gcd(t_bar, g_rad, q), h_cof, q)
    if degree(common) > 0:
        raise IndexDivisor(q)


def splitting_type(field: NumberField, q: int) -> dict:
    """Shape of q*O_K: its (e, f) pattern, its kind and the three named
    predicates of interest.  For degree-one fields all predicates hold
    simultaneously and the kind reported is "totally-split"."""
    primes = factor_rational_prime(field, q)
    n = field.degree
    pattern = tuple((p.e, p.f) for p in primes)
    inert = len(primes) == 1 and primes[0].f == n
    ram = len(primes) == 1 and primes[0].e == n
    split = len(primes) == n and all(p.e == 1 and p.f == 1 for p in primes)
    if split:
        kind = "totally-split"
    elif inert:
        kind = "inert"
    elif ram:
        kind = "totally-ramified"
    else:
        kind = "mixed"
    return {"pattern": pattern, "kind": kind, "inert": inert,
            "totally_ramified": ram, "totally_split": split}


def verified_field_disc(field: NumberField):
    """The field discriminant, when the power basis certifies it; else None.

    The index [O_K : Z[theta]] squares into poly_disc, so a Dedekind pass at
    every prime whose square divides poly_disc proves index 1 and
    field_disc = poly_disc.  A gate failure leaves the true discriminant
    undetermined here (reported as None, never guessed)."""
    if field.field_disc is not None:
        return field.field_disc
    try:
        factors = factorint(field.poly_disc)
    except FactorizationIncomplete:
        return None
    for q, e in factors.items():
        if e >= 2:
            try:
                factor_rational_prime(field, q)
            except IndexDivisor:
                return None
    field.field_disc = field.poly_disc
    return field.field_disc


def s_k(field: NumberField):
    """All primes of O_K above 2."""
    return factor_rational_prime(field, 2)


def u_k(field: NumberField):
    """Primes P above 2 with gcd(3, v_P(2)) = 1."""
    return [p for p in s_k(field) if gcd(3, p.e) == 1]


# ------------------------------------------------------------- valuations

def int_valuation(n: int, q: int) -> int:
    """Exponent of q in the nonzero integer n."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def valuation(x: FieldElement, prime: PrimeIdeal) -> int:
    """v_P(x) for nonzero x, as a fractional-ideal valuation.

    A non-rational x = num/den is valued on the integers.  Let P = (q, g(theta))
    and h the cofactor f/g mod q, lifted to Z[x]; beta = h(theta)/q.
    - h(theta)*g(theta) = (f + q*t)(theta) = q*t(theta) for an integer
      polynomial t, so beta takes both generators of P into Z[theta]:
      beta*P is integral and v_P(beta) >= -1.
    - h holds every other factor of f mod q at its full power, so
      v_P'(h(theta)) >= e' = v_P'(q) at each other prime P' over q, and
      v_P'(beta) >= 0.
    - h is nonzero mod q of degree < n, so beta is not in Z[theta] localized
      at q.  Z[theta] is q-maximal, as factor_rational_prime returned P:
      either the Dedekind gate passed at q, or q^2 does not divide
      poly_disc = index^2 * d_K, so q is prime to the index.  So beta is
      not integral at q, and only P is left to fail: v_P(beta) = -1.
    - By q-maximality again, y/q with y in Z[theta] is integral at q
      exactly when every coordinate of y is divisible by q.
    So num*beta^k is integral at q exactly for k <= v_P(num).  Starting
    from y = num*h, count one and set y = (y/q)*h while every coordinate of
    y is divisible by q: the count is v_P(num), and v_P(x) is that count
    less e * v_q(den).
    """
    if x.is_zero():
        raise ZeroElement("valuation of zero is undefined")
    q = prime.q
    if x.is_rational():
        return prime.e * (int_valuation(x.num[0], q) - int_valuation(x.den, q))
    field = x.field
    cof, rem = fp_divmod(fp_norm(field.coeffs, q), prime.gen_coeffs, q)
    if rem:
        raise ArithmeticError("generator does not divide f mod q")
    h = field.reduce(cof)
    v = 0
    y = field.mul_num(x.num, h)
    while not any(c % q for c in y):
        v += 1
        y = field.mul_num([c // q for c in y], h)
    return v - prime.e * int_valuation(x.den, q)


def element_valuations(x: FieldElement, *, skip):
    """Yield (P, v_P(x)) for each prime P with v_P(x) != 0, lazily.

    Only rational primes q dividing the denominator of x or the norm of its
    numerator can occur.  They come in increasing order, and
    the primes above each q in factor_rational_prime order, so a caller can
    stop at the first prime it rejects.  Rational primes in skip are left
    out unfactored.  FactorizationIncomplete and IndexDivisor propagate;
    zero raises ZeroElement."""
    if x.is_zero():
        raise ZeroElement("valuations of zero are undefined")
    # a rational numerator m has the prime divisors of its norm m^n
    norm = x.num[0] if x.is_rational() else x.field.num_norm(x.num)
    qs = set(factorint(x.den)) | set(factorint(norm))
    for q in sorted(qs.difference(skip)):
        for prime in factor_rational_prime(x.field, q):
            v = valuation(x, prime)
            if v:
                yield prime, v
