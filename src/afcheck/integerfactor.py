"""Deterministic integer primality and factorization.

Trial division by a fixed small-prime table, then Miller-Rabin with a fixed
base set, a proof of primality below PRIME_PROOF_BOUND only, then Brent's
variant of Pollard rho with a fixed parameter schedule and a fixed budget of
rho steps per cofactor.  All paths are reproducible; if the schedule or its
budget is exhausted with a composite cofactor left, or a cofactor at or
above PRIME_PROOF_BOUND passes Miller-Rabin, FactorizationIncomplete is
raised so callers can reject soundly instead of mislabeling.  The budget
finds prime factors up to about 10^11 (rho needs about sqrt(p) steps for a
prime factor p) and bounds the time a hard cofactor costs to about a
second.
"""

from math import gcd, isqrt

from .errors import FactorizationIncomplete

_TRIAL_LIMIT = 10_000
# rho steps (iterations of y -> y^2 + c) one cofactor may use, over all c
RHO_STEP_BUDGET = 1 << 20


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i:: i] = bytearray(len(flags[i * i:: i]))
    return [i for i, f in enumerate(flags) if f]

SMALL_PRIMES = _sieve(_TRIAL_LIMIT)

# Miller-Rabin on these bases proves n prime for n below PRIME_PROOF_BOUND,
# psi_12 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# all of them (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_PROOF_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """True when n is a prime below PRIME_PROOF_BOUND; a prime at or above
    it is not proven, so it gets False too."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:60]:
        if n == p:
            return True
        if n % p == 0:
            return False
    return n < PRIME_PROOF_BOUND and _passes_miller_rabin(n)


def _passes_miller_rabin(n: int) -> bool:
    """n, odd and above 37, is a strong probable prime to every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int) -> int:
    """One nontrivial factor of composite n, or 0 if the schedule fails or
    RHO_STEP_BUDGET runs out."""
    if n % 2 == 0:
        return 2
    budget = RHO_STEP_BUDGET
    for c in range(1, 40):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            # a round takes at most 2r steps: r to move x, r to compare
            budget -= 2 * r
            if budget < 0:
                return 0
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return 0


def factorint(n: int) -> dict:
    """Full factorization of |n| as {prime: exponent}; ignores the sign.

    Raises FactorizationIncomplete when a composite cofactor survives the
    rho schedule or its step budget, as one with two prime factors above
    about 10^11 does, and when a cofactor at or above PRIME_PROOF_BOUND
    passes Miller-Rabin, so that its primality is not proven; callers must
    treat it as "unknown", never as "prime".
    The exception's partial factorization holds every prime factor below
    the trial limit 10^4.
    """
    n = abs(n)
    if n in (0, 1):
        return {}
    out: dict = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if m >= PRIME_PROOF_BOUND and _passes_miller_rabin(m):
            raise FactorizationIncomplete(
                m, out, f"cofactor {m} passes Miller-Rabin but is not below "
                f"{PRIME_PROOF_BOUND}, where that proves it prime")
        d = _brent(m)
        if d in (0, 1, m):
            raise FactorizationIncomplete(m, out)
        stack.append(d)
        stack.append(m // d)
    return out


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor d of n with n/d a perfect square (sign kept)."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    d = 1
    for p, e in factorint(n).items():
        if e % 2:
            d *= p
    return sign * d
