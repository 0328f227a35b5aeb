"""Integer primality/factorization against sympy."""

import random
import time

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from afcheck.errors import FactorizationIncomplete
from afcheck.integerfactor import (PRIME_PROOF_BOUND, factorint, is_prime,
                                   squarefree_part)


def test_is_prime_small_range():
    for n in range(2, 2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_carmichael_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 3215031751):
        assert not is_prime(n)


@given(st.integers(min_value=-10, max_value=PRIME_PROOF_BOUND - 1))
def test_is_prime_below_the_proven_bound(n):
    assert is_prime(n) == sympy.isprime(n)


# psi_12, a strong pseudoprime to every base is_prime uses, and the prime
# 2^89 - 1 lie past the proven range: neither is called prime
@pytest.mark.parametrize("n, prime", [(PRIME_PROOF_BOUND, False),
                                      (2 ** 89 - 1, True)])
def test_past_the_proven_bound_nothing_is_prime(n, prime):
    assert sympy.isprime(n) == prime
    assert not is_prime(n)
    with pytest.raises(FactorizationIncomplete) as exc:
        factorint(12 * n)
    assert exc.value.leftover == n
    assert exc.value.partial == {2: 2, 3: 1}


def test_factorint_reconstructs():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 10 ** 12)
        factors = factorint(n)
        prod = 1
        for p, e in factors.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_factorint_semiprimes():
    semiprimes = [101 * 103, 99991 * 99989, 1000003 * 1000033]
    for n in semiprimes:
        factors = factorint(n)
        assert factors == sympy.factorint(n)


def test_factorint_handles_sign_and_units():
    assert factorint(-12) == {2: 2, 3: 1}
    assert factorint(1) == {}
    assert factorint(0) == {}


def test_squarefree_part():
    assert squarefree_part(8) == 2
    assert squarefree_part(45) == 5
    assert squarefree_part(-12) == -3
    assert squarefree_part(7) == 7
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 10 ** 6)
        d = squarefree_part(n)
        q = n // d
        assert d * q == n
        root = sympy.sqrt(q)
        assert root.is_integer


def test_factorint_within_the_rho_budget():
    # prime factors near 10^9 need about 3*10^4 rho steps
    n = 1000000007 * 1000000009 * 998244353
    assert factorint(n) == sympy.factorint(n)


def test_factorint_gives_up_on_two_large_primes_in_bounded_time():
    p, q = sympy.nextprime(10 ** 15), sympy.nextprime(2 * 10 ** 15)
    t0 = time.perf_counter()
    with pytest.raises(FactorizationIncomplete) as exc:
        factorint(12 * 97 * p * q)
    assert time.perf_counter() - t0 < 5
    assert exc.value.leftover == p * q
    # every prime factor below the trial-division limit is in the partial
    assert exc.value.partial == {2: 2, 3: 1, 97: 1}
    with pytest.raises(FactorizationIncomplete):
        squarefree_part(2 * p * q)
