"""Primality, next-prime, and distinctness validation."""

import math

import pytest

from chroma.primes import check_distinct_primes, is_prime, next_prime
from conftest import oracle_is_prime


def test_is_prime_matches_oracle_to_2000():
    for n in range(-5, 2000):
        assert is_prime(n) == oracle_is_prime(n), n


def test_is_prime_matches_trial_division_below_10_5():
    for n in range(2000, 10**5):
        assert is_prime(n) == oracle_is_prime(n), n


def _strong_probable_prime(n, base):
    """n - 1 = 2^s * d with d odd; n passes when base^d = 1 or some
    base^(2^r d) = -1 mod n."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


def test_is_prime_rejects_carmichael_numbers():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                  29341, 41041, 46657, 52633, 62745, 63973, 75361, 101101,
                  115921, 126217, 162401, 172081, 188461, 252601, 278545,
                  294409, 314821, 334153, 340561, 399001, 410041, 449065,
                  488881, 512461]
    for n in carmichael:
        # Fermat liars to every coprime base, yet composite
        assert all(pow(b, n - 1, n) == 1 for b in (2, 5, 7, 11) if math.gcd(b, n) == 1)
        assert not is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # (n, a factorization, the prime bases n passes as a strong probable prime)
    cases = [
        (2047, (23, 89), (2,)),
        (1373653, (829, 1657), (2, 3)),
        (25326001, (2251, 11251), (2, 3, 5)),
        (3215031751, (151, 751, 28351), (2, 3, 5, 7)),
        (2152302898747, (6763, 10627, 29947), (2, 3, 5, 7, 11)),
        (3474749660383, (1303, 16927, 157543), (2, 3, 5, 7, 11, 13)),
        (341550071728321, (10670053, 32010157), (2, 3, 5, 7, 11, 13, 17)),
        (3825123056546413051, (149491, 747451, 34233211),
         (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
        (318665857834031151167461, (399165290221, 798330580441),
         (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    ]
    # the last one passes every base below 41, so it needs the full set
    for n, factors, bases in cases:
        assert math.prod(factors) == n
        assert all(_strong_probable_prime(n, b) for b in bases), n
        assert not is_prime(n), n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    assert 193707721 * 761838257287 == 2**67 - 1
    assert is_prime(374531) and is_prime(1000003)
    assert not is_prime(1000003 * 374531)
    # the smallest strong pseudoprime to all thirteen bases 2..41 is where
    # the fixed-base test stops proving anything
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    assert not is_prime(3317044064679887385961981 + 1)  # even


def test_next_prime_values():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(14) == 17
    assert next_prime(17) == 19
    # the pinned construction prime: 374509..374530 are all composite
    assert next_prime(374508) == 374531


def test_check_distinct_primes():
    check_distinct_primes([3, 5, 7])
    with pytest.raises(ValueError):
        check_distinct_primes([3, 5, 5])
    with pytest.raises(ValueError):
        check_distinct_primes([3, 4])
