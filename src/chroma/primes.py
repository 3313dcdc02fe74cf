"""Small integer number-theory helpers: primality, next prime, distinct primes.

Primality is a deterministic Miller-Rabin test to the thirteen prime bases
2..41, which no composite below 3.3 * 10**24 passes (Sorenson and Webster,
2015), so the answer is exact over the whole range it accepts.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The smallest composite that is a strong pseudoprime to every base above.
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality, exact for n < 3.3 * 10**24.

    Raises ValueError for larger n, where the fixed bases prove nothing.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def check_distinct_primes(factors: list[int] | tuple[int, ...]) -> None:
    """Raise ValueError unless all factors are distinct primes."""
    seen = set()
    for f in factors:
        if not is_prime(f):
            raise ValueError(f"factor {f} is not prime")
        if f in seen:
            raise ValueError(f"repeated prime factor {f}")
        seen.add(f)

