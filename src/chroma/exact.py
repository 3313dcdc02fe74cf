"""Exact arithmetic for thresholds of the form a + b*sqrt(u).

Membership predicates in this package (Hamming balls of radius p*sqrt(n),
weight cutoffs n/2 - p*sqrt(n), norm cutoffs n - q*sqrt(n) - 1, ...) compare a
rational quantity against a quadratic surd.  Floating point is never used for
those comparisons: every test reduces to integer/Fraction arithmetic on
squares, so set membership is exact and platform independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        # Interpret a float through its shortest decimal repr, so 0.1 means 1/10.
        return Fraction(str(x))
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


@dataclass(frozen=True)
class Surd:
    """The real number a + b*sqrt(under), with a, b rational and under >= 0."""

    a: Fraction
    b: Fraction
    under: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if self.under < 0:
            raise ValueError("under must be a nonnegative integer")

    @staticmethod
    def rational(x) -> "Surd":
        return Surd(_as_fraction(x), Fraction(0), 0)

    @staticmethod
    def sqrt(coeff, under: int) -> "Surd":
        """coeff*sqrt(under); build a + b*sqrt(under) as Surd(a, b, under)."""
        return Surd(Fraction(0), _as_fraction(coeff), under)

    def cmp(self, x) -> int:
        """Sign of (self - x) for rational x: -1, 0, or +1. Exact."""
        t = _as_fraction(x) - self.a          # compare b*sqrt(u) against t
        b, u = self.b, self.under
        if b == 0 or u == 0:
            return (t < 0) - (t > 0)
        r = math.isqrt(u)
        if r * r == u:                         # sqrt(u) is an integer
            v = b * r - t
            return (v > 0) - (v < 0)
        # sqrt(u) irrational: b*sqrt(u) = t is impossible unless both are 0.
        if b > 0:
            if t <= 0:
                return 1
            return 1 if b * b * u > t * t else -1
        if t >= 0:
            return -1
        # both sides negative: b*sqrt(u) > t  <=>  |b|*sqrt(u) < |t|
        return 1 if b * b * u < t * t else -1

    def __ge__(self, x) -> bool:
        return self.cmp(x) >= 0

    def __gt__(self, x) -> bool:
        return self.cmp(x) > 0

    def __le__(self, x) -> bool:
        return self.cmp(x) <= 0

    def __lt__(self, x) -> bool:
        return self.cmp(x) < 0

    def scaled(self, k) -> "Surd":
        k = _as_fraction(k)
        return Surd(self.a * k, self.b * k, self.under)

    def floor(self) -> int:
        """Largest integer <= self, in integer arithmetic only.

        With D the common denominator of a and b, self = (A + B*sqrt(u))/D for
        integers A, B; floor(B*sqrt(u)) comes from isqrt(B^2*u), and flooring
        that numerator by D gives the floor of the whole.
        """
        d = math.lcm(self.a.denominator, self.b.denominator)
        a, b = int(self.a * d), int(self.b * d)
        sq = b * b * self.under
        r = math.isqrt(sq)
        root = r if b >= 0 else -r - (r * r < sq)   # floor(b*sqrt(u))
        return (a + root) // d

    def ceil(self) -> int:
        """Smallest integer >= self, in integer arithmetic only."""
        return -Surd(-self.a, -self.b, self.under).floor()

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.under)

    def __str__(self) -> str:
        if self.b == 0 or self.under == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.under})"

