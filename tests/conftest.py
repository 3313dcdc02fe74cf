"""Shared oracles for the test suite.

Every oracle here is written independently of the library code paths it
checks: plain itertools/Fraction/complex arithmetic, no reuse of the
vectorized implementations under test.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest


def oracle_count_solutions(coeffs, members, mod, y, injective=False):
    """Count tuples (x_1..x_k) in members^k with sum c_i x_i = y (mod mod)."""
    total = 0
    for tup in itertools.product(members, repeat=len(coeffs)):
        if injective and len(set(tup)) != len(tup):
            continue
        if sum(c * x for c, x in zip(coeffs, tup)) % mod == y % mod:
            total += 1
    return total


def oracle_dft(values):
    """Direct O(p^2) character sum: fhat(xi) = (1/p) sum_x f(x) e(-xi x / p)."""
    p = len(values)
    out = []
    for xi in range(p):
        acc = 0j
        for x, v in enumerate(values):
            acc += v * cmath.exp(-2j * cmath.pi * xi * x / p)
        out.append(acc / p)
    return np.array(out)


def oracle_torus_distance(x, p):
    """Distance of x/p to the nearest integer, as an exact Fraction."""
    r = x % p
    return Fraction(min(r, p - r), p)


def oracle_surd_fraction(s):
    """Value of the Surd s = a + b*sqrt(under) as a Fraction, None if irrational."""
    r = math.isqrt(s.under)
    if s.b != 0 and r * r != s.under:
        return None
    return s.a + s.b * r


def oracle_is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def oracle_proper(colors, neighbors_of, n):
    """True when no vertex shares its color with a neighbor."""
    for u in range(n):
        for v in neighbors_of(u):
            if colors[u] == colors[v]:
                return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture
def no_masks(monkeypatch):
    """Make every read of `Graph.masks`, the whole graph's bitset rows, raise."""
    from chroma.cayley import Graph

    def trap(graph):
        raise AssertionError("Graph.masks read")

    monkeypatch.setattr(Graph, "masks", property(trap))
