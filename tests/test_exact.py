"""Exact surd arithmetic: ordering, rationality, and integer cutoffs."""

import ast
import pathlib
from fractions import Fraction

import pytest

from chroma.exact import Surd
from conftest import oracle_surd_fraction

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chroma"


def test_rational_surd_roundtrip():
    s = Surd.rational(Fraction(7, 3))
    assert oracle_surd_fraction(s) is not None
    assert oracle_surd_fraction(s) == Fraction(7, 3)
    assert s.cmp(Fraction(7, 3)) == 0
    assert s > 2 and s < 3


def test_float_threshold_uses_decimal_reading():
    # 0.1 must mean exactly 1/10, not the binary double nearest to it.
    assert oracle_surd_fraction(Surd.rational(0.1)) == Fraction(1, 10)


def test_sqrt2_ordering_is_exact():
    s = Surd.sqrt(1, 2)  # sqrt(2) = 1.41421356...
    assert s > Fraction(141421356, 10**8)
    assert s < Fraction(141421357, 10**8)
    assert oracle_surd_fraction(s) is None


def test_negative_coefficient_branch():
    s = Surd(2, -1, 2)  # 2 - sqrt(2) = 0.58578...
    assert s > Fraction(58578, 10**5)
    assert s < Fraction(58579, 10**5)
    assert s.cmp(1) < 0 and s.cmp(0) > 0


def test_perfect_square_collapses_to_rational():
    s = Surd.sqrt(3, 4)  # 3*sqrt(4) = 6
    assert oracle_surd_fraction(s) is not None
    assert oracle_surd_fraction(s) == 6
    assert s.cmp(6) == 0


def test_scaled_and_shifted():
    s = Surd(1, 2, 3)                     # 1 + 2*sqrt(3)
    h = s.scaled(Fraction(1, 2))
    t = Surd(h.a - 1, h.b, h.under)       # sqrt(3) - 1/2 = 1.2320508...
    assert t > Fraction(12320, 10**4)
    assert t < Fraction(12321, 10**4)


def test_floor_and_ceil():
    root2 = Surd.sqrt(1, 2)
    assert root2.floor() == 1
    assert root2.ceil() == 2
    exact6 = Surd.sqrt(3, 4)
    assert exact6.floor() == 6
    assert exact6.ceil() == 6
    neg = Surd.rational(Fraction(-3, 2))
    assert neg.floor() == -2
    assert neg.ceil() == -1
    big = Surd.rational(11)
    assert big.floor() == 11
    assert big.ceil() == 11


def test_floor_and_ceil_bracket_random_surds(rng):
    # u = 10**18 - 1: float sqrt rounds to 10**9, but the floor is 999_999_999
    edge = Surd.sqrt(1, 10**18 - 1)
    assert edge.floor() == 999_999_999 and edge.ceil() == 10**9
    cases = [edge, Surd.sqrt(-1, 10**18 - 1), Surd(Fraction(7, 3), 5, 0),
             Surd(Fraction(-1, 2), Fraction(-3, 4), 16)]
    for _ in range(2000):
        a = Fraction(int(rng.integers(-500, 500)), int(rng.integers(1, 30)))
        b = Fraction(int(rng.integers(-500, 500)), int(rng.integers(1, 30)))
        u = int(rng.integers(0, 40))
        kind = rng.random()
        if kind < 0.3:
            u = u * u                     # perfect squares, including 0
        elif kind < 0.4:
            u = int(rng.integers(1, 10**9)) ** 2 - 1   # just below a large square
        cases.append(Surd(a, b, u))
    for s in cases:
        f, c = s.floor(), s.ceil()
        assert s.cmp(f) >= 0 > s.cmp(f + 1), s
        assert s.cmp(c) <= 0 < s.cmp(c - 1), s


def test_cmp_matches_float_on_random_surds(rng):
    for _ in range(500):
        a = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20)))
        b = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20)))
        u = int(rng.integers(0, 60))
        x = Fraction(int(rng.integers(-200, 200)), int(rng.integers(1, 20)))
        s = Surd(a, b, u)
        want = float(a) + float(b) * u**0.5 - float(x)
        if abs(want) < 1e-9:
            continue  # skip float ties; exactness is checked elsewhere
        assert s.cmp(x) == (1 if want > 0 else -1)


def test_subtraction_takes_the_surd_radicand():
    # a rational side (b = 0) adopts the other operand's radicand
    d = Fraction(1, 2) - Surd.sqrt(3, 5)              # 1/2 - 3*sqrt(5)
    assert d == Surd(Fraction(1, 2), -3, 5)
    assert Surd.rational(2) - Surd.sqrt(1, 7) == Surd(2, -1, 7)
    assert Surd.sqrt(1, 7) - 2 == Surd(-2, 1, 7)
    assert Surd(1, 2, 3) - Surd(1, 1, 3) == Surd.sqrt(1, 3)
    # comparison takes a surd on either side, through the one floor
    assert Surd.sqrt(2, 2) > Surd(1, 1, 2)            # 2*sqrt(2) > 1 + sqrt(2)
    assert Surd(1, 1, 2).cmp(Surd(1, 1, 2)) == 0
    assert Surd.sqrt(1, 2) < Surd.rational(Fraction(141421357, 10**8))


def test_subtraction_refuses_different_radicands():
    with pytest.raises(ValueError, match="radicands 2 and 3"):
        Surd.sqrt(1, 2) - Surd.sqrt(1, 3)
    with pytest.raises(ValueError, match="radicands 2 and 3"):
        Surd.sqrt(1, 2).cmp(Surd(1, 1, 3))


def test_only_exact_reads_the_surd_parts():
    # every other module builds and compares surds through Surd's own methods
    readers = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in {"a", "b", "under"}:
                readers.append(f"{module.name}:{node.lineno}:.{node.attr}")
    assert not readers, f"surd parts read outside exact.py: {readers}"
