"""Equation parsing, classification, and exact solution counting."""

import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from chroma import config
from chroma import equations as equations_module
from chroma.equations import (
    Equation,
    classify,
    count_solutions_brute_all,
    count_solutions_dft_all,
    dft,
    idft,
    is_solution_free,
)
from chroma.groups import ElementSet, make_group
from conftest import oracle_count_solutions, oracle_dft


def test_parse_bracket_and_symbolic_forms():
    assert Equation.parse("[1,-1,3]").coeffs == (1, -1, 3)
    assert Equation.parse("x1-x2+3x3").coeffs == (1, -1, 3)
    assert Equation.parse("x1 - 2x2 + 3x3 - 4x4").coeffs == (1, -2, 3, -4)
    assert Equation.parse("[2, 2, -1]").coeffs == (2, 2, -1)


def test_parse_rejects_malformed():
    for bad in ["", "[]", "[1, a]", "x1+x1", "3x2", "x0+x1", "[1,0,2]",
                "[1.5, 1, -1]", "[1, 1, 1e20]", "[True, 1, -1]", "[1, 1"]:
        with pytest.raises(ValueError):
            Equation.parse(bad)


# Classification exemplars.  Expected labels were worked out by hand from the
# subset-sum structure of the coefficients and frozen here:
#   (1,-1,3):    only the cancelling pair sums to zero -> smallest class only.
#   (1,-2,3,-4): 1-4+3 = 0 uses three coefficients but the full sum is -2.
#   (1,-3,2):    the full coefficient vector sums to zero.
def test_classify_exemplars():
    c1 = classify(Equation((1, -1, 3)))
    assert (c1.roth_degenerate, c1.chi_vanishing, c1.rt_degenerate) == (
        False, False, True)
    assert c1.rt_witness == (0, 1)
    assert c1.chi_witness is None

    c2 = classify(Equation((1, -2, 3, -4)))
    assert (c2.roth_degenerate, c2.chi_vanishing, c2.rt_degenerate) == (
        False, True, True)
    assert c2.chi_witness is not None and len(c2.chi_witness) >= 3
    assert sum((1, -2, 3, -4)[i] for i in c2.chi_witness) == 0

    c3 = classify(Equation((1, -3, 2)))
    assert (c3.roth_degenerate, c3.chi_vanishing, c3.rt_degenerate) == (
        True, True, True)


def test_classification_implication_chain(rng):
    for _ in range(2000):
        k = int(rng.integers(3, 11))
        coeffs = [int(c) for c in rng.integers(-8, 9, size=k)]
        coeffs = [c if c != 0 else 1 for c in coeffs]
        cls = classify(Equation(tuple(coeffs)))
        if cls.roth_degenerate:
            assert cls.chi_vanishing
        if cls.chi_vanishing:
            assert cls.rt_degenerate
        # witnesses certify their own labels
        if cls.rt_degenerate:
            w = cls.rt_witness
            assert w and sum(coeffs[i] for i in w) == 0
        if cls.chi_vanishing:
            w = cls.chi_witness
            assert w and len(w) >= 3 and sum(coeffs[i] for i in w) == 0


def test_count_solutions_small_frozen_case():
    g = make_group([7])
    a = ElementSet.from_indices(g, [0, 1, 3])
    eq = Equation((1, 1, -1))
    # hand enumeration: (0,0,0) (0,1,1) (1,0,1) (0,3,3) (3,0,3) -> 5 solutions,
    # every one of which repeats an entry, so the injective count is 0
    assert count_solutions_brute_all(eq, a)[0] == 5
    assert count_solutions_dft_all(eq, a)[0] == 5
    assert count_solutions_brute_all(eq, a, injective=True)[0] == 0
    assert oracle_count_solutions((1, 1, -1), [0, 1, 3], 7, 0) == 5
    assert oracle_count_solutions((1, 1, -1), [0, 1, 3], 7, 0, injective=True) == 0


def test_count_matches_oracle_randomized(rng):
    for _ in range(30):
        p = int(rng.choice([5, 7, 11, 13]))
        k = int(rng.integers(3, 5))
        coeffs = tuple(int(c) if c != 0 else 1 for c in rng.integers(-4, 5, size=k))
        g = make_group([p])
        size = int(rng.integers(1, p + 1))
        members = sorted(set(map(int, rng.integers(0, p, size=size))))
        a = ElementSet.from_indices(g, members)
        y = int(rng.integers(0, p))
        want = oracle_count_solutions(coeffs, members, p, y)
        eq = Equation(coeffs)
        assert count_solutions_brute_all(eq, a)[y] == want
        assert count_solutions_dft_all(eq, a)[y] == want
        want_inj = oracle_count_solutions(coeffs, members, p, y, injective=True)
        assert count_solutions_brute_all(eq, a, injective=True)[y] == want_inj


def test_count_all_sums_to_size_power(rng):
    g = make_group([11])
    a = ElementSet.from_indices(g, [1, 2, 3, 5, 8])
    eq = Equation((1, -2, 3))
    brute = count_solutions_brute_all(eq, a)
    dft_counts = count_solutions_dft_all(eq, a)
    assert np.array_equal(brute, dft_counts)
    assert brute.sum() == a.count ** 3


@pytest.mark.parametrize("moduli", [(13,), (3, 5)])
def test_shift_kernel_sumset_is_the_support_of_the_count(moduli, rng):
    # per-term index sets: the bool table marks c1*X1 + c2*X2 + c3*X3
    g = make_group(moduli)
    terms = [(c, np.sort(rng.choice(g.order, size, replace=False)))
             for c, size in ((2, 3), (-1, 4), (3, 2))]
    counts = equations_module._conv_count_table(g, terms)
    coords = [g.indices_to_coords(idx) for _, idx in terms]
    want = np.zeros(g.order, dtype=np.int64)
    for xs in itertools.product(*coords):
        want[g.coords_to_indices(sum(c * x for (c, _), x in zip(terms, xs)))] += 1
    assert np.array_equal(counts, want)
    support = equations_module._conv_count_table(g, terms, bool)
    assert support.dtype == bool and np.array_equal(support, want > 0)


def test_shift_kernel_refuses_work_over_its_cap_before_allocating(monkeypatch):
    g = make_group([13])
    terms = [(1, np.array([1, 3, 9]))] * 3
    monkeypatch.setattr(config, "SHIFT_ENTRY_CAP", 3 * 3 * 13 - 1)

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    monkeypatch.setattr(np, "zeros", no_alloc)
    for dtype in (np.int64, bool):
        with pytest.raises(ValueError, match="117 entries exceeds the cap 116"):
            equations_module._conv_count_table(g, terms, dtype)


def _no_work(*args, **kwargs):
    raise AssertionError("counting started before the checks")


def test_injective_count_refuses_work_over_its_cap_before_any_table(monkeypatch):
    # k = 5 over Z_101, |A| = 40: a cap that admits every table of at most four
    # blocks, against B(5) * 5 * 101 * 40 = 1,050,400 entries for all 52 tables
    a = ElementSet.from_indices(make_group([101]), range(40))
    monkeypatch.setattr(config, "SHIFT_ENTRY_CAP", 4 * 101 * 40)
    monkeypatch.setattr(np, "zeros", _no_work)
    with pytest.raises(ValueError, match="1050400 shifted entries exceeds the cap 16160"):
        count_solutions_brute_all(Equation((1, 1, 1, 1, 1)), a, injective=True)


@pytest.mark.parametrize("count", [
    count_solutions_brute_all,
    lambda eq, a: count_solutions_brute_all(eq, a, injective=True),
    count_solutions_dft_all,
], ids=["brute", "injective", "dft"])
def test_counters_refuse_counts_that_could_pass_int64(count, monkeypatch):
    # k = 7 over Z_4001 with |A| = 2000: 2000^6 > 2^63, while the plain count's
    # shift work of 7 * 2000 * 4001 entries is far under its cap
    a = ElementSet.from_indices(make_group([4001]), range(0, 4000, 2))
    monkeypatch.setattr(np, "zeros", _no_work)
    # the first transform the Fourier counter makes
    monkeypatch.setattr(np.fft, "rfft", _no_work)
    with pytest.raises(ValueError, match="exceeds int64"):
        count(Equation((1, 1, 1, 1, 1, 1, -1)), a)


def test_brute_count_is_exact_at_101_to_the_ninth():
    # every target of x1 + ... + x9 - x10 over all of Z_101 has 101^9 solutions
    a = ElementSet.from_indices(make_group([101]), range(101))
    counts = count_solutions_brute_all(Equation((1,) * 9 + (-1,)), a)
    assert counts.tolist() == [101 ** 9] * 101


def test_dft_count_is_exact_at_101_to_the_ninth():
    # 101^9 is about 2^60, past the integers float64 holds
    a = ElementSet.from_indices(make_group([101]), range(101))
    counts = count_solutions_dft_all(Equation((1,) * 9 + (-1,)), a)
    assert counts.tolist() == [101 ** 9] * 101


def test_dft_count_sums_to_size_power_at_a_million():
    # x1 + x2 - x3 - x4 over Z_1000003: sum_y N(y) = |A|^4 is about 2^56, and N is even
    p = 1_000_003
    a = ElementSet.from_indices(make_group([p]),
                                np.flatnonzero(np.random.default_rng(0).random(p) < 0.5))
    counts = count_solutions_dft_all(Equation((1, 1, -1, -1)), a)
    assert counts.min() >= 0
    assert sum(counts.tolist()) == a.count ** 4
    assert np.array_equal(counts[1:], counts[:0:-1])


@pytest.mark.parametrize("coeffs", [(1, 1, 1, 1, -1, -1), (1, 1, 1, 1, 1, -1)])
def test_dft_count_splits_limbs_where_the_centred_bound_fails(coeffs, monkeypatch):
    # an interval makes peaked tables: the square of the three-fold table, and
    # the four-fold table times the table of x1 - x2, fail the centred bound,
    # so those products run on limbs
    widths = []

    def spy(d, b):
        limbs = _limbs(d, b)
        widths.append(len(limbs))
        return limbs

    _limbs = equations_module._limbs
    monkeypatch.setattr(equations_module, "_limbs", spy)
    a = ElementSet.from_indices(make_group([4001]), range(2000))
    eq = Equation(coeffs)
    got = count_solutions_dft_all(eq, a)
    assert max(widths) > 1
    assert np.array_equal(got, count_solutions_brute_all(eq, a))


@pytest.mark.parametrize("p, size", [(5, 3), (4001, 1), (4001, 1 << 12), (4001, 1 << 20)])
def test_fft_product_error_stays_under_the_stated_bound(p, size, rng):
    # the float error of a product against the exact convolution, where the
    # operands are random signed integers below size in magnitude
    L = 1 << (2 * p - 2).bit_length()
    x, y = rng.integers(-size, size + 1, (2, p))
    got = np.fft.irfft(equations_module._spectrum(x, L) * equations_module._spectrum(y, L), L)
    exact = np.convolve(x, y)                  # below 4001 * 2^40: exact in int64
    err = np.abs(got[:2 * p - 1] - exact).max()
    bound = equations_module._fft_error(L) * np.sqrt(float(x @ x) * float(y @ y))
    assert err <= bound
    assert np.abs(got[2 * p - 1:]).max() <= bound


def oracle_injective_table_coords(coeffs, members, moduli):
    """Injective count of every target, by itertools over coordinate tuples.

    Targets are keyed by their row-major index over the moduli.
    """
    table = [0] * int(np.prod(moduli))
    for tup in itertools.permutations(members, len(coeffs)):
        index = 0
        for axis, n in enumerate(moduli):
            index = index * n + sum(c * x[axis] for c, x in zip(coeffs, tup)) % n
        table[index] += 1
    return table


@pytest.mark.parametrize("moduli", [(11,), (3, 3)])
def test_injective_count_six_variables_matches_oracle(moduli, rng):
    # k >= 6 takes the same partition inclusion-exclusion as k <= 5 (203 tables)
    g = make_group(moduli)
    members = sorted(set(map(int, rng.choice(g.order, size=7, replace=False))))
    a = ElementSet.from_indices(g, members)
    member_coords = [tuple(map(int, np.unravel_index(i, moduli))) for i in members]
    eq = Equation((1, 2, -1, 3, 1, -2))
    got = count_solutions_brute_all(eq, a, injective=True)
    want = oracle_injective_table_coords(eq.coeffs, member_coords, moduli)
    assert got.tolist() == want
    assert got.sum() == 7 * 6 * 5 * 4 * 3 * 2


def test_dft_matches_direct_character_sum(rng):
    for p in (5, 11, 17):
        vals = rng.normal(size=p)
        got = dft(vals)
        want = oracle_dft(vals)
        assert np.max(np.abs(got - want)) < 1e-9


def test_parseval_and_inversion(rng):
    for p in (7, 101, 997):
        f = rng.normal(size=p) + 1j * rng.normal(size=p)
        fh = dft(f)
        # sum_x |f(x)|^2 / p  ==  sum_xi |fhat(xi)|^2
        lhs = np.sum(np.abs(f) ** 2) / p
        rhs = np.sum(np.abs(fh) ** 2)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
        back = idft(fh)
        assert np.max(np.abs(back - f)) < 1e-9


def test_solution_free_scan_and_witness():
    g = make_group([7])
    eq = Equation((1, 1, -1))
    free = is_solution_free(eq, ElementSet.from_indices(g, [1, 2, 4]))
    assert free.free and free.witness is None
    hit = is_solution_free(eq, ElementSet.from_indices(g, [1, 2, 3]))
    assert not hit.free
    xs = hit.witness
    assert len(set(xs)) == 3
    assert sum(c * x for c, x in zip(eq.coeffs, xs)) % 7 == 0


def test_bogus_witness_raises_under_optimize():
    # python -O strips assert statements; witness re-verification must survive it
    script = ("from chroma import equations\n"
              "from chroma.groups import ElementSet, make_group\n"
              "equations._find_injective_scan = lambda *args: (1, 2, 3)\n"
              "a = ElementSet.from_indices(make_group([7]), [1, 2, 3])\n"
              "equations.is_solution_free(equations.Equation((1, 1, 1)), a)\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "AssertionError: witness (1, 2, 3) is not a solution" in proc.stderr


def test_solution_free_scan_composite_modulus():
    g = make_group([10])
    eq = Equation((1, -1, 3))          # all coefficients coprime to 10
    res = is_solution_free(eq, ElementSet.from_indices(g, [1, 2, 5]))
    # 2 - 5 + 3*1 = 0 mod 10
    assert not res.free
    with pytest.raises(ValueError):
        is_solution_free(Equation((1, -1, 3)), ElementSet.from_indices(make_group([9]), [1]))


def test_solution_free_matches_brute(rng):
    g = make_group([13])
    for eq in (Equation((1, 1, -1, -1)), Equation((1, 2, 1, -1, -2)),
               Equation((1, 1, 1, -1, -1, 2))):
        for _ in range(20):
            members = sorted(set(map(int, rng.integers(0, 13, size=6))))
            a = ElementSet.from_indices(g, members)
            res = is_solution_free(eq, a)
            want = oracle_count_solutions(eq.coeffs, members, 13, 0, injective=True) == 0
            assert res.free == want


@pytest.mark.parametrize("mod, coeffs", [
    (31, (1, 2, -3)), (31, (1, 1, -1, -1)), (31, (1, 2, -1, 3, -2)),
    (31, (1, -1, 2, -2, 3, 1)), (10, (1, 3, -7)), (10, (1, -1, 3, -3)),
    (10, (1, 3, -1, 7, 9)), (10, (1, -1, 1, 3, -3, 9)),
])
def test_solution_free_witness_is_first_in_scan_order(mod, coeffs):
    # Every path, the k = 4 meet-in-the-middle included, returns the
    # lexicographically first injective solution.
    eq = Equation(coeffs)
    members = [1, 2, 3, 4, 6, 7, 8] if mod == 10 else [2, 3, 5, 7, 11, 13, 17, 19]
    solutions = [t for t in itertools.permutations(members, eq.k)
                 if sum(c * x for c, x in zip(coeffs, t)) % mod == 0]
    res = is_solution_free(eq, ElementSet.from_indices(make_group([mod]), members))
    assert solutions and res.witness == min(solutions)


@pytest.mark.parametrize("coeffs", [(1, 100000, -1), (1, 1, 1, 100000, -1)])
def test_solution_free_scan_is_exact_for_large_coefficients(coeffs):
    # c * x reaches 1e12 and c_k^-1 is about p, so an unreduced product
    # would pass 2^63; the scan must still agree with exact Python ints.
    p = 10_000_019
    head = [p - 11, p - 7, p - 5, p - 3][:len(coeffs) - 1]
    planted = -sum(c * x for c, x in zip(coeffs, head)) * pow(coeffs[-1], -1, p) % p
    members = sorted({*head, planted, p - 2, p - 13})
    solutions = [t for t in itertools.permutations(members, len(coeffs))
                 if sum(c * x for c, x in zip(coeffs, t)) % p == 0]
    res = is_solution_free(Equation(coeffs), ElementSet.from_indices(make_group([p]), members))
    assert solutions and res.witness == min(solutions)


def _lex_first_solution(coeffs, members, mod):
    return next((t for t in itertools.permutations(sorted(members), len(coeffs))
                 if sum(c * x for c, x in zip(coeffs, t)) % mod == 0), None)


@pytest.mark.parametrize("cap", [equations_module._MATCH_ENTRIES, 7, 1])
def test_mitm_join_matches_lex_first_oracle(cap, rng, monkeypatch):
    # the default match chunk, one that splits a left pair's matches, and
    # one match per chunk; a third of the equations are (a, b, -a, -b)
    monkeypatch.setattr(equations_module, "_MATCH_ENTRIES", cap)
    found = 0
    for t in range(60):
        mod = (10, 21, 31, 101, 1009)[t % 5]
        units = [c for c in range(1, mod) if np.gcd(c, mod) == 1]
        a, b, c, d = (int(x) for x in rng.choice(units, 4))
        coeffs = (a, b, mod - a, mod - b) if t % 3 == 0 else (a, b, c, d)
        members = sorted(int(x) for x in rng.choice(mod, int(rng.integers(4, 11)), replace=False))
        res = is_solution_free(Equation(coeffs), ElementSet.from_indices(make_group([mod]), members))
        assert res.witness == _lex_first_solution(coeffs, members, mod), (mod, coeffs, members)
        assert res.free == (res.witness is None)
        found += not res.free
    assert 0 < found < 60


def _erdos_turan(q):
    # {2qk + (k^2 mod q)}: a Sidon set of integers below 2q^2 (Erdős–Turán 1941)
    return [2 * q * k + k * k % q for k in range(q)]


def test_mitm_join_on_erdos_turan_sidon_set():
    # sums stay below 4q^2 < p, so the set is Sidon mod p: every left pair
    # matches its own two orderings and nothing else
    p, eq = 3847, Equation((1, 1, -1, -1))
    members = _erdos_turan(31)
    res = is_solution_free(eq, ElementSet.from_indices(make_group([p]), members))
    assert _lex_first_solution(eq.coeffs, members, p) is None
    assert res.free and res.witness is None
    planted = sorted({*members, (members[3] + members[5] - members[1]) % p})
    assert len(planted) == 32
    res = is_solution_free(eq, ElementSet.from_indices(make_group([p]), planted))
    want = _lex_first_solution(eq.coeffs, planted, p)
    assert want is not None and res.witness == want


def test_mitm_join_large_sidon_set_is_free():
    res = is_solution_free(Equation((1, 1, -1, -1)),
                           ElementSet.from_indices(make_group([1_000_003]), _erdos_turan(499)))
    assert res.free and res.witness is None
