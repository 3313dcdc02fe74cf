"""Coordinate norms, core/extension sets, the prime-field lift, certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chroma.constructions import (
    ConstructionParams,
    GaussParams,
    LiftResult,
    build_core_set,
    build_extension_set,
    certify_lift,
    core_norm_bound,
    default_core_threshold,
    default_extension_threshold,
    extension_gap_check,
    gauss_alpha,
    golden_config,
    lift_to_prime_field,
    norm,
    norm_numerators,
    normalize_equation,
    scale_conditions,
    transfer_config,
)
from chroma.equations import Equation, is_solution_free
from chroma.exact import Surd
from chroma.groups import ElementSet, make_group
from chroma.primes import is_prime, next_prime
from conftest import oracle_surd_fraction


def oracle_coordinate_norm(q, p, r, j):
    """min(q*r/(j*p), q*(p-r)/((q-j)*p)) as an exact Fraction."""
    return min(Fraction(q * r, j * p), Fraction(q * (p - r), (q - j) * p))


def oracle_norm(q, primes, y, j):
    return sum(oracle_coordinate_norm(q, p, y % p, j) for p in primes)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def norm_params(q, primes):
    """Params for x1 - x2 + x3 = 0 over the given primes, lifted to next_prime(3m)."""
    return ConstructionParams(Equation((1, -1, 1)), q, primes,
                              next_prime(3 * math.prod(primes)))


def all_ones_grid_point(params):
    """The y in Z_m with y = p // q (mod p) for every prime p."""
    ys = np.arange(params.m, dtype=np.int64)
    hits = np.all([ys % p == p // params.q for p in params.primes], axis=0)
    return int(np.flatnonzero(hits)[0])


def test_norm_context_validation():
    params = norm_params(5, (101, 103))
    with pytest.raises(ValueError, match="slope index 5 outside"):
        norm(params, 0, 5)
    with pytest.raises(ValueError, match="q = 4 must be prime"):
        norm_params(4, (101, 103))
    with pytest.raises(ValueError, match="repeated prime factor 101"):
        norm_params(5, (101, 101))
    with pytest.raises(ValueError, match=r"prime 7 must exceed q\*n = 10"):
        norm_params(5, (7, 103))
    with pytest.raises(ValueError, match="too large for exact int64"):
        # product overflows the int64 safety margin m*q^2 < 2^62
        norm_params(5, (1000003, 1000033, 1000037))


def test_single_coordinate_frozen_example():
    params = norm_params(5, (101,))
    assert norm(params, 20, 1) == Fraction(100, 101)
    assert oracle_norm(5, (101,), 20, 1) == Fraction(100, 101)


def test_zero_and_range():
    params = norm_params(5, (101, 103))
    assert norm(params, 0, 1) == 0
    for y in (1, 50, 5151, 10402):
        for j in (1, 2, 3, 4):
            v = norm(params, y, j)
            assert 0 <= v <= 2
            for p in params.primes:
                assert 0 <= oracle_coordinate_norm(5, p, y % p, j) <= 1


def test_norm_matches_oracle_randomized(rng):
    params = norm_params(5, (101, 103))
    for _ in range(300):
        y = int(rng.integers(0, 101 * 103))
        j = int(rng.integers(1, 5))
        assert norm(params, y, j) == oracle_norm(5, (101, 103), y, j)


def test_norm_numerators_consistent_with_norm(rng):
    params = norm_params(5, (23, 29, 31, 37))
    ys = rng.integers(0, params.m, size=500).astype(np.int64)
    for j in (1, 2):
        nums = norm_numerators(params, ys, j)
        den = params.denominator(j)
        for y, num in zip(ys[:50], nums[:50]):
            assert Fraction(int(num), den) == norm(params, int(y), j)


def test_negation_swaps_slope():
    # ||-y||_j == ||y||_{q-j}, exhaustively on a single coordinate
    q, p = 5, 101
    params = norm_params(q, (p,))
    for y in range(p):
        for j in range(1, q):
            assert norm(params, (-y) % p, j) == norm(params, y, q - j)


def test_triangle_inequality_vectorized(rng):
    params = norm_params(5, (101, 103))
    m = 101 * 103
    xs = rng.integers(0, m, size=10_000).astype(np.int64)
    ys = rng.integers(0, m, size=10_000).astype(np.int64)
    for j in (1, 2, 4):
        lhs = norm_numerators(params, (xs + ys) % m, j)
        rhs = norm_numerators(params, xs, j) + norm_numerators(params, ys, j)
        assert np.all(lhs <= rhs)


def test_discretized_all_ones_lands_high():
    # the grid image of the all-ones point has every coordinate norm > 1 - 1/n
    params = norm_params(5, (23, 29, 31, 37))
    y = all_ones_grid_point(params)
    n = 4
    for p in params.primes:
        assert y % p == p // 5
        assert oracle_coordinate_norm(5, p, y % p, 1) > 1 - Fraction(1, n)
    assert norm(params, y, 1) > n - 1


# ---------------------------------------------------------------------------
# Equation normalization
# ---------------------------------------------------------------------------


def test_normalize_moves_cancelling_pair_first():
    eq = normalize_equation(Equation((3, 1, -1)))
    assert eq.coeffs[0] + eq.coeffs[1] == 0
    assert sum(eq.coeffs) >= 1
    assert eq.coeffs == (1, -1, 3)


def test_normalize_negates_when_sum_nonpositive():
    eq = normalize_equation(Equation((-1, 1, -1)))
    assert eq.coeffs == (1, -1, 1)
    assert sum(eq.coeffs) >= 1
    assert eq.coeffs[0] + eq.coeffs[1] == 0


def test_normalize_is_a_signed_permutation():
    # the normalized coefficients are the input's, reordered and possibly negated
    for coeffs in ((3, 1, -1), (-1, 1, -1), (2, 5, -3, -5), (-4, 2, -2, -7, 4)):
        eq = normalize_equation(Equation(coeffs))
        sign = 1 if sum(coeffs) > 0 else -1
        assert sorted(eq.coeffs) == sorted(sign * c for c in coeffs)
        assert eq.coeffs[0] + eq.coeffs[1] == 0
        assert sum(eq.coeffs) >= 1


def test_normalize_rejects_pairless_equations():
    with pytest.raises(ValueError):
        normalize_equation(Equation((1, 2, -3)))


# ---------------------------------------------------------------------------
# Parameter validation and thresholds
# ---------------------------------------------------------------------------


def test_construction_params_validation():
    ConstructionParams(Equation((1, -1, 1)), 5, (101, 103), 374531)
    with pytest.raises(ValueError):
        # q must exceed the absolute coefficient sum D = 3
        ConstructionParams(Equation((1, -1, 1)), 3, (13, 17, 19, 23), 1001137)
    with pytest.raises(ValueError):
        # p must be prime
        ConstructionParams(Equation((1, -1, 1)), 5, (101, 103), 374530)
    with pytest.raises(ValueError):
        # p must exceed D*m = 31209
        ConstructionParams(Equation((1, -1, 1)), 5, (101, 103), 101)


def test_default_thresholds_formulas():
    params = ConstructionParams(Equation((1, -1, 1)), 5, (101, 103), 374531)
    t = default_core_threshold(params)
    assert (t.a, t.b, t.under) == (Fraction(1), Fraction(-5), 2)   # n - q*sqrt(n) - 1
    f = default_extension_threshold(params)
    assert (f.a, f.b, f.under) == (Fraction(1), Fraction(-75), 2)  # n/2 - q^2*D*sqrt(n)


# ---------------------------------------------------------------------------
# Pinned configurations: set sizes and certificates
# ---------------------------------------------------------------------------


def test_golden_core_set_frozen_count_and_membership(rng):
    cfg = golden_config()
    e0 = build_core_set(cfg.params, cfg.core_threshold)
    assert e0.count == 108
    members = set(e0.indices().tolist())
    theta = Fraction(13, 7)
    for y in map(int, rng.integers(0, cfg.params.m, size=200)):
        assert (oracle_norm(5, (101, 103), y, 1) >= theta) == (y in members)
    assert 0 not in members
    # the discretized all-ones grid point is a member
    assert all_ones_grid_point(cfg.params) in members


def test_golden_build_validates_nothing_again(monkeypatch):
    # the params validate once, when constructed; building the sets reads them
    cfg = golden_config()
    calls = []

    def spy(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr("chroma.constructions.is_prime", spy)
    monkeypatch.setattr("chroma.primes.is_prime", spy)
    cfg.build()
    assert calls == []


def test_golden_extension_set_frozen_count_and_membership(rng):
    cfg = golden_config()
    f0 = build_extension_set(cfg.params, cfg.extension_threshold)
    assert f0.count == 19
    members = set(f0.indices().tolist())
    assert 0 in members
    m = cfg.params.m
    theta = Fraction(1, 8)
    for y in map(int, rng.integers(0, m, size=200)):
        want = (
            oracle_norm(5, (101, 103), y % m, 1) <= theta
            and oracle_norm(5, (101, 103), (-y) % m, 1) <= theta
        )
        assert want == (y in members)


def test_core_norm_bound_value_and_random_tuples(rng):
    cfg = golden_config()
    bound = core_norm_bound(cfg.params, cfg.core_threshold)
    assert oracle_surd_fraction(bound) == Fraction(2, 7)  # n - (q-1)*D*(n - theta)
    e0 = build_core_set(cfg.params, cfg.core_threshold)
    idx = e0.indices()
    for _ in range(300):
        xs = rng.choice(idx, size=3, replace=False).tolist()
        combo = sum(c * x for c, x in zip(cfg.params.eq.coeffs, xs)) % cfg.params.m
        val = norm(cfg.params, combo, cfg.params.eq.coeff_sum)
        assert bound.cmp(val) <= 0 and val >= Fraction(2, 7)


def test_extension_gap_and_scale_conditions():
    cfg = golden_config()
    assert extension_gap_check(cfg.params, cfg.core_threshold, cfg.extension_threshold)
    conds = scale_conditions(cfg.params, cfg.core_threshold, cfg.extension_threshold)
    assert len(conds) == 11
    assert all(conds.values()), conds
    # the small transfer pin deliberately gives up two margins
    t = transfer_config()
    ct = scale_conditions(t.params, t.core_threshold, t.extension_threshold)
    assert not ct["lift_ranges_disjoint"]
    assert not ct["mixed_nonzero_sum_blocked"]
    assert sum(ct.values()) == 9


def test_golden_lift_frozen_shape():
    cfg = golden_config()
    e0, f0, lift = cfg.build()
    assert lift.interval == (93633, 124843)
    assert lift.core.count == 108
    assert lift.extension.count == 57
    assert lift.full.count == 165
    assert lift.core.intersection(lift.extension).count == 0
    lo, hi = lift.interval
    ext = lift.extension.indices()
    assert ext.min() >= lo and ext.max() <= hi
    m = cfg.params.m
    f0_members = set(f0.indices().tolist())
    assert all(int(x) % m in f0_members for x in ext)
    core = lift.core.indices()
    assert np.array_equal(core, e0.indices())  # standard representatives


def test_transfer_sets_frozen():
    cfg = transfer_config()
    e0, f0, lift = cfg.build()
    assert sorted(e0.indices().tolist()) == [3, 68]
    assert f0.indices().tolist() == [0]
    assert lift.extension.indices().tolist() == [143]
    assert lift.interval == (108, 143)


def test_certificates_golden_outcomes():
    cfg = golden_config()
    e0, f0, lift = cfg.build()
    bundle = certify_lift(cfg.params, e0, f0, lift,
                          cfg.core_threshold, cfg.extension_threshold)
    outcomes = {r.name: r.passed for r in bundle.records}
    assert outcomes == {
        "core-solution-free": True,
        "induced-subgraph-match": False,
        "extension-in-lift": True,
        "no-mixed-solutions": True,
    }
    assert not bundle.all_passed
    mismatch = {r.name: r for r in bundle.records}["induced-subgraph-match"]
    # the window graph loses exactly the wrap-around difference classes
    assert mismatch.witness == (0, 76)
    assert "108 difference classes adjacent only mod m" in mismatch.detail
    assert "0 adjacent only mod p" in mismatch.detail
    assert "0/108 core members negation-symmetric" in mismatch.detail


def test_failing_extension_certificate_witness_matches_sumset_oracle():
    # dropping the interval window from F puts F - F onto the core: the
    # certificate fails with the least common value of the two sumsets
    cfg = golden_config()
    e0, f0, lift = cfg.build()
    p, m = cfg.params.p, cfg.params.m
    xs = np.arange(p)
    loose = ElementSet.from_indices(make_group([p]), xs[f0.mask()[xs % m]])
    bad = LiftResult(lift.core, loose, lift.core.union(loose), lift.interval)
    bundle = certify_lift(cfg.params, e0, f0, bad, cfg.core_threshold,
                          cfg.extension_threshold)
    record = {r.name: r for r in bundle.records}["extension-in-lift"]
    c1, c2, *rest = cfg.params.eq.coeffs
    f, e = loose.indices().tolist(), lift.core.indices().tolist()
    lhs = {(-c1 * x - c2 * y) % p for x in f for y in f}
    rhs = {0}
    for c in rest:
        rhs = {(s + c * x) % p for s in rhs for x in e}
    assert lhs & rhs
    assert not record.passed
    assert record.witness == (min(lhs & rhs),)


def test_subgraph_mismatch_witness_is_genuine():
    # independent re-derivation of the witness: 76 is not in the core set but
    # m - 76 is, so {0, 76} is an edge mod m with no counterpart mod p
    cfg = golden_config()
    e0, _, lift = cfg.build()
    m, p = cfg.params.m, cfg.params.p
    members = set(e0.indices().tolist())
    assert 76 not in members and (m - 76) in members
    lifted = set(lift.core.indices().tolist())
    assert 76 not in lifted and (p - 76) not in lifted


def test_window_subgraph_is_contained_in_modular_graph():
    # every window edge of the lifted graph is an edge of the Z_m graph
    cfg = transfer_config()
    e0, f0, lift = cfg.build()
    m, p = cfg.params.m, cfg.params.p
    em, ep = e0.mask(), lift.core.mask()
    d = np.arange(1, m)
    adj_m = em[d] | em[m - d]
    adj_p = ep[d] | ep[p - d]
    assert not np.any(adj_p & ~adj_m)
    assert np.any(adj_m & ~adj_p)  # and the containment is strict


def test_negative_control_unrestricted_extension_breaks():
    # dropping the interval window re-admits injective solutions at both pins
    for cfg in (transfer_config(), golden_config()):
        e0, f0, lift = cfg.build()
        p = cfg.params.p
        xs = np.arange(p)
        unres = xs[f0.mask()[xs % cfg.params.m]]
        g = make_group([p])
        loose = ElementSet.from_indices(
            g, sorted(set(lift.core.indices().tolist()) | set(unres.tolist())))
        res = is_solution_free(cfg.params.eq, loose)
        assert not res.free
        xs = res.witness
        assert sum(c * x for c, x in zip(cfg.params.eq.coeffs, xs)) % p == 0


def test_lift_count_lower_bound_inequality():
    # |F| >= (|F0|/m) * window - m, the full-residue-block counting bound
    cfg = golden_config()
    e0, f0, lift = cfg.build()
    m = cfg.params.m
    lo, hi = lift.interval
    window = hi - lo + 1
    assert lift.extension.count >= Fraction(f0.count, m) * window - m


# ---------------------------------------------------------------------------
# Gaussian rectangle constant
# ---------------------------------------------------------------------------


def test_gauss_alpha_frozen_value():
    val = gauss_alpha(GaussParams(1, 1, 1))
    assert abs(val - 0.021562061638842597) < 1e-12


def test_gauss_alpha_monotone_in_r():
    vals = [gauss_alpha(GaussParams(r, 1, 2)) for r in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0 < v < 1 for v in vals)


def test_gauss_alpha_validation():
    with pytest.raises(ValueError):
        GaussParams(1, 2, 1)   # c > C
    with pytest.raises(ValueError):
        GaussParams(0, 1, 1)   # r < 1
