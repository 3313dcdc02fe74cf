"""Acceptance gate: eleven end-to-end criteria, one test (= one verdict line) each.

Each test pins its tolerance and runtime budget.  Criterion 08 checks each
lift certificate in the form the standard-representative lift promises:
solution-freeness, the extension property and the absence of mixed solutions
must pass, and the induced-subgraph verdict, counts and witness must agree
with a recomputation from the sets themselves.  That certificate fails at the
golden pin: the lift keeps E0's representatives in [0, m), so a pair at
difference d is joined mod p only when d is in E0, but mod m also when m - d
is, and the golden core set has no negation-symmetric members.
"""

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from chroma import kneser
from chroma.bohr import SpectrumParams, bohr_color
from chroma.cayley import chromatic_number_exact
from chroma.constructions import (
    GaussParams,
    certify_lift,
    gauss_alpha,
    golden_config,
    scale_conditions,
)
from chroma.equations import (
    Equation,
    classify,
    count_solutions_brute_all,
    count_solutions_dft_all,
    dft,
    idft,
)
from chroma.exact import Surd
from chroma.groups import ElementSet, make_group
from chroma.primes import is_prime
from conftest import oracle_proper


def test_01_classical_kneser_chromatic_numbers():
    # chi(KN(n,k,1)) == n - 2k + 2, computed exactly; < 60 s total
    t0 = time.perf_counter()
    for n, k in [(5, 2), (6, 2), (7, 2), (7, 3)]:
        _, graph = kneser.build_graph(kneser.KneserParams(n, k, 1))
        res = chromatic_number_exact(graph, budget_s=50)
        assert res.exact, (n, k)
        assert res.chromatic_number == n - 2 * k + 2, (n, k, res.chromatic_number)
    assert time.perf_counter() - t0 < 60


def test_02_kneser_spectral_bound_sweep():
    # every shape-feasible (n, k, m) with m+1 prime and <= 2000 vertices:
    # chi >= ceil((n - pk) / (p^2 (p-1))), p = m+1, whenever positive.
    # n runs to 15, which covers every (k, m) combination that fits the
    # vertex cap; beyond that only complete-graph-like repeats remain.
    t0 = time.perf_counter()
    feasible = positive = 0
    for m in (1, 2, 4, 6):
        for k in range(1, 8):
            for n in range(k * m, 16):
                try:
                    params = kneser.KneserParams(n, k, m)
                except ValueError:
                    continue
                if kneser.count_vertices(params) > 2000:
                    continue
                feasible += 1
                bound = kneser.chi_lower_bound(params)
                if bound <= 0:
                    continue
                positive += 1
                ceil_bound = -(-bound.numerator // bound.denominator)
                _, graph = kneser.build_graph(params)
                res = chromatic_number_exact(graph, budget_s=8)
                # res.lower is a valid lower bound even on budget exhaustion,
                # so chi >= res.lower >= ceil_bound is an exact comparison
                assert res.lower >= ceil_bound, (n, k, m, res.lower, ceil_bound)
    assert feasible == 74 and positive == 64
    assert time.perf_counter() - t0 < 600


def test_03_embedding_differences_land_in_ball():
    # exhaustive over every edge for (p, n) in {(2,9), (3,9)} with the
    # module's k choice; zero violations
    expected_edges = {(2, 9): 840, (3, 9): 64260}
    for p, n in [(2, 9), (3, 9)]:
        k = kneser.embedding_k(p, n)
        verts = kneser.kneser_vertices(kneser.KneserParams(n, k, p - 1))
        edges = 0
        for i, a in enumerate(verts):
            for b in verts[i + 1:]:
                if kneser.kneser_adjacent(a, b):
                    edges += 1
                    chk = kneser.check_embedding_edge(a, b, p, n, k)
                    assert chk.ok, (p, n, a, b)
        assert edges == expected_edges[(p, n)]


def test_04_independent_set_avoids_ball():
    # p = 3, n in {6, 7, 8}: the default radius p*sqrt(n) is degenerate at
    # this scale; the documented relaxation to radius sqrt(n) gives a
    # nonempty set, and (I - I) n S = 0 exhaustively for the paired ball
    expected_counts = {6: 1, 7: 1, 8: 17}
    for n in (6, 7, 8):
        assert kneser.independent_set(3, n).degenerate
        radius = Surd.sqrt(1, n)
        res = kneser.independent_set(3, n, radius)
        assert res.count == expected_counts[n]
        assert res.count > 0
        ball = kneser.HammingBallSet(3, n, radius)
        coords = res.members_coords()
        for i in range(len(coords)):
            for j in range(len(coords)):
                if i == j:
                    continue
                diff = tuple((coords[i] - coords[j]) % 3)
                assert not ball.contains_coords(diff), (n, i, j, diff)


def _random_counting_instances(seed, count):
    rng = np.random.default_rng(seed)
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31]
    made = 0
    while made < count:
        p = int(rng.choice(primes))
        k = int(rng.choice([3, 4]))
        coeffs = rng.integers(-4, 5, size=k)
        if np.any(coeffs % p == 0):
            continue
        mask = rng.random(p) < rng.uniform(0.2, 0.9)
        a = ElementSet(make_group([p]), mask)
        if a.count == 0:
            continue
        made += 1
        yield Equation(tuple(int(c) for c in coeffs)), a, p, k


def test_05_dft_counts_match_brute_force():
    # >= 200 random instances, p in {5..31}, k in {3,4}, all targets y;
    # integer-exact equality; < 2 min
    t0 = time.perf_counter()
    for eq, a, p, k in _random_counting_instances(seed=5, count=200):
        brute = count_solutions_brute_all(eq, a)
        assert np.array_equal(brute, count_solutions_dft_all(eq, a)), (eq, p)
    assert time.perf_counter() - t0 < 120


def test_06_parseval_and_inversion():
    # 100 random complex functions, lengths up to 10^4; relative error 1e-9
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = int(rng.integers(2, 10_001))
        f = rng.normal(size=p) + 1j * rng.normal(size=p)
        table = dft(f)
        power_in = np.sum(np.abs(f) ** 2) / p
        power_out = np.sum(np.abs(table) ** 2)
        assert abs(power_in - power_out) <= 1e-9 * power_in
        back = idft(table)
        assert np.max(np.abs(back - f)) <= 1e-9 * np.max(np.abs(f))


def test_07_solution_count_upper_bounds():
    # for every target y: non-injective solutions <= p^(k-1) and solutions
    # with a repeated coordinate <= k^2 p^(k-2); zero violations.  (The
    # two-variable difference form that breaks the second bound cannot be
    # expressed here: equations need at least three variables.)
    for eq, a, p, k in _random_counting_instances(seed=7, count=200):
        total = count_solutions_brute_all(eq, a)
        injective = count_solutions_brute_all(eq, a, injective=True)
        with_repeat = total - injective
        assert np.all(with_repeat >= 0)
        assert np.all(with_repeat <= p ** (k - 1))
        assert np.all(with_repeat <= k * k * p ** (k - 2))


def test_08_lift_certificates_all_pass():
    # pinned reproduction config at production scale, 30 min budget:
    # (i) lifted core solution-free, (iii) extension differences stay outside
    # core combinations, (iv) no mixed solutions -- all three must pass, as
    # must every side condition.  (ii) the window-subgraph certificate must
    # report what plain-set arithmetic finds: the lift adds no edge to the
    # window, and the certificate passes exactly when Cay(Z_m, E0) loses no
    # edge either.  Every message records the side-condition ledger.
    t0 = time.perf_counter()
    cfg = golden_config()
    e0, f0, lift = cfg.build()
    bundle = certify_lift(cfg.params, e0, f0, lift,
                          cfg.core_threshold, cfg.extension_threshold)
    side = scale_conditions(cfg.params, cfg.core_threshold,
                            cfg.extension_threshold)
    ledger = f"side conditions holding {sum(side.values())}/{len(side)} ({side})"
    assert time.perf_counter() - t0 < 1800
    assert all(side.values()), ledger
    records = {r.name: r for r in bundle.records}
    for name in ("core-solution-free", "extension-in-lift",
                 "no-mixed-solutions"):
        rec = records[name]
        assert rec.passed, (
            f"{name}: witness={rec.witness} ({rec.detail}); {ledger}")

    # x and x + d, 1 <= d < m, are adjacent mod m iff +-d mod m lies in E0,
    # and mod p iff +-d mod p lies in E
    m, p = cfg.params.m, cfg.params.p
    core_m = set(e0.indices().tolist())
    core_p = set(lift.core.indices().tolist())
    only_m, only_p = [], []
    for d in range(1, m):
        adj_m = d % m in core_m or -d % m in core_m
        adj_p = d % p in core_p or -d % p in core_p
        if adj_m and not adj_p:
            only_m.append(d)
        elif adj_p and not adj_m:
            only_p.append(d)
    rec = records["induced-subgraph-match"]
    found = f"{rec.name}: witness={rec.witness} ({rec.detail}); {ledger}"
    assert not only_p, (only_p[:5], found)
    assert rec.passed == (not only_m), (len(only_m), found)
    counts = re.search(r"(\d+) difference classes adjacent only mod m, "
                       r"(\d+) adjacent only mod p", rec.detail)
    assert counts, found
    assert (int(counts[1]), int(counts[2])) == (len(only_m), len(only_p)), found
    if only_m:
        assert only_m[0] == m - max(core_m), (only_m[0], found)
        assert rec.witness == (0, only_m[0]), found
    else:
        assert rec.witness is None, found


def test_09_bohr_coloring_always_proper():
    # the pinned lifted set plus 20 random dense sets (p <= 499): the emitted
    # coloring is always proper (re-validated independently); whenever the
    # intersection test passes, colors used <= (2k-1) * M^|Gamma|
    cfg = golden_config()
    _, _, lift = cfg.build()
    colors, report = bohr_color(lift.full, cfg.params.eq,
                                SpectrumParams(s_index=0))
    assert report.proper
    if report.claim_passed:
        assert report.colors_used <= report.color_budget

    rng = np.random.default_rng(9)
    primes = [p for p in range(5, 500) if is_prime(p)]
    eq = Equation([1, 1, -1, -1])
    for _ in range(20):
        p = int(rng.choice(primes))
        mask = rng.random(p) < rng.uniform(0.2, 0.6)
        mask[0] = False
        a = ElementSet(make_group([p]), mask)
        if a.count == 0:
            continue
        colors, report = bohr_color(a, eq)
        assert report.proper, p
        conn = set(a.indices().tolist())
        conn |= {(p - x) % p for x in conn}

        def neighbors_of(u, conn=conn, p=p):
            return [(u + d) % p for d in conn]

        assert oracle_proper(colors.tolist(), neighbors_of, p), p
        if report.claim_passed:
            assert report.colors_used <= report.color_budget, p


def test_10_classification_trichotomy():
    # the three exemplar coefficient vectors land in exactly their regions,
    # and the implication chain holds on 10^4 random vectors with k <= 10
    only_rt = classify(Equation([1, -1, 3]))
    assert (only_rt.roth_degenerate, only_rt.chi_vanishing,
            only_rt.rt_degenerate) == (False, False, True)
    chi_not_roth = classify(Equation([1, -2, 3, -4]))
    assert (chi_not_roth.roth_degenerate, chi_not_roth.chi_vanishing,
            chi_not_roth.rt_degenerate) == (False, True, True)
    all_three = classify(Equation([1, -3, 2]))
    assert (all_three.roth_degenerate, all_three.chi_vanishing,
            all_three.rt_degenerate) == (True, True, True)

    rng = np.random.default_rng(10)
    checked = 0
    while checked < 10_000:
        k = int(rng.integers(3, 11))
        coeffs = rng.integers(-6, 7, size=k)
        coeffs = coeffs[coeffs != 0]
        if coeffs.size < 3:
            continue
        res = classify(Equation(tuple(int(c) for c in coeffs)))
        if res.roth_degenerate:
            assert res.chi_vanishing, coeffs
        if res.chi_vanishing:
            assert res.rt_degenerate, coeffs
        checked += 1


def test_11_gaussian_rectangle_constant():
    # closed form vs independent quadrature to 1e-6 at 20 (r, c, C) triples,
    # and the quadrant probability dominates the constant under Monte-Carlo
    # sampling (10^6 draws, 3-sigma one-sided check) at each triple
    triples = [(r, c, C)
               for r in (1.0, 1.25, 1.5, 2.0)
               for c, C in ((1.0, 1.0), (1.0, 2.0), (0.5, 1.0),
                            (2.0, 3.0), (1.0, 4.0))]
    assert len(triples) == 20
    rng = np.random.default_rng(11)
    n = 7
    for r, c, C in triples:
        alpha = gauss_alpha(GaussParams(r, c, C))
        a = -r / math.sqrt(c)
        rho0 = math.sqrt(max(0.0, 1.0 - (c / C) ** 2))
        b = a * (1 + 2 * rho0) / math.sqrt(1 - rho0**2)
        strip, _ = integrate.quad(norm.pdf, 2 * a, a)
        tail, _ = integrate.quad(norm.pdf, -np.inf, b)
        assert abs(alpha - strip * tail) <= 1e-6

        # covariance with eigenvalues pinned to the extremes [cn, Cn]
        theta = rng.uniform(0, math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        sigma = rot @ np.diag([c * n, C * n]) @ rot.T
        mu = rng.normal(size=2) * 3
        t = r * math.sqrt(n)
        z = rng.multivariate_normal(mu, sigma, size=1_000_000)
        hits = np.mean((z[:, 0] <= mu[0] - t) & (z[:, 1] <= mu[1] - t))
        se = math.sqrt(max(hits * (1 - hits), 1e-12) / 1_000_000)
        assert hits + 3 * se >= alpha, (r, c, C, hits, alpha)
