"""Large spectrum, Bohr sets, phase partition, and the cell-by-cell coloring."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from chroma import bohr as bohr_module
from chroma.bohr import (
    SpectrumParams,
    bohr_color,
    bohr_set,
    claim_ab_test,
    large_spectrum,
    phase_partition,
)
from chroma.cayley import CayleyView, Coloring
from chroma.constructions import golden_config, transfer_config
from chroma.equations import Equation, classify, dft
from chroma.groups import ElementSet, make_group
from chroma.primes import is_prime
from conftest import oracle_dft, oracle_proper, oracle_torus_distance


def field_set(p, indices):
    return ElementSet.from_indices(make_group([p]), indices)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        SpectrumParams(nu=0.0)
    with pytest.raises(ValueError):
        SpectrumParams(nu=1.5)
    with pytest.raises(ValueError):
        SpectrumParams(rho=0.5)  # open interval at 1/2
    with pytest.raises(ValueError):
        SpectrumParams(rho=0.0)
    SpectrumParams(nu=1.0, rho=0.49)  # boundary-adjacent values accepted


def test_arc_count_values():
    assert SpectrumParams(rho=0.05).arc_count == 40
    assert SpectrumParams(rho=0.1).arc_count == 20
    assert SpectrumParams(rho=Fraction(1, 3)).arc_count == 6
    assert SpectrumParams(rho=0.49).arc_count == 5  # ceil(200/49)
    # floats mean their decimal value exactly
    assert SpectrumParams(rho=0.1).rho_exact == Fraction(1, 10)


def test_arc_count_at_least_four(rng):
    for _ in range(200):
        rho = float(rng.uniform(1e-4, 0.4999))
        params = SpectrumParams(rho=rho)
        assert params.arc_count >= 4
        # M = ceil(2/rho): M - 1 < 2/rho <= M, checked in exact arithmetic
        m, r = params.arc_count, params.rho_exact
        assert (m - 1) * r < 2 <= m * r


# ---------------------------------------------------------------------------
# large spectrum


def test_spectrum_of_full_set_is_zero_only():
    p = 31
    full = ElementSet(make_group([p]), np.ones(p, dtype=bool))
    assert large_spectrum(full, 0.5).tolist() == [0]


def test_spectrum_requires_prime_field():
    with pytest.raises(ValueError):
        large_spectrum(ElementSet.from_indices(make_group([10]), [1]), 0.1)
    with pytest.raises(ValueError):
        large_spectrum(ElementSet.from_indices(make_group([4, 9]), [(1, 1)]), 0.1)
    with pytest.raises(ValueError):
        large_spectrum(field_set(11, [1]), 0.0)


def test_spectrum_contains_zero_for_dense_sets(rng):
    p = 101
    for _ in range(10):
        mask = rng.random(p) < 0.5
        a = ElementSet(make_group([p]), mask)
        if a.count >= 0.1 * p:
            assert 0 in large_spectrum(a, 0.1).tolist()


def test_spectrum_matches_direct_scan(rng):
    p = 101
    nu = 0.1
    for _ in range(5):
        mask = rng.random(p) < 0.3
        coeffs = oracle_dft(mask.astype(float))
        mags = np.abs(coeffs)
        # skip draws that land a coefficient right on the threshold
        if np.any(np.abs(mags - nu) < 1e-9):
            continue
        expected = sorted(np.flatnonzero(mags >= nu).tolist())
        got = large_spectrum(ElementSet(make_group([p]), mask), nu)
        assert got.tolist() == expected


def test_spectrum_below_nu_p_runs_no_transform(monkeypatch, rng):
    # |hat 1_A| <= |A|/p, so |A| < nu*p leaves an empty spectrum untransformed
    calls = []

    def counted_dft(values):
        calls.append(values.size)
        return dft(values)

    monkeypatch.setattr(bohr_module, "dft", counted_dft)
    assert large_spectrum(field_set(101, range(1, 11)), 0.1).tolist() == []  # 10 < 10.1
    assert large_spectrum(field_set(5, [1]), 0.4).tolist() == []  # 1 < 2
    assert calls == []
    # |A| = nu*p: every coefficient of a singleton in F_5 has modulus 1/5 = nu
    assert large_spectrum(field_set(5, [1]), 0.2).tolist() == [0, 1, 2, 3, 4]
    assert calls == [5]
    p, nu = 101, 0.1
    sets = [np.isin(np.arange(p), range(1, 12))] + [rng.random(p) < 0.3 for _ in range(5)]
    for mask in sets:
        mags = np.abs(oracle_dft(mask.astype(float)))
        if mask.sum() < nu * p or np.any(np.abs(mags - nu) < 1e-9):
            continue
        calls.clear()
        got = large_spectrum(ElementSet(make_group([p]), mask), nu)
        assert calls == [p]
        assert got.tolist() == np.flatnonzero(mags >= nu).tolist()


def test_spectrum_size_bounded_by_inverse_nu_squared(rng):
    # sum of |fhat|^2 equals |A|/p <= 1, so at most nu^-2 pass the threshold
    p = 97
    for nu in (0.05, 0.1, 0.3):
        for _ in range(5):
            mask = rng.random(p) < rng.uniform(0.1, 0.9)
            a = ElementSet(make_group([p]), mask)
            assert large_spectrum(a, nu).size <= 1.0 / nu**2 + 1e-6


# ---------------------------------------------------------------------------
# Bohr sets


def test_bohr_single_frequency_small_radius():
    # |x/11 - round(x/11)| <= 1/10 keeps exactly x in {0, 1, 10}
    b = bohr_set([1], 0.1, 11)
    assert b.indices().tolist() == [0, 1, 10]


def test_bohr_zero_frequency_is_everything():
    b = bohr_set([0], 0.05, 17)
    assert b.count == 17


def test_bohr_empty_frequencies_rejected():
    with pytest.raises(ValueError):
        bohr_set([], 0.1, 11)


def test_bohr_contains_zero_and_is_symmetric(rng):
    for _ in range(20):
        p = int(rng.choice([11, 31, 101]))
        size = int(rng.integers(1, 4))
        freqs = rng.integers(0, p, size=size).tolist()
        rho = Fraction(int(rng.integers(1, 50)), 100)
        b = bohr_set(freqs, rho, p)
        idx = set(b.indices().tolist())
        assert 0 in idx
        assert {(p - x) % p for x in idx} == idx


def test_bohr_membership_matches_fraction_oracle(rng):
    for _ in range(10):
        p = int(rng.choice([13, 29, 53]))
        freqs = rng.integers(1, p, size=2).tolist()
        rho = Fraction(int(rng.integers(1, 49)), 100)
        b = bohr_set(freqs, rho, p)
        member = set(b.indices().tolist())
        for x in range(p):
            expected = all(oracle_torus_distance(xi * x, p) <= rho for xi in freqs)
            assert (x in member) == expected


def test_bohr_membership_exact_past_int64_products():
    # rho's denominator times p passes 2**63: only 0 lies within 10**-17
    # of an integer, and a near-1/2 radius keeps every x
    assert bohr_set([1], Fraction(1, 10**17), 1009).indices().tolist() == [0]
    p = 1009
    rho = Fraction(10**18 - 1, 2 * 10**18)
    freqs = [3, 500]
    member = set(bohr_set(freqs, rho, p).indices().tolist())
    assert member == {x for x in range(p)
                      if all(oracle_torus_distance(xi * x, p) <= rho for xi in freqs)}


# ---------------------------------------------------------------------------
# intersection test


def test_claim_full_bohr_set_fails_for_large_sets():
    p = 17
    a = field_set(p, [1, 2, 3, 4])
    b = bohr_set([0], 0.1, p)  # all of F_p
    ok, witness = claim_ab_test(a, b, 3)
    assert not ok
    assert witness.tolist() == [1, 2, 3, 4]


def test_claim_disjoint_sets_pass():
    p = 31
    a = field_set(p, [10, 12])
    b = bohr_set([1], Fraction(1, 62), p)  # only 0 survives
    assert b.indices().tolist() == [0]
    ok, witness = claim_ab_test(a, b, 1)
    assert ok
    assert witness.size == 0


def test_claim_on_pinned_lifted_set():
    cfg = transfer_config()
    _, _, lift = cfg.build()
    assert lift.full.indices().tolist() == [3, 68, 143]
    b = bohr_set([1], 0.05, cfg.params.p)
    ok, witness = claim_ab_test(lift.full, b, cfg.params.eq.k)
    assert ok
    assert witness.tolist() == [3]


# ---------------------------------------------------------------------------
# phase partition


def test_partition_zero_frequency_single_cell():
    cells = phase_partition([0], 40, 11)
    assert cells.shape == (11, 1)
    assert np.all(cells == 0)


def test_partition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        phase_partition([], 40, 11)
    with pytest.raises(ValueError):
        phase_partition([1], 0, 11)
    with pytest.raises(ValueError):
        phase_partition([1], 2**63, 11)


@pytest.mark.parametrize("arcs", [2 * 10**17, 2**63 - 1])
def test_partition_labels_exact_past_int64_products(arcs):
    # M * (xi*u mod p) passes 2**63; the labels still match exact division
    p = 1009
    freqs = [3, 7, 500]
    rows = phase_partition(freqs, arcs, p)
    assert rows.tolist() == [[int(Fraction(arcs * (xi * u % p), p)) for xi in freqs]
                             for u in range(p)]


def test_partition_cell_count_within_codomain(rng):
    for _ in range(10):
        p = int(rng.choice([11, 101]))
        size = int(rng.integers(1, 3))
        freqs = np.unique(rng.integers(1, p, size=size)).tolist()
        m = int(rng.choice([5, 8, 20]))
        rows = phase_partition(freqs, m, p)
        distinct = np.unique(rows, axis=0).shape[0]
        assert distinct <= min(m ** len(freqs), p)
        assert rows.min() >= 0 and rows.max() < m


def test_same_cell_pairs_are_phase_close(rng):
    # exhaustive over all same-cell pairs: every frequency phase difference
    # lands within 2/M of an integer
    for p in (11, 101, 499):
        size = int(rng.integers(1, 4))
        freqs = np.unique(rng.integers(0, p, size=size)).tolist()
        m = int(rng.choice([5, 20, 40]))
        rows = phase_partition(freqs, m, p)
        _, cell_of = np.unique(rows, axis=0, return_inverse=True)
        for cid in range(cell_of.max() + 1):
            members = np.flatnonzero(cell_of == cid)
            diffs = (members[:, None] - members[None, :]) % p
            for xi in freqs:
                r = (xi * diffs) % p
                # min(r, p-r)/p <= 2/M, cross-multiplied to stay in integers
                assert np.all(np.minimum(r, p - r) * m <= 2 * p)


# ---------------------------------------------------------------------------
# the full coloring pipeline


def test_color_single_connection_cycle():
    # A = {1} makes Cay(F_p, A) a p-cycle; odd p needs exactly 3 colors
    eq = Equation([1, 1, -1, -1])
    for p in (11, 101):
        a = field_set(p, [1])
        colors, report = bohr_color(a, eq)
        assert report.proper
        assert report.colors_used == 3
        assert report.claim_passed
        assert report.max_cell_degree == 2
        assert report.cells == 1  # sparse set, empty spectrum, one cell
        assert colors.shape == (p,)
        assert set(colors.tolist()) == {0, 1, 2}


def test_color_with_nontrivial_spectrum():
    # nu below 1/p keeps every frequency, so every vertex is its own cell
    eq = Equation([1, 1, -1, -1])
    a = field_set(11, [1])
    colors, report = bohr_color(a, eq, SpectrumParams(nu=0.05, rho=0.05))
    assert report.spectrum_size == 11
    assert report.frequency_count == 11
    assert report.cells == 11
    assert report.colors_used == 11
    assert report.proper
    assert report.claim_passed
    assert report.within_budget


def test_color_random_dense_sets(rng):
    eq = Equation([1, 1, -1, -1])
    p = 101
    g = make_group([p])
    for _ in range(8):
        mask = rng.random(p) < rng.uniform(0.2, 0.6)
        mask[0] = False
        a = ElementSet(g, mask)
        if a.count == 0:
            continue
        colors, report = bohr_color(a, eq)
        assert report.proper
        # independent properness check against the actual adjacency
        conn = set(a.indices().tolist()) | {(p - x) % p for x in a.indices().tolist()}

        def neighbors_of(u, conn=conn):
            return [(u + d) % p for d in conn]

        assert oracle_proper(colors.tolist(), neighbors_of, p)
        assert set(colors.tolist()) == set(range(report.colors_used))
        if report.claim_passed:
            assert report.max_cell_degree <= 2 * (eq.k - 1)
            assert report.within_budget


def test_color_pinned_lifted_set():
    cfg = transfer_config()
    _, _, lift = cfg.build()
    colors, report = bohr_color(lift.full, cfg.params.eq,
                                SpectrumParams(s_index=0))
    assert report.proper
    assert report.colors_used == 5
    assert report.cells == 1
    assert report.max_cell_degree == 6  # degree |A u -A| in one cell
    assert not report.claim_passed  # |A n F_p| = 3 = k
    assert report.within_budget


@pytest.mark.parametrize("p, conn", [(13, [3, 6, 7, 10]), (2, [1]), (3, [1, 2])])
def test_validate_coloring_catches_every_connection_difference(p, conn):
    # conn is symmetric; the difference scan walks only d <= p // 2, so a
    # clash across d and across p - d (d = p // 2 included) must both be
    # caught, each named by its one monochromatic edge
    view = CayleyView(make_group([p]), field_set(p, conn))
    distinct = list(range(p))
    Coloring(tuple(distinct)).validate(view)
    for d in conn:
        for u in range(p):
            colors = distinct.copy()
            colors[(u + d) % p] = colors[u]
            edge = sorted((u, (u + d) % p))
            with pytest.raises(ValueError, match=rf"^edge \({edge[0]},{edge[1]}\) "):
                Coloring(tuple(colors)).validate(view)


def test_color_pullback_index_selection():
    p = 11
    a = field_set(p, [1])
    # coefficient sum 1 with no zero-sum subset of size >= 3: the pullback
    # index cannot be inferred and must be given explicitly
    eq = Equation([1, -1, 1])
    with pytest.raises(ValueError):
        bohr_color(a, eq)
    _, report = bohr_color(a, eq, SpectrumParams(s_index=0))
    assert report.s_index == 0
    assert report.proper
    # a four-term equation summing to zero picks its own index
    _, report = bohr_color(a, Equation([1, 1, -1, -1]))
    assert report.s_index == 0
    with pytest.raises(ValueError):
        bohr_color(a, eq, SpectrumParams(s_index=5))
    with pytest.raises(ValueError):  # chosen coefficient vanishes mod p
        bohr_color(a, Equation([11, -11, 1]), SpectrumParams(s_index=0))
    # the default is the first index of classify's witness: (2, 3, 4) for
    # x1 + x2 - x3 - x4 + 2x5, and k = 25 lies within classify's k <= 30
    a = field_set(101, [1, 7])
    eq = Equation([1, 1, -1, -1, 2])
    assert classify(eq).chi_witness == (2, 3, 4)
    _, report = bohr_color(a, eq)
    assert report.s_index == 2 and report.proper
    _, report = bohr_color(a, Equation([1, 1, -2] + [1] * 22))
    assert report.s_index == 0 and report.k == 25 and report.proper


def oracle_bohr_color(a_set, eq, params):
    """bohr_color's pipeline with a plain-Python, one-vertex-at-a-time greedy.

    Only the large spectrum comes from the library; the Bohr set, the
    cells, the greedy pass and the properness check are dict/set code.
    """
    p = a_set.group.moduli[0]
    members = a_set.indices().tolist()
    s_index = params.s_index
    if s_index is None:
        s_index = classify(eq).chi_witness[0]
    inv = pow(eq.coeffs[s_index] % p, -1, p)
    spectrum = large_spectrum(a_set, params.nu).tolist()
    freqs = sorted({inv * x % p for x in spectrum}) or [0]
    rho, arcs = params.rho_exact, params.arc_count
    bohr = {
        x for x in range(p)
        if all(min(xi * x % p, -xi * x % p) * rho.denominator <= rho.numerator * p
               for xi in freqs)
    }
    in_bohr = bohr & set(members)
    rows = [tuple(arcs * (xi * u % p) // p for xi in freqs) for u in range(p)]
    label = {row: i for i, row in enumerate(sorted(set(rows)))}
    cell_of = [label[row] for row in rows]
    conn = sorted(({x % p for x in members} | {-x % p for x in members}) - {0})

    colors = [-1] * p
    next_color = 0
    max_cell_degree = 0
    for cid in range(len(label)):
        local = {}
        for v in range(p):
            if cell_of[v] != cid:
                continue
            nbrs = [(v + d) % p for d in conn if cell_of[(v + d) % p] == cid]
            max_cell_degree = max(max_cell_degree, len(nbrs))
            taken = {local[u] for u in nbrs if u in local}
            c = 0
            while c in taken:
                c += 1
            local[v] = c
        for v, c in local.items():
            colors[v] = next_color + c
        next_color += max(local.values()) + 1

    budget = (2 * eq.k - 1) * arcs ** len(freqs)
    report = {
        "p": p, "k": eq.k, "nu": params.nu, "rho": str(rho), "arc_count": arcs,
        "s_index": s_index, "spectrum_size": len(spectrum),
        "frequency_count": len(freqs), "bohr_size": len(bohr),
        "intersection_size": len(in_bohr), "claim_passed": len(in_bohr) < eq.k,
        "cells": len(label), "max_cell_degree": max_cell_degree,
        "colors_used": next_color, "color_budget": budget,
        "within_budget": next_color <= budget,
        "proper": all(colors[u] != colors[(u + d) % p] for u in range(p) for d in conn),
    }
    return colors, report


def _oracle_instances():
    """(name, A, equation, params) for the run-coloring equivalence check."""
    cfg = transfer_config()
    _, _, lift = cfg.build()
    yield "transfer", lift.full, cfg.params.eq, SpectrumParams(s_index=0)
    # test_09's seeded random sets: min(A u -A) = 1, up to 59 cells, palettes
    # wider than 64 colors
    rng = np.random.default_rng(9)
    primes = [p for p in range(5, 500) if is_prime(p)]
    eq = Equation([1, 1, -1, -1])
    for i in range(20):
        p = int(rng.choice(primes))
        mask = rng.random(p) < rng.uniform(0.2, 0.6)
        mask[0] = False
        a = ElementSet(make_group([p]), mask)
        if a.count:
            yield f"test09-{i}", a, eq, SpectrumParams()
    # every vertex its own cell
    yield "eleven-cells", field_set(11, [1]), eq, SpectrumParams(nu=0.05, rho=0.05)
    # min(A u -A) = 100: runs of up to 100 vertices
    yield "wide-gap", field_set(499, list(range(100, 131))), eq, SpectrumParams()
    # one cell holding the single edge {0, 1}, where d = p - d = 1
    yield "p2", field_set(2, [1]), eq, SpectrumParams(nu=0.6)
    # one cell of 205 colors: more than two words' worth past the low 64
    rng = np.random.default_rng(5)
    mask = rng.random(401) < 0.8
    mask[0] = False
    yield "wide-palette", ElementSet(make_group([401]), mask), eq, SpectrumParams()
    # the complete graph on F_257 in one cell: 257 colors, max_cell_degree 256
    yield "complete-257", field_set(257, range(1, 257)), eq, SpectrumParams()


@pytest.mark.parametrize("name,a,eq,params",
                         [pytest.param(*case, id=case[0]) for case in _oracle_instances()])
def test_color_matches_vertex_by_vertex_oracle(name, a, eq, params, monkeypatch):
    want_colors, want_report = oracle_bohr_color(a, eq, params)
    # the default run cap, one that splits long runs, and one vertex per run
    for cap in (bohr_module._GATHER_ENTRIES, 1000, 1):
        monkeypatch.setattr(bohr_module, "_GATHER_ENTRIES", cap)
        colors, report = bohr_color(a, eq, params)
        assert colors.tolist() == want_colors, (name, cap)
        assert report.to_report() == want_report, (name, cap)


@pytest.mark.parametrize("p,halves,cells", [
    *(pytest.param(p, 4, 3, id=str(p)) for p in (2, 3, 13, 101)),
    # the complete graph in one cell: every degree is |A u -A| = p - 1, the
    # largest uint8 (255) and one past it (256)
    pytest.param(256, 128, 1, id="complete-256"),
    pytest.param(257, 128, 1, id="complete-257"),
])
def test_cell_degrees_match_per_vertex_oracle(p, halves, cells, rng):
    # three cells at the small p; max_cell_degree alone would miss a one-sided
    # count, since vertex 0 sees every wrapped pair and mirrored cells share
    # their maxima
    for _ in range(5):
        cell_of = rng.integers(0, cells, p).astype(np.int32)
        half = rng.choice(np.arange(1, p // 2 + 1), min(halves, p // 2), replace=False)
        conn = np.unique(np.concatenate((half, p - half)))
        want = [sum(cell_of[(v + d) % p] == cell_of[v] for d in conn.tolist())
                for v in range(p)]
        degree = bohr_module._cell_degrees(cell_of, conn)
        assert degree.tolist() == want
        assert degree.dtype == (np.uint8 if conn.size < 256 else np.uint16)


def test_color_golden_lift_pinned():
    # colors recorded from the vertex-by-vertex greedy on the golden lift
    cfg = golden_config()
    _, _, lift = cfg.build()
    colors, report = bohr_color(lift.full, cfg.params.eq, SpectrumParams(s_index=0))
    assert report.colors_used == 9
    assert report.max_cell_degree == 330
    assert hashlib.sha256(colors.astype("<i8").tobytes()).hexdigest() == (
        "9a4f117bc3588a31615f52b0493502cb13e4cb3a793dc9bee810429124646f6a"
    )

