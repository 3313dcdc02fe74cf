"""Generalized Kneser graphs, the prime-power embedding, and weight sets."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chroma import cayley, config, kneser
from chroma.cayley import Graph, chromatic_number_exact, independence_number_exact
from chroma.graphio import read_dimacs, write_dimacs
from chroma.exact import Surd
from chroma.groups import make_group
from chroma.kneser import (
    HammingBallSet,
    KneserParams,
    KneserVertex,
    build_graph,
    check_embedding_edge,
    chi_lower_bound,
    count_vertices,
    embed_vertex,
    embedding_k,
    independent_set,
    kneser_adjacent,
    kneser_vertices,
    ones_weight,
)


def oracle_adjacent(a_parts, b_parts):
    """Literal transcription of the two prefix/suffix disjointness conditions.

    Direction 1: for every i, the union of the first i parts of a is disjoint
    from the union of parts i..m of b.  Direction 2 swaps the roles.
    """
    m = len(a_parts)

    def one_way(xs, ys):
        for i in range(1, m + 1):
            prefix = set().union(*xs[:i])
            suffix = set().union(*ys[i - 1:])
            if prefix & suffix:
                return False
        return True

    return one_way(a_parts, b_parts) or one_way(b_parts, a_parts)


def test_params_validation():
    KneserParams(6, 2, 2)
    with pytest.raises(ValueError):
        KneserParams(5, 2, 2)  # 5 < (2+1)*2
    with pytest.raises(ValueError):
        KneserParams(4, 0, 2)
    assert KneserParams(5, 2, 1).classical
    assert not KneserParams(6, 2, 2).classical


def test_vertex_counts():
    assert count_vertices(KneserParams(5, 2, 1)) == 10
    assert count_vertices(KneserParams(6, 2, 2)) == 90   # C(6,2)*C(4,2)
    assert count_vertices(KneserParams(7, 2, 2)) == 210  # C(7,2)*C(5,2)
    assert count_vertices(KneserParams(9, 2, 2)) == 756


def test_enumeration_matches_count_and_is_valid():
    params = KneserParams(6, 2, 2)
    verts = kneser_vertices(params)
    assert len(verts) == 90
    assert len(set(verts)) == 90
    for v in verts:
        assert len(v.parts) == 2
        assert all(len(part) == 2 for part in v.parts)
        assert len(set().union(*v.parts)) == 4  # pairwise disjoint


def test_adjacency_matches_oracle_exhaustively():
    params = KneserParams(6, 2, 2)
    verts = kneser_vertices(params)
    for a, b in itertools.combinations(verts, 2):
        want = oracle_adjacent(a.parts, b.parts)
        assert kneser_adjacent(a, b) == want
        assert kneser_adjacent(b, a) == want
    for v in verts:
        assert not kneser_adjacent(v, v)


def test_hand_traced_adjacency_example():
    # prefix {0,1} misses {2,3,4,5} and prefix {0,1,2,3} misses {4,5}
    a = KneserVertex(((0, 1), (2, 3)))
    b = KneserVertex(((2, 3), (4, 5)))
    assert kneser_adjacent(a, b)
    # but ({2,3},{4,5}) vs ({0,1},{4,5}): both directions collide on {4,5}
    c = KneserVertex(((0, 1), (4, 5)))
    assert not kneser_adjacent(b, c)
    assert oracle_adjacent(b.parts, c.parts) is False


def test_classical_case_reduces_to_disjointness():
    params = KneserParams(5, 2, 1)
    verts = kneser_vertices(params)
    for a, b in itertools.combinations(verts, 2):
        assert kneser_adjacent(a, b) == (not (set(a.parts[0]) & set(b.parts[0])))


def test_build_graph_agrees_with_pairwise_adjacency():
    params = KneserParams(6, 2, 2)
    verts, graph = build_graph(params)
    assert graph.n == 90
    for i, j in itertools.combinations(range(20), 2):
        assert (j in graph.neighbors(i)) == kneser_adjacent(verts[i], verts[j])


@pytest.mark.parametrize("n, k, m", [(7, 2, 1), (6, 2, 2), (7, 1, 3)])
def test_build_graph_matches_adjacency_on_every_pair(n, k, m):
    verts, graph = build_graph(KneserParams(n, k, m))
    assert graph.n == len(verts) == count_vertices(KneserParams(n, k, m))
    for i, a in enumerate(verts):
        want = [j for j, b in enumerate(verts) if j != i and kneser_adjacent(a, b)]
        assert graph.neighbors(i) == want
        assert i not in graph.neighbors(i)


@pytest.mark.parametrize("n, k, m", [(7, 2, 2), (9, 3, 1)])
def test_ground_set_permutations_preserve_build_graph_rows(rng, n, k, m):
    # a permutation of {0..n-1} applied to every part maps the graph onto
    # itself, which is why build_graph may flag it vertex-transitive
    verts, graph = build_graph(KneserParams(n, k, m))
    assert graph.vertex_transitive
    index = {v.parts: i for i, v in enumerate(verts)}
    for _ in range(4):
        perm = rng.permutation(n).tolist()
        image = [index[tuple(tuple(sorted(perm[j] for j in part)) for part in v.parts)]
                 for v in verts]
        assert sorted(image) == list(range(len(verts)))
        for i in range(len(verts)):
            assert graph.neighbors(image[i]) == sorted(image[u] for u in graph.neighbors(i))


@pytest.mark.parametrize("n, k, m", [(9, 2, 3), (70, 2, 1), (65, 1, 2)])
def test_build_graph_rows_of_a_sample(n, k, m):
    # n > 64 puts each cascade union in two uint64 words
    verts, graph = build_graph(KneserParams(n, k, m))
    sample = np.random.default_rng(n).choice(len(verts), 12, replace=False)
    for i in sorted(sample.tolist()) + [0, len(verts) - 1]:
        a = verts[i]
        want = [j for j, b in enumerate(verts) if j != i and kneser_adjacent(a, b)]
        assert graph.neighbors(i) == want
    assert not any(i in graph.neighbors(i) for i in range(graph.n))


def test_chi_lower_bound_values():
    assert chi_lower_bound(KneserParams(125, 5, 4)) == Fraction(1)
    assert chi_lower_bound(KneserParams(5, 2, 1)) == Fraction(1, 4)
    # raw rational may be non-positive at small scale
    assert chi_lower_bound(KneserParams(6, 2, 2)) == Fraction(0)
    with pytest.raises(ValueError):
        chi_lower_bound(KneserParams(9, 3, 3))  # m+1 = 4 is not prime


def test_classical_chromatic_identity_small():
    verts, graph = build_graph(KneserParams(6, 2, 1))
    res = chromatic_number_exact(graph)
    assert res.exact and res.lower == 6 - 2 * 2 + 2


# test_01's instances, the pinned chi search trees' and a few more that the
# bare-graph search closes in well under a second, chi and alpha both
_SEARCHED = [(5, 2), (6, 2), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3), (10, 2), (13, 6)]


@pytest.mark.parametrize("n, k", _SEARCHED, ids=lambda v: str(v))
def test_theorem_bounds_equal_the_searched_values(n, k):
    # Lovasz's chi and the Erdos-Ko-Rado alpha against a search on the same
    # rows without the carried results; alpha(KG(13, 6)) stays open there, so
    # only its bracket is checked, under a 0.5 s budget
    _, graph = build_graph(KneserParams(n, k, 1))
    bare = Graph(graph.n, graph.indptr, graph.indices, vertex_transitive=True)
    chi = chromatic_number_exact(bare)
    assert chi.exact and chi.proof == "exhausted-search"
    assert chi.chromatic_number == graph.bracket[0].chromatic_number == n - 2 * k + 2
    ekr = graph.bracket[1].independence_number
    assert ekr == math.comb(n - 1, k - 1)
    if (n, k) == (13, 6):
        alpha = independence_number_exact(bare, budget_s=0.5)
        assert alpha.lower <= ekr <= alpha.upper
    else:
        alpha = independence_number_exact(bare)
        assert alpha.exact and alpha.proof == "exhausted-search"
        assert alpha.independence_number == ekr


def test_only_classical_build_graph_carries_the_bracket(tmp_path):
    _, graph = build_graph(KneserParams(7, 2, 1))
    chi, alpha = graph.bracket
    assert (chi.lower, chi.upper, chi.nodes, chi.proof) == (5, 5, 0, "lovasz-1978")
    assert (alpha.lower, alpha.upper, alpha.nodes, alpha.proof) == (6, 6, 0, "ekr-1961")
    for params in [(6, 2, 2), (7, 1, 3), (7, 2, 2)]:
        assert build_graph(KneserParams(*params))[1].bracket is None
    assert Graph.from_edges(graph.n, graph.edges()).bracket is None
    path = tmp_path / "kg72.dimacs"
    write_dimacs(graph, path)
    back = read_dimacs(path)
    assert back.bracket is None
    assert np.array_equal(back.indices, graph.indices)


def test_classical_graphs_close_without_search(monkeypatch, no_masks):
    # every classical KG(n, k) in test_02's range: no greedy bound, no search
    # and no bitset rows, and validated witnesses of the theorems' values
    def no_work(*args):
        raise AssertionError("searched a theorem-closed graph")

    for name in ("_bitset_rows", "greedy_clique", "dsatur_coloring", "_greedy_independent"):
        monkeypatch.setattr(cayley, name, no_work)
    closed = 0
    for n in range(2, 16):
        for k in range(1, n // 2 + 1):
            params = KneserParams(n, k, 1)
            if count_vertices(params) > config.EXACT_SOLVER_CAP:
                continue
            verts, graph = build_graph(params)
            chi = chromatic_number_exact(graph, budget_s=0)
            assert (chi.exact, chi.nodes, chi.proof) == (True, 0, "lovasz-1978")
            assert chi.chromatic_number == chi.coloring.num_colors == n - 2 * k + 2
            colors = np.array(chi.coloring.colors)
            u, v = np.array(list(graph.edges())).reshape(-1, 2).T
            assert not (colors[u] == colors[v]).any()
            alpha = independence_number_exact(graph, budget_s=0)
            assert (alpha.exact, alpha.nodes, alpha.proof) == (True, 0, "ekr-1961")
            assert alpha.independence_number == math.comb(n - 1, k - 1)
            assert all(0 in verts[v].parts[0] for v in alpha.vertex_set.members)
            closed += 1
    assert closed == 50


def test_embedding_coordinates():
    v = KneserVertex((frozenset({0, 1}),))
    assert embed_vertex(v, 2, 4) == (1, 1, 0, 0)
    w = KneserVertex((frozenset({0, 1}), frozenset({2, 3})))
    assert embed_vertex(w, 3, 6) == (1, 1, 2, 2, 0, 0)


def test_embedding_injective():
    verts = kneser_vertices(KneserParams(6, 2, 2))
    images = {embed_vertex(v, 3, 6) for v in verts}
    assert len(images) == len(verts)


def test_embedding_k_choice():
    # smallest k with n - p*k <= sqrt(n)
    assert embedding_k(2, 9) == 3
    assert embedding_k(3, 9) == 2
    assert embedding_k(2, 16) == 6


def test_embedded_edges_land_in_ball_small():
    p, n = 3, 9
    k = embedding_k(p, n)
    params = KneserParams(n, k, p - 1)
    verts, graph = build_graph(params)
    checked = 0
    for u, v in graph.edges():
        res = check_embedding_edge(verts[u], verts[v], p, n, k)
        assert res.ok, (verts[u], verts[v], res)
        assert res.within_bound and res.within_ball
        checked += 1
        if checked >= 500:
            break
    assert checked > 0


# Flags pinned to what the check reported before its fields were trimmed
# (within_bound, within_ball, and complement_overlap_ok and min_part_overlap_ok).
@pytest.mark.parametrize("a, b, p, n, k, flags", [
    # an edge of KN(9, 3), checked at k, k + 1 and k - 1
    (((0, 1, 2),), ((3, 4, 5),), 2, 9, 3, (True, True, True)),
    (((0, 1, 2),), ((3, 4, 5),), 2, 9, 4, (False, True, False)),
    (((0, 1, 2),), ((3, 4, 5),), 2, 9, 2, (True, True, False)),
    # an edge of the (9, 2, 2) graph, checked at k, k + 1 and k - 1
    (((0, 1), (2, 3)), ((2, 3), (4, 5)), 3, 9, 2, (True, True, True)),
    (((0, 1), (2, 3)), ((2, 3), (4, 5)), 3, 9, 3, (False, True, False)),
    (((0, 1), (2, 3)), ((2, 3), (4, 5)), 3, 9, 1, (True, True, False)),
    # KN(20, 1): the difference of two singletons is 1 on 2 of the 20
    # coordinates, 18 away from all-ones and outside the ball 2*sqrt(20)
    (((0,),), ((1,),), 2, 20, 1, (True, False, True)),
])
def test_embedding_edge_flags(a, b, p, n, k, flags):
    res = check_embedding_edge(KneserVertex(a), KneserVertex(b), p, n, k)
    assert (res.within_bound, res.within_ball, res.overlaps_ok) == flags
    assert res.ok == all(flags)


def test_hamming_ball_distance_reduces_mod_p():
    ball = HammingBallSet(3, 4, Surd.rational(1))
    # 4, -2 and 7 are 1 mod 3; 3, 0, 2, 5 and -1 are not
    assert ball.distance((4, -2, 7, 3)) == 1
    rows = np.array([[4, -2, 7, 3], [1, 1, 1, 1], [0, 2, 5, -1]])
    assert ball.distance(rows).tolist() == [1, 0, 4]
    assert ball.contains_coords((4, -2, 7, 3))
    assert not ball.contains_coords((0, 2, 5, -1))


def test_ones_weight_values():
    assert ones_weight(5, (0, 0, 0)) == 0
    assert ones_weight(5, (1,)) == 1
    assert ones_weight(5, (4,)) == Fraction(1, 4)
    assert ones_weight(3, (1, 2, 0)) == Fraction(3, 2)


def test_ones_weight_triangle_property(rng):
    p, n = 5, 6
    for _ in range(2000):
        x = tuple(int(c) for c in rng.integers(0, p, size=n))
        y = tuple(int(c) for c in rng.integers(0, p, size=n))
        diff = tuple((a - b) % p for a, b in zip(x, y))
        neg_y = tuple((-b) % p for b in y)
        assert ones_weight(p, diff) <= ones_weight(p, x) + ones_weight(p, neg_y)


def test_hamming_ball_counts():
    ball = HammingBallSet(3, 2, Surd.rational(1))
    assert ball.to_element_set().count == 5  # center + 2 coords * 2 values
    full = HammingBallSet(3, 2, Surd.sqrt(3, 2))  # radius 3*sqrt(2) covers everything
    assert full.to_element_set().count == 9
    assert ball.contains_coords((1, 1))
    assert ball.contains_coords((1, 0))
    assert not ball.contains_coords((0, 2))


@pytest.mark.parametrize("p, n", [(2, 8), (2, 11), (3, 5), (5, 3), (7, 2)])
def test_whole_group_scans_match_the_coordinate_table(p, n):
    # both scans read each axis from the element index; here they meet the
    # distance and the weights taken over the full (p^n, n) coordinate table
    coords = make_group([p] * n).indices_to_coords(np.arange(p ** n))
    w_pos = ((p - coords) * (coords != 0)).sum(axis=1)
    w_neg = coords.sum(axis=1)
    members = 0
    for radius in (Surd.rational(0), Surd.rational(1), Surd.sqrt(1, n), Surd.sqrt(p, n)):
        ball = HammingBallSet(p, n, radius)
        want = np.flatnonzero(ball.distance(coords) <= ball.distance_cutoff())
        assert np.array_equal(ball.to_element_set().indices(), want)
        res = independent_set(p, n, radius)
        cutoff = res.threshold.scaled(p - 1).floor()
        want = np.flatnonzero((w_pos <= cutoff) & (w_neg <= cutoff))
        assert np.array_equal(res.member_indices, want)
        members += want.size
    assert members > 1


def test_whole_group_scans_build_no_coordinate_table():
    # at Z_2^20 a (2^20, 20) int64 coordinate table alone takes 160 MiB
    for scan in (lambda: HammingBallSet(2, 20, Surd.sqrt(2, 20)).to_element_set(),
                 lambda: independent_set(2, 20)):
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20


def test_independent_set_default_radius_is_degenerate():
    res = independent_set(3, 8)
    assert res.degenerate
    assert res.count == 0


def test_independent_set_relaxed_radius_frozen_counts():
    # exhaustive oracle counts at radius sqrt(n): 1, 1, 17
    for n, want in [(6, 1), (7, 1), (8, 17)]:
        res = independent_set(3, n, radius=Surd.sqrt(1, n))
        assert res.count == want, n
    res = independent_set(3, 8, radius=Surd.sqrt(1, 8))
    coords = res.members_coords()
    assert coords.shape == (17, 8)
    zero = np.zeros(8, dtype=coords.dtype)
    assert any((row == zero).all() for row in coords)


def test_independent_set_members_avoid_ball(rng):
    p, n = 3, 7
    res = independent_set(p, n, radius=Surd.sqrt(1, n))
    ball = HammingBallSet(p, n, Surd.sqrt(1, n))
    members = res.members_coords()
    for a in members:
        for b in members:
            diff = tuple((int(x) - int(y)) % p for x, y in zip(a, b))
            assert not ball.contains_coords(diff)


def test_classical_binary_independent_set():
    res = independent_set(2, 9)
    assert res.count == 10  # weight <= 9/2 - 3 means weight <= 1
    res4 = independent_set(2, 4)  # 2 - 2 = 0: only the origin
    assert res4.count == 1


def _binary_weight_oracle(n, radius_sq):
    """Vectors of Z_2^n with Hamming weight <= n/2 - sqrt(radius_sq)."""
    out = set()
    for x in itertools.product((0, 1), repeat=n):
        slack = Fraction(n, 2) - sum(x)
        if slack >= 0 and radius_sq <= slack * slack:
            out.add(x)
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_binary_weight_set_matches_hamming_oracle(n):
    radii = [(Surd.sqrt(1, n), n), (Surd.rational(1), 1), (Surd.rational(0), 0),
             (Surd.sqrt(2, n), 4 * n)]
    for radius, radius_sq in radii:
        res = independent_set(2, n, radius)
        got = {tuple(int(c) for c in row) for row in res.members_coords()}
        assert res.count == len(got)
        assert got == _binary_weight_oracle(n, radius_sq), (n, radius_sq)


def test_count_above_enumeration_cap_is_exact(monkeypatch):
    # above the enumeration cap the count still equals the exhaustive oracle's
    monkeypatch.setattr(config, "WEIGHT_ENUM_CAP", 100)
    res = independent_set(3, 8, radius=Surd.sqrt(1, 8))
    assert res.member_indices is None
    assert res.count == 17 and res.density == 17 / 3**8
    with pytest.raises(ValueError, match="enumerated only up to 100"):
        res.members_coords()


def test_binary_count_above_enumeration_cap_is_exact(monkeypatch):
    monkeypatch.setattr(config, "WEIGHT_ENUM_CAP", 100)
    res = independent_set(2, 12, radius=Surd.rational(2))
    assert res.member_indices is None
    assert res.count == len(_binary_weight_oracle(12, 4))


_GRID_RADII = {
    "default": lambda n: None,
    "sqrt-n": lambda n: Surd.sqrt(1, n),
    "zero": lambda n: Surd.rational(0),
    "one": lambda n: Surd.rational(1),
    "2sqrt-n": lambda n: Surd.sqrt(2, n),
}


@pytest.mark.parametrize("radius", sorted(_GRID_RADII))
@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5, 7, 11, 13)
                                  for n in range(1, 17) if p ** n <= 1 << 16])
def test_weight_set_count_matches_enumeration(p, n, radius):
    res = independent_set(p, n, _GRID_RADII[radius](n))
    assert res.count == res.member_indices.size
    assert res.density == res.count / p ** n


def test_binary_count_matches_binomial_sum():
    # at p = 2 the set is the Hamming ball of radius n/2 - sqrt(n) around 0
    n = 1000
    res = independent_set(2, n)
    cutoff = 468            # floor(500 - sqrt(1000)), as 31^2 < 1000 < 32^2
    assert res.count == sum(math.comb(n, w) for w in range(cutoff + 1))
    assert res.member_indices is None


def test_count_pinned_above_enumeration_cap():
    # 3^14 = 4,782,969 elements is over the default enumeration cap
    res = independent_set(3, 14, radius=Surd.sqrt(1, 14))
    assert res.member_indices is None
    assert res.count == 9311 and res.density == 9311 / 3**14


def test_weight_set_count_refuses_over_cap_before_work(monkeypatch):
    # the count takes about n^2 (p-1)/2 steps: 8 * 8 * 2 / 2 = 64 at (3, 8)
    monkeypatch.setattr(config, "WEIGHT_COUNT_CAP", 63)

    def no_work(*args, **kwargs):
        raise AssertionError("counted before the cap check")

    monkeypatch.setattr(kneser, "_weight_set_count", no_work)
    monkeypatch.setattr(kneser, "make_group", no_work)
    with pytest.raises(ValueError, match="64 steps exceeds the cap 63"):
        independent_set(3, 8, radius=Surd.sqrt(1, 8))


@pytest.mark.parametrize("n", [0, -1])
def test_independent_set_needs_positive_n(n):
    with pytest.raises(ValueError, match=f"n >= 1, got n = {n}"):
        independent_set(3, n)
