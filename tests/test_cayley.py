"""Graphs, Cayley views, and the exact coloring/independence solvers."""

import hashlib
import itertools
import math
import re
import time
import types

import numpy as np
import pytest

from chroma import cayley, config, kneser
from chroma.cayley import (
    Bracket,
    CayleyView,
    Coloring,
    Graph,
    VertexSet,
    _Budget,
    chromatic_number_exact,
    dsatur_coloring,
    greedy_bounds,
    greedy_clique,
    independence_number_exact,
)
from chroma.bohr import bohr_color, large_spectrum
from chroma.constructions import (build_core_set, build_extension_set,
                                  extension_property_holds, transfer_config)
from chroma.equations import (
    Equation,
    count_solutions_brute_all,
    count_solutions_dft_all,
    dft,
    is_solution_free,
)
from chroma.exact import Surd
from chroma.groups import ElementSet, make_group
from chroma.kneser import HammingBallSet, KneserParams, build_graph, kneser_vertices


def bare(graph):
    """The same CSR without the builder's bracket, so the solvers search."""
    return Graph(graph.n, graph.indptr, graph.indices, vertex_transitive=True)


def random_graph(rng, n, density):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def oracle_chromatic(graph):
    """Smallest k admitting a proper coloring, by exhaustive assignment."""
    n = graph.n
    for k in range(1, n + 1):
        for colors in itertools.product(range(k), repeat=n):
            if all(colors[u] != colors[v] for u, v in graph.edges()):
                return k
    return n


def oracle_independence(graph):
    """Largest independent set by subset enumeration (n <= 20)."""
    best = 0
    n = graph.n
    edges = list(graph.edges())
    for mask in range(1 << n):
        if all(not (mask >> u & 1 and mask >> v & 1) for u, v in edges):
            best = max(best, bin(mask).count("1"))
    return best


def test_cycle_and_complete_graph():
    g5 = make_group([5])
    c5 = CayleyView(g5, ElementSet.from_indices(g5, [1])).to_graph()
    assert chromatic_number_exact(c5).lower == 3
    assert independence_number_exact(c5).lower == 2

    k5 = CayleyView(g5, ElementSet.from_indices(g5, [1, 2, 3, 4])).to_graph()
    r = chromatic_number_exact(k5)
    assert (r.lower, r.upper, r.exact) == (5, 5, True)
    assert independence_number_exact(k5).lower == 1


def test_full_connection_on_prime_group():
    # Z_p with every nonzero difference: chi = p and alpha = 1
    g = make_group([7])
    conn = ElementSet.from_indices(g, range(1, 7))
    graph = CayleyView(g, conn).to_graph()
    assert chromatic_number_exact(graph).lower == 7
    assert independence_number_exact(graph).lower == 1


def test_petersen_numbers():
    _, graph = build_graph(KneserParams(5, 2, 1))
    assert graph.n == 10
    assert graph.edge_count() == 15
    chi = chromatic_number_exact(graph)
    assert (chi.lower, chi.upper) == (3, 3)
    alpha = independence_number_exact(graph)
    assert (alpha.lower, alpha.upper) == (4, 4)
    assert oracle_independence(graph) == 4


def test_exact_chi_matches_oracle_on_random_graphs(rng):
    for density in (0.2, 0.5, 0.8):
        for _ in range(6):
            graph = random_graph(rng, 7, density)
            want = oracle_chromatic(graph)
            got = chromatic_number_exact(graph)
            assert got.exact
            assert got.lower == got.upper == want
            got.coloring.validate(graph)
            assert got.coloring.num_colors == want


@pytest.mark.parametrize("n, chi", [(0, 0), (3, 1)])
def test_exact_chi_of_edgeless_graphs(n, chi):
    # the greedy clique (0 or 1 vertices) meets the DSATUR coloring
    graph = Graph.from_edges(n, [])
    res = chromatic_number_exact(graph)
    assert (res.lower, res.upper, res.exact, res.nodes) == (chi, chi, True, 0)
    assert res.proof == "clique-meets-coloring"
    res.coloring.validate(graph)
    assert res.coloring.num_colors == chi


# the bounds that can close an alpha bracket once the budget is spent
_BUDGET_CLOSERS = ("clique-cover", "clique-coclique")


def test_exact_alpha_matches_oracle_on_random_graphs(rng):
    for density in (0.2, 0.5, 0.8):
        for _ in range(6):
            graph = random_graph(rng, 12, density)
            want = oracle_independence(graph)
            got = independence_number_exact(graph)
            assert got.exact
            assert got.lower == got.upper == want
            got.vertex_set.validate_independent(graph)
            assert got.vertex_set.size == want
            res = independence_number_exact(graph, budget_s=0)
            assert res.exact == (res.lower == res.upper) and res.nodes == 1
            assert res.proof in (_BUDGET_CLOSERS if res.exact else ("budget",))
            assert res.lower <= want <= res.upper


def _small_circulants(rng):
    """(n, members): Cay(Z_n, S) for every 5 <= n <= 16, with one to three
    seeded generators."""
    return [(n, sorted({int(x) for x in rng.integers(1, n, size)}))
            for n in range(5, 17) for size in (1, 2, 3)]


def test_exact_alpha_matches_oracle_on_circulants(rng):
    for n, members in _small_circulants(rng):
        graph = _cayley_graph((n,), members)
        want = oracle_independence(graph)
        got = independence_number_exact(graph)
        assert got.exact and got.lower == got.upper == want, (n, members)
        got.vertex_set.validate_independent(graph)
        assert got.vertex_set.size == want
        # a spent budget leaves the root clique cover as the upper end
        res = independence_number_exact(graph, budget_s=0)
        assert res.exact == (res.lower == res.upper) and res.nodes == 1
        assert res.proof in (_BUDGET_CLOSERS if res.exact else ("budget",))
        assert res.lower <= want <= res.upper < n, (n, members)
        res.vertex_set.validate_independent(graph)


@pytest.mark.parametrize("moduli, members, alpha", [
    ((73,), [1, 5, 11, 20, 27], 22),
    ((3, 3, 3, 3), [1, 3, 9, 27, 40], 27),     # +-{e1, e2, e3, e4, (1,1,1,1)}
    ((127,), [1, 5, 11, 20, 27, 40], 38),
])
def test_exact_alpha_on_pinned_cayley_graphs(moduli, members, alpha):
    graph = _cayley_graph(moduli, members)
    res = independence_number_exact(graph)
    assert res.exact and res.lower == res.upper == alpha
    res.vertex_set.validate_independent(graph)
    assert res.vertex_set.size == alpha
    assert 0 in res.vertex_set.members      # the search on a Cayley graph fixes vertex 0


def test_alpha_budget_takes_the_clique_coclique_bound():
    # Cay(Z_127, +-{1,5,11,20,27,40}): alpha = 38 and omega = 3, so
    # alpha <= 127 // 3 = 42 beats both clique covers when the budget is spent
    graph = _cayley_graph((127,), [1, 5, 11, 20, 27, 40])
    assert len(greedy_clique(graph)) == 3
    res = independence_number_exact(graph, budget_s=0)
    assert not res.exact and res.nodes == 1
    # the seed is the best character arc, which is a maximum independent set here
    assert res.lower == 38 and res.upper == 42
    res.vertex_set.validate_independent(graph)


def test_alpha_budget_closed_by_the_clique_coclique_bound_is_exact():
    # Cay(Z_13, +-{2}) is a 13-cycle: at a zero budget the greedy set of 6
    # meets 13 // omega = 6, below both clique covers
    res = independence_number_exact(_cayley_graph((13,), [2]), budget_s=0)
    assert (res.lower, res.upper, res.exact, res.proof, res.nodes) == (6, 6, True, "clique-coclique", 1)
    assert res.independence_number == 6


def brute_alpha(graph):
    """Largest independent set by enumerating every independent set."""
    nbrs = [sum(1 << u for u in graph.neighbors(v)) for v in range(graph.n)]

    def grow(v, allowed):
        if v == graph.n:
            return 0
        skip = grow(v + 1, allowed)
        return max(skip, 1 + grow(v + 1, allowed & ~nbrs[v])) if allowed >> v & 1 else skip

    return grow(0, (1 << graph.n) - 1)


def _seeded_cayley_graphs():
    """(moduli, members) of 120 Cayley graphs: prime and composite Z_n,
    Z_a x Z_b, Z_2^5 and Z_3^3, each with one to n / 4 seeded elements."""
    rng = np.random.default_rng(20261019)
    groups = [(n,) for n in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]
    groups += [(n,) for n in (6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 27, 30, 32, 36)]
    groups += [(2, 4), (2, 6), (3, 3), (4, 4), (3, 5), (2, 8), (4, 6), (5, 5), (3, 9)]
    groups += [(2,) * 5, (3,) * 3]
    out = []
    while len(out) < 120:
        moduli = groups[len(out) % len(groups)]
        order = int(np.prod(moduli))
        size = int(rng.integers(1, order // 4 + 1))
        out.append((moduli, sorted({int(x) for x in rng.integers(1, order, size)})))
    return out


_SEEDED_CAYLEY = _seeded_cayley_graphs()


def test_reflections_keep_alpha_on_seeded_cayley_graphs():
    # a bare copy of the CSR carries no group: it searches from nothing, with
    # neither vertex 0 fixed nor any reflection
    for moduli, members in _SEEDED_CAYLEY:
        graph = _cayley_graph(moduli, members)
        got = independence_number_exact(graph)
        want = independence_number_exact(Graph(graph.n, graph.indptr, graph.indices))
        assert got.exact and want.exact
        assert got.lower == want.lower, (moduli, members)
        got.vertex_set.validate_independent(graph)
        assert got.vertex_set.size == got.lower


def test_reflections_match_brute_force_on_small_cayley_graphs():
    small = [(moduli, members) for moduli, members in _SEEDED_CAYLEY if np.prod(moduli) <= 16]
    assert len(small) >= 50
    for moduli, members in small:
        graph = _cayley_graph(moduli, members)
        assert independence_number_exact(graph).lower == brute_alpha(graph), (moduli, members)


def test_reflections_cut_the_alpha_search_on_z127():
    # Cay(Z_127, +-{1,5,11,20,27,40}): 19,506 nodes with vertex 0 fixed alone
    # from the greedy set of 37; 3,610 with the reflections and the arc set of 38
    graph = _cayley_graph((127,), [1, 5, 11, 20, 27, 40])
    fixed = independence_number_exact(Graph(graph.n, graph.indptr, graph.indices,
                                            vertex_transitive=True))
    res = independence_number_exact(graph)
    assert (fixed.lower, fixed.nodes) == (38, 19506)
    assert (res.lower, res.exact, res.proof, res.nodes) == (38, True, "exhausted-search", 3610)


def oracle_arc(graph):
    """The largest {x : chi_u(x) < m_u} over the characters chi_u of the
    graph's group, lowest u first, or [0] when each is empty; plain Python."""
    moduli = graph.group.moduli
    exponent = math.lcm(*moduli)
    elements = list(itertools.product(*(range(n) for n in moduli)))  # index order
    conn = [elements[s] for s in graph.neighbors(0)]
    best = [0]
    for u in elements:
        def chi(x):
            return sum(ui * xi * (exponent // n) for ui, xi, n in zip(u, x, moduli)) % exponent
        m = min((min(chi(s), exponent - chi(s)) for s in conn), default=exponent)
        arc = [i for i, x in enumerate(elements) if chi(x) < m]
        if len(arc) > len(best):
            best = arc
    return best


def test_arc_set_is_the_best_character_arc(rng):
    cases = _SEEDED_CAYLEY + [((n,), members) for n, members in _small_circulants(rng)]
    # K_4, where every character vanishes on S, and the empty graph on Z_7
    cases += [((2, 2), [1, 2, 3]), ((7,), [])]
    for moduli, members in cases:
        graph = _cayley_graph(moduli, members)
        arc = cayley._arc_independent(graph)
        VertexSet(tuple(arc)).validate_independent(graph)
        assert 0 in arc
        assert arc == oracle_arc(graph), (moduli, members)
        bare_alpha = independence_number_exact(Graph(graph.n, graph.indptr, graph.indices))
        assert independence_number_exact(graph).lower == bare_alpha.lower, (moduli, members)


def test_arc_set_of_z3_4_is_a_hyperplane():
    # Cay(Z_3^4, +-{e1, e2, e3, e4, (1,1,1,1)}): the kernel of a character, alpha = 27
    graph = _cayley_graph((3, 3, 3, 3), [1, 3, 9, 27, 40])
    arc = cayley._arc_independent(graph)
    assert len(arc) == 27 == independence_number_exact(graph).lower
    coords = graph.group.indices_to_coords(arc)
    sums = graph.group.coords_to_indices(coords[:, None, :] + coords[None, :, :])
    assert set(sums.ravel().tolist()) == set(arc)


def test_arc_scan_across_block_boundaries(monkeypatch):
    graphs = [_cayley_graph(m, s) for m, s in [((127,), [1, 5, 11, 20, 27, 40]),
                                               ((3, 3, 3, 3), [1, 3, 9, 27, 40]),
                                               ((4, 6), [1, 7, 9]), ((2,) * 5, [3, 5, 17, 30])]]
    want = [cayley._arc_independent(g) for g in graphs]
    for entries in (1, 13, 50):
        monkeypatch.setattr(cayley, "_BLOCK_ENTRIES", entries)
        assert [cayley._arc_independent(g) for g in graphs] == want, entries


def test_budget_bound_alpha_on_z131_brackets_the_truth():
    # alpha(Cay(Z_131, +-{1,5,11,20,27,40})) = 34 takes about 1 s to close
    graph = _cayley_graph((131,), [1, 5, 11, 20, 27, 40])
    res = independence_number_exact(graph, budget_s=0.2)
    assert res.lower <= 34 <= res.upper
    assert res.proof == ("exhausted-search" if res.exact else "budget")
    res.vertex_set.validate_independent(graph)
    assert res.vertex_set.size == res.lower


def test_alpha_budget_builds_the_whole_graph_bound_inside_the_budget(monkeypatch):
    # a spent budget falls back on the whole graph's cover and greedy clique;
    # both are built as the budget starts, not once its deadline has passed
    graph = _cayley_graph((1999,), [1, 5, 11, 20, 27, 40])
    budgets, finished = [], []

    class RecordedBudget(_Budget):
        def __init__(self, seconds):
            super().__init__(seconds)
            budgets.append(self)

    def timed(fn):
        def run(*args):
            out = fn(*args)
            finished.append((fn.__name__, time.monotonic()))
            return out
        return run

    monkeypatch.setattr(cayley, "_Budget", RecordedBudget)
    monkeypatch.setattr(cayley, "_bitset_rows", timed(cayley._bitset_rows))
    monkeypatch.setattr(cayley, "greedy_clique", timed(cayley.greedy_clique))
    res = independence_number_exact(graph, budget_s=0.2)
    assert (res.exact, res.proof) == (False, "budget")
    [budget] = budgets
    assert {name for name, _ in finished} == {"_bitset_rows", "greedy_clique"}
    assert all(t < budget.deadline for _, t in finished), (finished, budget.deadline)


# KN(n, k, 1) -> (search nodes, coloring with one digit per vertex).  Any
# change to the branching vertex or its tie-breaks changes one of them.
_PINNED_CHI_SEARCH = {
    (13, 6, 1): (415, (
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000010100100000100000000010000000000000222212011111211112111211211211"
        "111211112111211211211111111111111111111111111111111111111112111121112112"
        "112111111111111111111111111111111111111111111111111111111111111111111111"
        "111111111111111111111111111111111111111112111121112112112111111111111111"
        "111111111111111111111111111111111111111111111111111111111111111111111111"
        "111111111111111111111111111111111111111111111111111111111111111111111111"
        "111111111111111111111111111111111111111111111111111111111111111111111111"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000120100100010000100000222222222222222222202222222222222222222222"
        "222222222222222222222222222222222222222222222222222222222222222222222222"
        "222222222222222222222222222222222222222222222222222222222222222222222222"
        "222222222222222222222222222222222222222222222122122122212222122222222222"
        "222222222222222222222222222222222222222222222222222222222222222222222222"
        "222222222222222222222222222122122122212222122222222222222222222222222222"
        "222222222221221221222122221222221221221222122221222221121111"
    )),
    (10, 2, 1): (26859, (
        "000000000512733461255545111111222227746346464"
    )),
    (9, 3, 1): (2225, (
        "000000000000000000000000000031422213233111124422213333111144422411113333"
        "331111114442"
    )),
}


@pytest.mark.parametrize("params", sorted(_PINNED_CHI_SEARCH),
                         ids=lambda p: "KN({},{},{})".format(*p))
def test_chi_search_tree_is_pinned(params):
    nodes, digits = _PINNED_CHI_SEARCH[params]
    graph = bare(build_graph(KneserParams(*params))[1])
    res = chromatic_number_exact(graph)
    assert (res.exact, res.proof, res.nodes) == (True, "exhausted-search", nodes)
    assert res.lower == res.upper == params[0] - 2 * params[1] + 2    # Lovasz
    assert res.coloring.colors == tuple(map(int, digits))


def test_greedy_bounds_on_a_large_circulant_builds_no_bitsets(monkeypatch, no_masks):
    # Cay(Z_65521, 30 seeded elements) runs greedy bounds on the neighbour
    # rows alone; the coloring's SHA-256 prefix was recorded with the bitset
    # DSATUR that walked n-bit rows
    def no_bitsets(*args):
        raise AssertionError("bitset rows built")

    monkeypatch.setattr(cayley, "_bitset_rows", no_bitsets)
    gens = np.sort(np.random.default_rng(2026).choice(np.arange(1, 32761), 15, replace=False))
    graph = _cayley_graph((65521,), gens.tolist())
    gb = greedy_bounds(graph)
    assert (gb.clique, gb.clique_lower, gb.dsatur_upper) == ((0, 866), 2, 11)
    colors = np.array(gb.coloring.colors, dtype="<i4").tobytes()
    assert hashlib.sha256(colors).hexdigest()[:16] == "2bbf27c4307addc1"


def test_chromatic_number_exact_builds_no_bitsets(monkeypatch, no_masks):
    # the chi search reads the neighbour rows only, solved or budget-bound,
    # and a theorem-closed graph is not searched at all
    def no_bitsets(*args):
        raise AssertionError("bitset rows built")

    monkeypatch.setattr(cayley, "_bitset_rows", no_bitsets)
    for params, budget in (((9, 3, 1), None), ((10, 2, 1), 0)):
        graph = bare(build_graph(KneserParams(*params))[1])
        res = chromatic_number_exact(graph, budget_s=budget)
        assert res.exact == (budget is None)
    _, graph = build_graph(KneserParams(10, 2, 1))
    res = chromatic_number_exact(graph, budget_s=0)
    assert (res.exact, res.nodes, res.proof, res.upper) == (True, 0, "lovasz-1978", 8)


def _with_bracket(graph, **changes):
    """A bracket-free copy of graph carrying its bracket with some fields replaced."""
    fields = {name: getattr(graph.bracket, name) for name in Bracket.__dataclass_fields__}
    return Graph(graph.n, graph.indptr, graph.indices, vertex_transitive=True,
                 bracket=Bracket(**{**fields, **changes}))


def test_an_open_bracket_seeds_the_chi_search():
    # KG(8, 3): clique 2 and DSATUR 5 colors; with Lovasz's 4 and a coloring
    # that gives every vertex its own color, the search stops at 4 colors
    _, graph = build_graph(KneserParams(8, 3, 1))
    own = Coloring(tuple(range(graph.n)))
    res = chromatic_number_exact(_with_bracket(graph, coloring=own))
    assert (res.exact, res.upper, res.proof) == (True, 4, "lovasz-1978")
    assert 0 < res.nodes < chromatic_number_exact(bare(graph)).nodes
    res.coloring.validate(graph)
    # a lower bound under the clique's leaves the search its own proof
    res = chromatic_number_exact(_with_bracket(graph, coloring=own, chi_lower=1))
    assert (res.exact, res.upper, res.proof) == (True, 4, "exhausted-search")
    # the better of the DSATUR and the attached colorings seeds the search
    res = chromatic_number_exact(_with_bracket(graph, chi_lower=1), budget_s=0)
    assert (res.exact, res.upper, res.proof) == (False, 4, "budget")


def test_an_open_bracket_stops_the_alpha_search_at_its_upper_bound():
    # the first seeded random graph on which the greedy set is not maximum;
    # given alpha as an upper bound, the search stops when it reaches it
    # instead of going on to exhaust the tree
    rng = np.random.default_rng(0)
    while True:
        graph = random_graph(rng, 40, 0.3)
        searched = independence_number_exact(graph)
        if len(cayley._greedy_independent(graph)) < searched.independence_number:
            break
    alpha = searched.independence_number
    assert searched.proof == "exhausted-search"
    assert independence_number_exact(graph, budget_s=0).proof == "budget"
    bracket = Bracket(1, "none", Coloring(tuple(range(graph.n))), VertexSet((0,)), alpha,
                      "given")
    res = independence_number_exact(
        Graph(graph.n, graph.indptr, graph.indices, bracket=bracket))
    assert (res.exact, res.independence_number, res.proof) == (True, alpha, "given")
    assert res.nodes < searched.nodes
    res.vertex_set.validate_independent(graph)


def bitset_greedy_independent(graph):
    """The alpha seed as it ran on whole-graph bitset rows (Python ints)."""
    masks = [sum(1 << u for u in graph.neighbors(v)) for v in range(graph.n)]
    alive = (1 << graph.n) - 1
    out = []
    while alive:
        # take the alive vertex of minimum residual degree (lowest index tie)
        pick, pick_key = -1, None
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            key = ((masks[v] & alive).bit_count(), v)
            if pick_key is None or key < pick_key:
                pick, pick_key = v, key
        out.append(pick)
        alive &= ~(masks[pick] | (1 << pick))
    return sorted(out)


def test_greedy_independent_matches_the_bitset_greedy():
    # 100 seeded circulants, 100 seeded random graphs (edgeless ones among
    # them), K_7, product groups and generalized Kneser graphs
    rng = np.random.default_rng(27)
    graphs = []
    for _ in range(100):
        n = int(rng.integers(2, 160))
        size = int(rng.integers(1, min(n - 1, 6) + 1))
        graphs.append(_cayley_graph((n,), rng.choice(np.arange(1, n), size, replace=False)))
    for _ in range(100):
        graphs.append(random_graph(rng, int(rng.integers(1, 60)), float(rng.random())))
    graphs += [_cayley_graph((7,), [1, 2, 3]),
               _cayley_graph((3,) * 4, [1, 3, 9, 27, 40]),
               _cayley_graph((3,) * 4, [4, 13, 50, 77]),
               _cayley_graph((2,) * 8, [1, 2, 4, 8, 16, 32, 64, 128, 255]),
               _cayley_graph((2,) * 8, [3, 21, 90, 170, 201])]
    graphs += [build_graph(KneserParams(*p))[1] for p in ((7, 2, 2), (8, 2, 2), (6, 1, 4))]
    assert len(graphs) >= 200
    for graph in graphs:
        assert cayley._greedy_independent(graph) == bitset_greedy_independent(graph)


def test_attached_witnesses_are_rechecked():
    _, graph = build_graph(KneserParams(5, 2, 1))
    # vertices 0 = {0,1} and 7 = {2,3} are adjacent; swap 7's color onto 0's
    colors = list(graph.bracket.coloring.colors)
    colors[7] = colors[0]
    with pytest.raises(ValueError, match="monochromatic"):
        chromatic_number_exact(_with_bracket(graph, coloring=Coloring(tuple(colors))))
    star = graph.bracket.independent.members
    with pytest.raises(ValueError, match="adjacent"):
        independence_number_exact(_with_bracket(graph, independent=VertexSet(star[:-1] + (7,))))
    with pytest.raises(ValueError, match="listed twice"):
        independence_number_exact(_with_bracket(graph, independent=VertexSet(star[:-1] + star[:1])))
    with pytest.raises(ValueError, match="exceeds its upper bound"):
        _with_bracket(graph, chi_lower=4)
    with pytest.raises(ValueError, match="exceeds its upper bound"):
        _with_bracket(graph, alpha_upper=3)


def test_clique_validation_rejects_non_cliques(rng):
    for _ in range(40):
        graph = random_graph(rng, 12, 0.6)
        members = tuple(int(v) for v in rng.choice(graph.n, int(rng.integers(1, 5)),
                                                    replace=False))
        vs = VertexSet(members)
        if all(v in graph.neighbors(u) for u, v in itertools.combinations(members, 2)):
            vs.validate_clique(graph)
        else:
            with pytest.raises(ValueError, match="member pairs are adjacent"):
                vs.validate_clique(graph)
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    VertexSet((0, 1, 2)).validate_clique(triangle)
    with pytest.raises(ValueError):
        VertexSet((0, 1, 1)).validate_clique(triangle)
    with pytest.raises(ValueError):
        VertexSet((0, 1, 2)).validate_clique(Graph.from_edges(3, [(0, 1), (1, 2)]))


def test_greedy_clique_validates_its_clique(monkeypatch):
    def reject(self, graph):
        raise ValueError("not a clique")

    monkeypatch.setattr(VertexSet, "validate_clique", reject)
    graph = _cycle(7)
    with pytest.raises(ValueError, match="not a clique"):
        greedy_clique(graph)
    with pytest.raises(ValueError, match="not a clique"):
        greedy_bounds(graph)


def test_greedy_bounds_bracket(rng):
    for _ in range(10):
        graph = random_graph(rng, 30, 0.3)
        gb = greedy_bounds(graph)
        assert gb.clique_lower <= gb.dsatur_upper
        gb.coloring.validate(graph)
        clique = gb.clique
        for u, v in itertools.combinations(clique, 2):
            assert v in graph.neighbors(u)


def test_dsatur_is_deterministic(rng):
    graph = random_graph(rng, 40, 0.4)
    c1 = dsatur_coloring(graph)
    c2 = dsatur_coloring(graph)
    assert c1.colors == c2.colors


def rescan_dsatur(graph):
    """DSATUR that rescans every uncolored vertex for each pick."""
    n = graph.n
    colors = [-1] * n
    neighbor_colors = [0] * n
    for _ in range(n):
        pick, pick_key = -1, None
        for v in range(n):
            if colors[v] != -1:
                continue
            key = (bin(neighbor_colors[v]).count("1"), len(graph.neighbors(v)), -v)
            if pick_key is None or key > pick_key:
                pick, pick_key = v, key
        c = 0
        while neighbor_colors[pick] >> c & 1:
            c += 1
        colors[pick] = c
        for u in graph.neighbors(pick):
            neighbor_colors[u] |= 1 << c
    return tuple(colors)


def _cayley_graph(moduli, members):
    g = make_group(moduli)
    return CayleyView(g, ElementSet.from_indices(g, members)).to_graph()


_DSATUR_CASES = {
    **{f"kneser{p}": lambda p=p: build_graph(KneserParams(*p))[1]
       for p in [(5, 2, 1), (7, 2, 1), (6, 2, 2), (7, 1, 3)]},
    **{f"cayley{m}": lambda m=m, s=s: _cayley_graph(m, s)
       for m, s in [((73,), [1, 5, 11, 20, 27]), ((101,), [3, 7, 50]),
                    ((3, 3, 3, 3), [1, 3, 9, 27, 40]), ((2, 3, 4), [1, 5, 13, 23]),
                    ((2, 2, 2, 2, 2), [1, 2, 4, 8, 16, 31])]},
    **{f"random{n}-{d}": lambda n=n, d=d: random_graph(np.random.default_rng(n), n, d)
       for n, d in [(30, 0.0), (30, 1.0), (40, 0.1), (60, 0.5), (80, 0.9)]},
    # ten disjoint K4s: every vertex has degree 3, so picks tie on degree throughout
    "disjoint-k4s": lambda: Graph.from_edges(
        40, [(b + i, b + j) for b in range(0, 40, 4) for i, j in itertools.combinations(range(4), 2)]),
}


@pytest.mark.parametrize("name", sorted(_DSATUR_CASES))
def test_dsatur_matches_rescan_loop(name):
    graph = _DSATUR_CASES[name]()
    coloring = dsatur_coloring(graph)
    assert coloring.colors == rescan_dsatur(graph)
    coloring.validate(graph)


def test_coloring_validate_rejects_improper():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    Coloring((0, 1, 0)).validate(graph)
    with pytest.raises(ValueError):
        Coloring((0, 0, 1)).validate(graph)
    with pytest.raises(ValueError):
        Coloring((0, 1)).validate(graph)


def test_validators_name_the_first_bad_pair_in_edge_order(rng):
    for _ in range(40):
        graph = random_graph(rng, 25, 0.3)
        colors = tuple(int(c) for c in rng.integers(0, 4, graph.n))
        bad = [(u, v) for u, v in graph.edges() if colors[u] == colors[v]]
        if bad:
            with pytest.raises(ValueError, match=rf"^edge \({bad[0][0]},{bad[0][1]}\) "):
                Coloring(colors).validate(graph)
        else:
            Coloring(colors).validate(graph)
        members = sorted(int(v) for v in rng.choice(graph.n, 6, replace=False))
        bad = [(u, v) for u, v in itertools.combinations(members, 2) if v in graph.neighbors(u)]
        vs = VertexSet(tuple(rng.permutation(members).tolist()))
        if bad:
            with pytest.raises(ValueError, match=rf"^vertices {bad[0][0]},{bad[0][1]} "):
                vs.validate_independent(graph)
        else:
            vs.validate_independent(graph)


def _named_edge(coloring, target):
    """The edge `Coloring.validate` names on target, or None when it passes."""
    try:
        coloring.validate(target)
    except ValueError as err:
        match = re.fullmatch(r"edge \((\d+),(\d+)\) is monochromatic", str(err))
        assert match, str(err)
        return int(match[1]), int(match[2])
    return None


def test_cyclic_view_and_csr_validators_agree(rng):
    # the difference scan on the view and the gathered CSR rows of its graph
    # must pass the same colorings and name the same first edge: on DSATUR
    # colorings, on each one with a clash planted across every d, and on
    # random three-colorings
    for n in [2, 3, 4, 5, 12, 13, 64, 101, 128, 256, 257, *rng.integers(6, 258, 8).tolist()]:
        g = make_group([n])
        members = rng.choice(np.arange(1, n), min(int(rng.integers(1, 6)), n - 1), replace=False)
        view = CayleyView(g, ElementSet.from_indices(g, members))
        graph = view.to_graph()
        dsatur = dsatur_coloring(graph)
        assert _named_edge(dsatur, view) is None
        assert _named_edge(dsatur, graph) is None
        colorings = [Coloring(tuple(int(c) for c in rng.integers(0, 3, n))) for _ in range(3)]
        for d in view.symmetric.indices().tolist():
            u = int(rng.integers(n))
            colors = list(dsatur.colors)
            colors[(u + d) % n] = colors[u]
            colorings.append(Coloring(tuple(colors)))
        for coloring in colorings:
            edge = _named_edge(coloring, view)
            assert edge == _named_edge(coloring, graph), (n, coloring)
            if edge is not None:
                u, v = edge
                assert u < v and v in graph.neighbors(u)
                assert coloring.colors[u] == coloring.colors[v]


def test_product_group_view_is_validated_on_its_graph(rng):
    g = make_group([3, 4])
    view = CayleyView(g, ElementSet.from_indices(g, [1, 5]))
    graph = view.to_graph()
    for _ in range(20):
        coloring = Coloring(tuple(int(c) for c in rng.integers(0, 3, g.order)))
        assert _named_edge(coloring, view) == _named_edge(coloring, graph)
    z12 = make_group([12])
    for target in (view, CayleyView(z12, ElementSet.from_indices(z12, [1]))):
        with pytest.raises(ValueError, match="coloring length"):
            Coloring((0, 1)).validate(target)


def test_identity_in_the_connection_set_warns_at_the_caller():
    g = make_group([13])
    with pytest.warns(UserWarning, match="contains the identity") as record:
        view = CayleyView(g, ElementSet.from_indices(g, [0, 1, 5]))
    assert len(record) == 1
    assert record[0].filename == __file__
    graph = view.to_graph()
    want = CayleyView(g, ElementSet.from_indices(g, [1, 5])).to_graph()
    assert graph.indptr.tolist() == want.indptr.tolist()
    assert graph.indices.tolist() == want.indices.tolist()


def test_budget_exhaustion_returns_bracket(rng):
    graph = random_graph(rng, 120, 0.5)
    res = chromatic_number_exact(graph, budget_s=0.0)
    assert not res.exact
    assert res.lower <= res.upper
    res.coloring.validate(graph)


def test_zero_budget_is_spent_on_the_first_node():
    budget = _Budget(0.0)
    assert budget.tick()
    assert budget.exhausted and budget.nodes == 1
    graph = bare(build_graph(KneserParams(11, 2, 1))[1])
    res = chromatic_number_exact(graph, budget_s=0)
    assert not res.exact and res.proof == "budget"
    assert res.nodes == 1
    assert res.lower <= 9 <= res.upper      # chi(KN(11,2)) = 11 - 4 + 2
    res.coloring.validate(graph)
    assert res.coloring.num_colors == res.upper


@pytest.fixture
def seed_spends_budget(monkeypatch):
    """A clock that ticks 1 ms per read, and greedy and arc seeds that take 2 s of it."""
    clock = [0.0]

    def monotonic():
        clock[0] += 1e-3
        return clock[0]

    def slow(seed):
        def run(graph):
            clock[0] += 2.0
            return seed(graph)
        return run

    monkeypatch.setattr(cayley, "time", types.SimpleNamespace(monotonic=monotonic))
    monkeypatch.setattr(cayley, "dsatur_coloring", slow(cayley.dsatur_coloring))
    monkeypatch.setattr(cayley, "_greedy_independent", slow(cayley._greedy_independent))
    monkeypatch.setattr(cayley, "_arc_independent", slow(cayley._arc_independent))


def test_budget_covers_the_greedy_seed(seed_spends_budget):
    graph = bare(build_graph(KneserParams(11, 2, 1))[1])
    res = chromatic_number_exact(graph, budget_s=1.0)
    assert not res.exact and res.proof == "budget"
    assert res.nodes == 1
    assert res.lower <= 9 <= res.upper
    res.coloring.validate(graph)
    assert res.coloring.num_colors == res.upper
    res = independence_number_exact(graph, budget_s=1.0)
    assert not res.exact and res.nodes == 1
    assert res.lower <= 10 <= res.upper     # alpha(KN(11,2)) = C(10,1)
    res.vertex_set.validate_independent(graph)
    assert res.vertex_set.size == res.lower
    # Cay(Z_127, +-{1,5,11,20,27,40}): the arc scan runs inside the budget too
    graph = _cayley_graph((127,), [1, 5, 11, 20, 27, 40])
    res = independence_number_exact(graph, budget_s=1.0)
    assert (res.exact, res.proof, res.nodes, res.lower) == (False, "budget", 1, 38)
    res.vertex_set.validate_independent(graph)


def _cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def _z13_set():
    return ElementSet.from_indices(make_group([13]), [1, 3, 9])


_TRANSFER = transfer_config()


# entry point -> (module holding its cap, cap name, input size, call)
_CAPPED = {
    "CayleyView.to_graph": (config, "ADJACENCY_CAP", 13,
                            lambda: CayleyView(make_group([13]), _z13_set()).to_graph()),
    # Cay(Z_13, +-{1, 3, 9}) has 13 rows of 6 neighbours
    "CayleyView.to_graph CSR": (config, "CSR_ENTRY_CAP", 13 * 6,
                                lambda: CayleyView(make_group([13]), _z13_set()).to_graph()),
    "chromatic_number_exact": (config, "EXACT_SOLVER_CAP", 7,
                               lambda: chromatic_number_exact(_cycle(7))),
    "independence_number_exact": (config, "EXACT_SOLVER_CAP", 7,
                                  lambda: independence_number_exact(_cycle(7))),
    "kneser_vertices": (config, "ADJACENCY_CAP", 10,
                        lambda: kneser_vertices(KneserParams(5, 2, 1))),
    "kneser.build_graph": (config, "ADJACENCY_CAP", 10,
                           lambda: build_graph(KneserParams(5, 2, 1))),
    # the Petersen graph has 10 rows of 3 neighbours
    "kneser.build_graph CSR": (config, "CSR_ENTRY_CAP", 10 * 3,
                               lambda: build_graph(KneserParams(5, 2, 1))),
    # the weight-set count at (3, 8) takes 8 * 8 * (3 - 1) / 2 steps
    "kneser.independent_set": (config, "WEIGHT_COUNT_CAP", 64,
                               lambda: kneser.independent_set(3, 8)),
    "HammingBallSet.to_element_set": (
        config, "MATERIALIZE_CAP", 9, lambda: HammingBallSet(3, 2, Surd.sqrt(3, 2)).to_element_set()),
    # the transfer pin cuts its core and extension sets from Z_143
    "build_core_set": (config, "MATERIALIZE_CAP", 143,
                       lambda: build_core_set(_TRANSFER.params, _TRANSFER.core_threshold)),
    "build_extension_set": (config, "MATERIALIZE_CAP", 143,
                            lambda: build_extension_set(_TRANSFER.params,
                                                        _TRANSFER.extension_threshold)),
    "dft": (config, "DFT_CAP", 13, lambda: dft(np.ones(13))),
    "large_spectrum": (config, "DFT_CAP", 13, lambda: large_spectrum(_z13_set(), 0.5)),
    "bohr_color": (config, "DFT_CAP", 13, lambda: bohr_color(_z13_set(), Equation((1, 1, -2)))),
    "count_solutions_dft_all": (config, "DFT_CAP", 13,
                                lambda: count_solutions_dft_all(Equation((1, 1, -1)),
                                                                _z13_set())),
    # three shifts of the 13-entry table per coefficient
    "count_solutions_brute_all": (config, "SHIFT_ENTRY_CAP", 3 * 3 * 13,
                                  lambda: count_solutions_brute_all(Equation((1, 1, -1)),
                                                                    _z13_set())),
    # B(3) = 5 tables of at most 3 shifts of 3 elements over the 13 entries
    "count_solutions_brute_all injective": (
        config, "SHIFT_ENTRY_CAP", 5 * 3 * 3 * 13,
        lambda: count_solutions_brute_all(Equation((1, 1, -1)), _z13_set(), injective=True)),
    # the sumset -F + F of two elements takes 2 + 2 shifts, the core's one
    "extension_property_holds": (config, "SHIFT_ENTRY_CAP", 4 * 13,
                                 lambda: extension_property_holds(
                                     Equation((1, -1, 1)), 13, np.array([3]),
                                     np.array([1, 2]))),
    "is_solution_free": (config, "BRUTE_TUPLE_CAP", 5 ** 4,
                         lambda: is_solution_free(Equation((1, 1, 1, 1, -1)),
                                                  ElementSet.from_indices(make_group([13]),
                                                                          [1, 2, 3, 5, 8]))),
}


@pytest.mark.parametrize("entry", sorted(_CAPPED))
def test_caps_are_read_at_call_time(monkeypatch, entry):
    module, name, size, call = _CAPPED[entry]
    monkeypatch.setattr(module, name, size)
    call()                                      # an input at the cap runs
    monkeypatch.setattr(module, name, size - 1)
    with pytest.raises(ValueError, match="exceeds"):
        call()


@pytest.mark.parametrize("entry", ["large_spectrum", "count_solutions_dft_all", "bohr_color"])
def test_transform_cap_refuses_before_the_bitmap_is_read(monkeypatch, entry):
    call = _CAPPED[entry][3]
    monkeypatch.setattr(config, "DFT_CAP", 12)

    def trap(self):
        raise AssertionError("the bitmap was read before the cap check")

    monkeypatch.setattr(ElementSet, "mask", trap)
    monkeypatch.setattr(ElementSet, "indices", trap)
    with pytest.raises(ValueError, match="exceeds"):
        call()


@pytest.mark.parametrize("moduli, members", [
    ((3, 3, 3), [1, 5, 9, 22]),
    ((2, 3, 4), [1, 5, 13, 23]),
    ((13,), [1, 5]),
    ((12,), [3, 6, 11]),
])
def test_product_group_adjacency_matches_coordinatewise_oracle(moduli, members):
    g = make_group(moduli)
    view = CayleyView(g, ElementSet.from_indices(g, members))
    _assert_coordinatewise_adjacency(view, view.to_graph(), moduli, members)


@pytest.mark.parametrize("block_rows", [1, 5])
@pytest.mark.parametrize("moduli, members", [
    ((2, 3, 4), [1, 5, 13, 23]),
    ((13,), [1, 5]),
    ((3, 3, 3), [1, 5, 9, 22]),
])
def test_to_graph_rows_across_block_boundaries(monkeypatch, block_rows, moduli, members):
    # 5 divides none of the orders, so the last block is short
    g = make_group(moduli)
    view = CayleyView(g, ElementSet.from_indices(g, members))
    row_entries = (g.order + 7) // 8 + view.degree * g.rank
    monkeypatch.setattr(cayley, "_BLOCK_ENTRIES", block_rows * row_entries)
    graph = view.to_graph()
    _assert_coordinatewise_adjacency(view, graph, moduli, members)
    # the bitset rows, also built in blocks
    masks = cayley._bitset_rows(graph.indptr, graph.indices, graph.n)
    monkeypatch.undo()
    whole = view.to_graph()
    assert masks == cayley._bitset_rows(whole.indptr, whole.indices, whole.n)


def _assert_coordinatewise_adjacency(view, graph, moduli, members):
    g = view.group
    coords = [tuple(map(int, np.unravel_index(i, moduli))) for i in range(g.order)]
    conn = {coords[i] for i in members}
    sym = conn | {tuple((-c) % n for c, n in zip(x, moduli)) for x in conn}
    sym.discard((0,) * len(moduli))
    assert view.degree == len(sym)
    for u in range(g.order):
        row = set(graph.neighbors(u))
        for v in range(g.order):
            diff = tuple((b - a) % n for a, b, n in zip(coords[u], coords[v], moduli))
            assert (v in row) == (diff in sym)
