"""DIMACS round trips and the CNF k-colorability encoding."""

import hashlib
import itertools

import numpy as np
import pytest

from chroma import cayley
from chroma.cayley import CayleyView, Graph
from chroma.graphio import read_dimacs, write_coloring_cnf, write_dimacs
from chroma.groups import ElementSet, make_group
from chroma.kneser import KneserParams, build_graph


def read_cnf(path):
    """Parse a DIMACS CNF file into (num_vars, clauses)."""
    num_vars = None
    clauses = []
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p cnf"):
            _, _, nv, nc = line.split()
            num_vars = int(nv)
            continue
        lits = [int(t) for t in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    return num_vars, clauses


def cnf_satisfiable(num_vars, clauses):
    """Brute-force SAT check, adequate for the tiny encodings tested here."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def test_dimacs_roundtrip(tmp_path, rng):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    graph = Graph.from_edges(5, edges)  # vertex 4 isolated
    path = tmp_path / "g.dimacs"
    write_dimacs(graph, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "p edge 5 5"
    back = read_dimacs(path)
    assert back.n == graph.n
    assert sorted(back.edges()) == sorted(graph.edges())


def _cayley(moduli, members):
    g = make_group(moduli)
    return CayleyView(g, ElementSet.from_indices(g, members)).to_graph()


# graph -> (edge count, SHA-256 prefixes of its bitset rows and of its DIMACS
# file), recorded with the builders that stored only bitset rows
_PINNED_FORMS = {
    "Z211": (lambda: _cayley((211,), [14, 38, 40, 42, 51, 123, 124, 195, 199]),
             1899, "b89f01871b380dd7", "fbc9c5547c51cd0c"),
    "Z1009": (lambda: _cayley((1009,), [3, 108, 260, 301, 315, 354, 420, 469, 473, 543,
                                        723, 785, 856, 892]),
              14126, "8faeb02ab86c138e", "4acc65680688fe76"),
    "Z4xZ6xZ9": (lambda: _cayley((4, 6, 9), [14, 37, 64, 71, 87, 139, 182, 184, 191, 199,
                                             202]),
                 2376, "5e74645ab5e19eb1", "1c9c904896090d9e"),
    "Z2^9": (lambda: _cayley((2,) * 9, [11, 68, 102, 129, 202, 289, 357, 387, 390, 393,
                                         432, 483]),
             3072, "b5fa3a692d44474f", "c5e5bcc32f082e13"),
    "KN(7,2,2)": (lambda: build_graph(KneserParams(7, 2, 2))[1],
                  1890, "da022fad1b50aa6c", "a20a713170e03e2a"),
    "KN(9,3,1)": (lambda: build_graph(KneserParams(9, 3, 1))[1],
                  840, "2ea517ceaa493366", "50f95874c378acde"),
    "KN(8,2,1)": (lambda: build_graph(KneserParams(8, 2, 1))[1],
                  210, "2b1da25b37bbb62d", "a3338fa7062092ef"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_FORMS))
def test_graph_forms_match_the_bitset_builders(tmp_path, name):
    build, edge_count, masks_digest, dimacs_digest = _PINNED_FORMS[name]
    graph = build()
    assert graph.vertex_transitive
    width = (graph.n + 7) // 8
    masks = cayley._bitset_rows(graph.indptr, graph.indices, graph.n)
    packed = b"".join(m.to_bytes(width, "little") for m in masks)
    assert hashlib.sha256(packed).hexdigest()[:16] == masks_digest
    # edges, degrees and neighbours read off the bitset rows bit by bit
    rows = [[v for v in range(graph.n) if m >> v & 1] for m in masks]
    assert list(graph.edges()) == [(u, v) for u in range(graph.n) for v in rows[u] if v > u]
    assert graph.edge_count() == edge_count
    assert graph.degrees().tolist() == [len(r) for r in rows]
    assert [graph.neighbors(v) for v in range(graph.n)] == rows
    path = tmp_path / "g.dimacs"
    write_dimacs(graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == dimacs_digest
    back = read_dimacs(path)
    assert not back.vertex_transitive
    assert cayley._bitset_rows(back.indptr, back.indices, back.n) == masks
    assert np.array_equal(back.indptr, graph.indptr)
    assert np.array_equal(back.indices, graph.indices)


@pytest.mark.parametrize("block_entries", [16, 16 * 64])
def test_edges_keep_their_order_across_row_blocks(monkeypatch, block_entries):
    # one entry per block puts each row alone, longer rows included
    graphs = [build() for build, *_ in _PINNED_FORMS.values()]
    graphs.append(Graph.from_edges(6, [(4, 5), (0, 1)]))  # isolated middle rows
    monkeypatch.setattr(cayley, "_BLOCK_ENTRIES", block_entries)
    for graph in graphs:
        want = [(u, v) for u in range(graph.n) for v in graph.neighbors(u) if v > u]
        assert list(graph.edges()) == want


def test_first_edge_gathers_at_most_one_block(monkeypatch):
    rng = np.random.default_rng(0)
    graph = _cayley((65521,), rng.choice(np.arange(1, 65521), 15, replace=False).tolist())
    assert graph.indices.size > cayley._BLOCK_ENTRIES
    gathered = []
    gather = Graph._gather

    def spy(self, vs):
        rows, cols = gather(self, vs)
        gathered.append(cols.size)
        return rows, cols

    monkeypatch.setattr(Graph, "_gather", spy)
    assert next(iter(graph.edges())) == (0, graph.neighbors(0)[0])
    assert sum(gathered) <= cayley._BLOCK_ENTRIES // 16


def test_only_builders_that_know_it_flag_vertex_transitivity(tmp_path):
    # C_5 is vertex-transitive, but nothing that reads an edge list knows it
    cycle = [(v, (v + 1) % 5) for v in range(5)]
    assert _cayley((5,), [1]).vertex_transitive
    assert not Graph.from_edges(5, cycle).vertex_transitive
    path = tmp_path / "c5.dimacs"
    write_dimacs(Graph.from_edges(5, cycle), path)
    assert not read_dimacs(path).vertex_transitive


def test_only_cayley_views_carry_their_group(tmp_path):
    # the alpha search's reflections read the group; no other builder knows one
    group = make_group([5])
    assert _cayley((5,), [1]).group == group
    cycle = Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    path = tmp_path / "c5.dimacs"
    write_dimacs(cycle, path)
    for params in ((5, 2, 1), (6, 1, 2)):
        assert build_graph(KneserParams(*params))[1].group is None
    assert cycle.group is None and read_dimacs(path).group is None
    with pytest.raises(ValueError, match="order 5 on 6 vertices"):
        Graph(6, np.zeros(7, dtype=np.int64), [], group=group)


def test_from_edges_merges_repeats_and_rejects_bad_edges():
    graph = Graph.from_edges(4, [(2, 0), (0, 2), (3, 1), (0, 2)])
    assert list(graph.edges()) == [(0, 2), (1, 3)]
    assert graph.degrees().tolist() == [1, 1, 1, 1]
    assert Graph.from_edges(3, []).edge_count() == 0
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"edge \(0,5\) out of range"):
        Graph.from_edges(3, [(0, 1), (0, 5), (1, 1)])
    with pytest.raises(ValueError, match=r"edge \(-1,2\) out of range"):
        Graph.from_edges(3, [(-1, 2)])


def test_dimacs_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.dimacs"
    bad.write_text("e 1 2\n")
    with pytest.raises(ValueError):
        read_dimacs(bad)
    bad.write_text("p edge x\n")
    with pytest.raises(ValueError):
        read_dimacs(bad)
    bad.write_text("q edge 3 0\n")
    with pytest.raises(ValueError):
        read_dimacs(bad)
    bad.write_text("p edge 3 1\ne 1\n")
    with pytest.raises(ValueError, match="e 1"):
        read_dimacs(bad)
    bad.write_text("p edge 3 5\ne 1 2\ne 1 2\n")
    with pytest.raises(ValueError, match="m = 5"):
        read_dimacs(bad)
    bad.write_text("p edge 3 1\n")
    with pytest.raises(ValueError, match="m = 1"):
        read_dimacs(bad)
    bad.write_text("p edge 3 1\ne 1 2\np edge 2 1\n")
    with pytest.raises(ValueError, match="second DIMACS problem line 'p edge 2 1'"):
        read_dimacs(bad)


def test_cnf_encoding_semantics(tmp_path):
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    sat_path = tmp_path / "k3.cnf"
    write_coloring_cnf(triangle, 3, sat_path)
    nv, clauses = read_cnf(sat_path)
    assert nv == 9
    assert cnf_satisfiable(nv, clauses)        # a triangle is 3-colorable

    unsat_path = tmp_path / "k2.cnf"
    write_coloring_cnf(triangle, 2, unsat_path)
    nv, clauses = read_cnf(unsat_path)
    assert nv == 6
    assert not cnf_satisfiable(nv, clauses)    # but not 2-colorable


def test_cnf_accepts_known_coloring(tmp_path):
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cnf_path = tmp_path / "path.cnf"
    write_coloring_cnf(path, 2, cnf_path)
    nv, clauses = read_cnf(cnf_path)
    # assignment encoding the proper coloring 0,1,0,1
    coloring = [0, 1, 0, 1]
    bits = [False] * nv
    for v, c in enumerate(coloring):
        bits[v * 2 + c] = True
    assert all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)


def test_cnf_rejects_bad_k(tmp_path):
    with pytest.raises(ValueError):
        write_coloring_cnf(Graph.from_edges(2, [(0, 1)]), 0, tmp_path / "x.cnf")


@pytest.mark.parametrize("build, k, header, digest", [
    (lambda: _cayley((13,), [1, 5]), 4, "p cnf 52 117", "3c10b7aa27f4a542"),
    (lambda: build_graph(KneserParams(5, 2, 1))[1], 3, "p cnf 30 55", "5f14aede61c68396"),
    # vertex 4 is isolated, so it has a color clause and no edge clause
    (lambda: Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]), 2, "p cnf 10 11", "cc61e1a17cb853c0"),
], ids=["Z13", "KN(5,2,1)", "P4+K1"])
def test_cnf_bytes_are_pinned(tmp_path, build, k, header, digest):
    # SHA-256 prefixes recorded when the writer held every clause in a list
    # before writing; the header's clause count is n + k * edges
    path = tmp_path / "g.cnf"
    write_coloring_cnf(build(), k, path)
    data = path.read_bytes()
    assert data.decode("ascii").splitlines()[1] == header
    assert hashlib.sha256(data).hexdigest()[:16] == digest
