"""DIMACS round trips and the CNF k-colorability encoding."""

import itertools

import pytest

from chroma.cayley import Graph
from chroma.graphio import read_dimacs, write_coloring_cnf, write_dimacs


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
