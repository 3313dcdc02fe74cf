"""
Cayley graphs and their exact chromatic / independence numbers
==============================================================

Cay(G, A) joins u and v whenever v - u lies in A or -A.  Cheap greedy
bounds (clique seed, DSATUR) bracket the chromatic number; a branch-and-
bound search closes the bracket exactly, within a wall-clock budget.
"""

import tempfile

from chroma.cayley import (
    CayleyView,
    chromatic_number_exact,
    greedy_bounds,
    independence_number_exact,
)
from chroma.graphio import read_dimacs, write_coloring_cnf, write_dimacs
from chroma.groups import ElementSet, make_group

# -- an odd cycle: the smallest interesting case ----------------------------

g = make_group([13])
cycle = CayleyView(g, ElementSet.from_indices(g, [1])).to_graph()
res = chromatic_number_exact(cycle)
print("C_13: chi =", res.chromatic_number, "(odd cycle, so 3)")

# -- a denser circulant -----------------------------------------------------

conn = ElementSet.from_indices(g, [1, 5])
graph = CayleyView(g, conn).to_graph()
gb = greedy_bounds(graph)
print("\ncirculant Z_13 {1,5}: clique >=", gb.clique_lower,
      " DSATUR <=", gb.dsatur_upper)
res = chromatic_number_exact(graph)
print("exact chi =", res.chromatic_number,
      " (search nodes: %d)" % res.nodes)
alpha = independence_number_exact(graph)
print("exact alpha =", alpha.independence_number,
      " e.g.", alpha.vertex_set.members)

# chi * alpha >= n for any vertex-transitive graph — a free sanity check
print("chi * alpha >= n:", res.chromatic_number * alpha.independence_number,
      ">=", graph.n)

# -- interchange formats ----------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    dimacs = tmp + "/circulant.dimacs"
    write_dimacs(graph, dimacs)
    back = read_dimacs(dimacs)
    print("\nDIMACS round-trip: %d vertices, %d edges"
          % (back.n, back.edge_count()))

    cnf = tmp + "/three_colors.cnf"
    write_coloring_cnf(graph, 3, cnf)
    with open(cnf) as fh:
        header = [ln for ln in fh if ln.startswith("p cnf")][0].strip()
    print("3-colorability as CNF:", header,
          "(UNSAT here, since chi = %d)" % res.chromatic_number)
