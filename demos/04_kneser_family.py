"""
Generalized Kneser graphs and the embedding into Z_p^n
======================================================

Vertices are ordered m-tuples of pairwise disjoint k-subsets of [n];
adjacency asks that cyclic prefix unions of one tuple avoid suffix unions
of the other (in either orientation).  m = 1 recovers the classical Kneser
graph.  Each vertex also embeds as a multiplicity vector in Z_p^n with
p = m + 1, and edges land near the all-ones vector under differences.
"""

import numpy as np

from chroma.cayley import chromatic_number_exact
from chroma.kneser import (
    KneserParams,
    build_graph,
    check_embedding_edge,
    chi_lower_bound,
    count_vertices,
    embed_vertex,
    embedding_k,
    kneser_adjacent,
    kneser_vertices,
)

# -- the classical case: chi is exactly n - 2k + 2 --------------------------
# build_graph attaches Lovasz's bound and a coloring that meets it, so the
# solver closes chi from the theorem (proof lovasz-1978) without a search

print("classical regression (m = 1):")
for n, k in [(5, 2), (6, 2), (7, 3)]:
    _, graph = build_graph(KneserParams(n, k, 1))
    res = chromatic_number_exact(graph)
    print(f"  KN({n},{k}): V={graph.n:3d}  chi={res.chromatic_number} ({res.proof})"
          f"  (n-2k+2 = {n - 2*k + 2})")

# -- a genuinely generalized instance ---------------------------------------

params = KneserParams(6, 2, 2)
print("\nKN(6,2,2):", count_vertices(params), "vertices")
verts = kneser_vertices(params)
a, b = verts[0], verts[5]
print("example pair", a.parts, b.parts, "adjacent:", kneser_adjacent(a, b))

# the spectral lower bound on chi, as an exact rational
for n, k, m in [(125, 5, 4), (6, 2, 2), (5, 2, 1)]:
    print(f"chi(KN({n},{k},{m})) >= {chi_lower_bound(KneserParams(n, k, m))}")

# -- embedding into Z_p^n ---------------------------------------------------

p, n = 3, 9
k = embedding_k(p, n)
print(f"\nembedding p={p}, n={n}: module picks k={k}")
params = KneserParams(n, k, p - 1)
verts = kneser_vertices(params)
x = embed_vertex(verts[0], p, n)
print("first vertex", verts[0].parts, "embeds as", x)

rng = np.random.default_rng(4)
checked = ok = 0
while checked < 200:
    u, v = (verts[i] for i in rng.choice(len(verts), size=2, replace=False))
    if kneser_adjacent(u, v):
        checked += 1
        ok += check_embedding_edge(u, v, p, n, k).ok
print(f"edge differences near the all-ones vector: {ok}/{checked} sampled "
      "edges (the full graph is exhausted in the tests)")
