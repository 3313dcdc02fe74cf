"""
Coloring a Cayley graph through its Fourier spectrum
====================================================

Threshold the Fourier coefficients of a set A to get its large spectrum,
pull the spectrum back through one equation coefficient, and partition F_p
by discretizing the phases into arcs.  Same-cell vertices differ by Bohr-
set elements; if A barely meets the Bohr set, each cell is nearly
degenerate and a per-cell greedy pass colors the whole graph cheaply.
"""

import numpy as np

from chroma.bohr import (
    SpectrumParams,
    bohr_color,
    bohr_set,
    claim_ab_test,
    large_spectrum,
    phase_partition,
)
from chroma.equations import Equation
from chroma.groups import ElementSet, make_group

# -- spectrum and Bohr set of a structured set ------------------------------

p = 101
g = make_group([p])
arith = ElementSet.from_indices(g, [7 * t % p for t in range(20)])
spectrum = large_spectrum(arith, 0.1)
print("20-term progression in F_101: spectrum at nu=0.1 ->", spectrum.tolist())

b = bohr_set([1], 0.1, 11)
print("Bohr set B({1}, 1/10) in F_11:", b.indices().tolist())

ok, inter = claim_ab_test(arith, bohr_set([29], 0.05, p), k=3)
print("progression meets B({29}, 1/20) in", inter.size, "points; |A n B| < 3:", ok)

# -- the phase partition ----------------------------------------------------

cells = phase_partition([1, 29], 8, p)
labels = {tuple(row) for row in cells.tolist()}
print("\npartition of F_101 by two phase circles into 8 arcs:",
      len(labels), "cells")

# -- the full pipeline: always a proper coloring ----------------------------

eq = Equation([1, 1, -1, -1])
colors, report = bohr_color(ElementSet.from_indices(g, [1]), eq)
print("\ncycle C_101: %d colors, proper=%s" %
      (report.colors_used, report.proper))

rng = np.random.default_rng(7)
dense = ElementSet(g, rng.random(p) < 0.4)
colors, report = bohr_color(dense, eq)
print("random dense set (|A|=%d): %d colors, proper=%s, "
      "intersection test passed=%s"
      % (dense.count, report.colors_used, report.proper, report.claim_passed))
print("report dict keys:", sorted(report.to_report())[:6], "...")
