"""
Linear equations: degeneracy classes and solution counting
==========================================================

A single equation c1*x1 + ... + ck*xk = 0 is classified by which subsets of
its coefficients sum to zero, and solution counts over a subset A of F_p can
be taken either by brute force or by convolving A's indicator through float
FFTs under a proved rounding bound — the two agree exactly.
"""

import numpy as np

from chroma.equations import (
    Equation,
    classify,
    count_solutions_brute_all,
    count_solutions_dft_all,
    dft,
    idft,
    is_solution_free,
)
from chroma.groups import ElementSet, make_group

# -- the three-way degeneracy classification --------------------------------

for coeffs in ([1, -1, 3], [1, -2, 3, -4], [1, -3, 2]):
    eq = Equation(coeffs)
    res = classify(eq)
    print(f"{str(eq):30s} full-sum-zero={res.roth_degenerate!s:5s} "
          f"zero-sum-triple={res.chi_vanishing!s:5s} "
          f"any-zero-sum={res.rt_degenerate!s:5s} "
          f"witness={res.witness_subset}")

# the implications always run one way: full sum => size>=3 subset => subset

# -- solution-free sets and witnesses ---------------------------------------

g = make_group([17])
eq = Equation([1, 1, -1])                       # Schur-like: x + y = z
sumfree = ElementSet.from_indices(g, [1, 3, 8, 14])
res = is_solution_free(eq, sumfree)
print("\n{1,3,8,14} free of x+y=z (distinct entries):", res.free)

bad = ElementSet.from_indices(g, [2, 3, 5])     # 2 + 3 = 5
res = is_solution_free(eq, bad)
print("{2,3,5} free:", res.free, " witness:", res.witness)

# -- counting: brute force vs the transform route ---------------------------

rng = np.random.default_rng(0)
p = 19
a = ElementSet(make_group([p]), rng.random(p) < 0.5)
eq = Equation([1, 2, -3])
brute = count_solutions_brute_all(eq, a)
viadft = count_solutions_dft_all(eq, a)
print("\np=19, |A|=%d: counts per target y" % a.count)
print("  brute:", brute.tolist())
print("  dft:  ", viadft.tolist())
print("  equal:", np.array_equal(brute, viadft),
      " total = |A|^3:", int(brute.sum()) == a.count ** 3)

# -- the transform itself: energy is conserved, and it inverts --------------

f = a.mask().astype(float)
table = dft(f)
print("\nParseval: sum|f|^2/p = %.12f, sum|fhat|^2 = %.12f"
      % (np.sum(f**2) / p, float(np.sum(np.abs(table) ** 2))))
print("inversion recovers f:", np.allclose(idft(table).real, f))
