"""Resource caps.

Expensive routines read these caps at call time and raise ValueError before
any work starts when an input is over one.  They bound memory (materialized
bitmaps), CPU (brute-force scans), and exact-solver size, so that desk-scale
runs stay interactive and anything larger fails loudly instead of hanging.
"""

from __future__ import annotations

# Largest group order for which an ElementSet bitmap may be materialized.
MATERIALIZE_CAP = 1 << 26

# Largest modulus accepted by the discrete Fourier transform helpers.
DFT_CAP = 1 << 20

# Largest vertex count accepted by the exact chromatic / independence solvers.
EXACT_SOLVER_CAP = 2000

# Largest vertex count for which Cayley adjacency rows are materialized.
ADJACENCY_CAP = 1 << 16

# Largest CSR entry count a graph builder allocates: 2^27 int32 entries are
# the 512 MiB that bitset rows took at ADJACENCY_CAP vertices.
CSR_ENTRY_CAP = ADJACENCY_CAP ** 2 // 32

# Work budget (number of tuples) for brute-force solution scans.
BRUTE_TUPLE_CAP = 40_000_000

# Work budget of the shift-and-add convolution (counting tables and the
# extension certificate's sumsets): one table entry per element shift.
SHIFT_ENTRY_CAP = 32 * BRUTE_TUPLE_CAP

# Largest group order whose weight-set members `kneser.independent_set`
# enumerates; above it only the exact count is reported.
WEIGHT_ENUM_CAP = 1 << 21

# Work budget of the weight-set count in `kneser.independent_set`: about
# n^2 (p-1)/2 Python-integer steps for Z_p^n.
WEIGHT_COUNT_CAP = 1 << 21

# Group order must fit the platform index type.
INDEX_TYPE_MAX = (1 << 63) - 1
