"""chroma: solution-free sets, Cayley/Kneser graphs, and exact colorings.

A computational toolkit for additive combinatorics over finite abelian
groups: classify linear equations by their zero-sum structure, count
solutions exactly (convolution and Fourier routes), build Cayley and
generalized Kneser graphs with exact chromatic/independence solvers, and
construct dense solution-free sets with machine-checked certificates.

The root exports only `Equation`, `classify`, `ElementSet` and `make_group`;
import everything else from its own module, e.g. `chroma.cayley`.
"""

from .equations import Equation, classify
from .groups import ElementSet, make_group

__version__ = "0.1.0"

__all__ = ["ElementSet", "Equation", "classify", "make_group"]
