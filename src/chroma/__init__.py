"""chroma: solution-free sets, Cayley/Kneser graphs, and exact colorings.

A computational toolkit for additive combinatorics over finite abelian
groups: classify linear equations by their zero-sum structure, count
solutions exactly (convolution and Fourier routes), build Cayley and
generalized Kneser graphs with exact chromatic/independence solvers, and
construct dense solution-free sets with machine-checked certificates.
"""

from .bohr import (
    BohrSet,
    ColoringReport,
    SpectrumParams,
    bohr_color,
    bohr_set,
    claim_ab_test,
    large_spectrum,
    phase_partition,
    rho_from_supersaturation,
)
from .cayley import (
    CayleyView,
    ChromaticResult,
    Coloring,
    Graph,
    IndependenceResult,
    VertexSet,
    chromatic_number_exact,
    dsatur_coloring,
    greedy_bounds,
    greedy_clique,
    independence_number_exact,
)
from .constructions import (
    CertificateBundle,
    CertificateRecord,
    ConstructionParams,
    GaussParams,
    LiftResult,
    NormContext,
    PinnedConfig,
    build_core_set,
    build_extension_set,
    certify_lift,
    check_core_norm_bound,
    coordinate_norm,
    default_core_threshold,
    default_extension_threshold,
    discretize_grid_point,
    extension_gap_check,
    gauss_alpha,
    golden_config,
    lift_to_prime_field,
    norm,
    normalize_equation,
    scale_conditions,
    std_normal_cdf,
    transfer_config,
    unrestricted_extension_indices,
)
from .equations import (
    Equation,
    EquationClass,
    SolutionFreeResult,
    classify,
    count_solutions_brute_all,
    count_solutions_dft_all,
    dft,
    first_zero_sum_subset,
    idft,
    is_solution_free,
)
from .exact import Surd, max_int_le, min_int_ge
from .graphio import read_dimacs, write_coloring_cnf, write_dimacs
from .groups import (
    CrtSplit,
    ElementSet,
    GroupSpec,
    crt_split,
    make_group,
    parse_group_literal,
)
from .kneser import (
    HammingBallSet,
    IndependentSetResult,
    KneserParams,
    KneserVertex,
    build_graph,
    check_embedding_edge,
    chi_lower_bound,
    classical_binary_independent_set,
    count_vertices,
    embed_vertex,
    embedding_k,
    hamming_ball,
    independent_set,
    kneser_adjacent,
    kneser_vertices,
    ones_weight,
)
from .primes import is_prime, next_prime

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
