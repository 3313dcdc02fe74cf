"""Coloring Cayley graphs on F_p through the large spectrum and Bohr sets.

The route: threshold the Fourier coefficients of the indicator of A to get
the large spectrum L, pull it back through one equation coefficient to get
the frequency set Gamma, and partition F_p by discretizing the phases of
xi*u for xi in Gamma into M arcs.  Two vertices in the same cell differ by
an element of the Bohr set B(Gamma, rho); if A meets that Bohr set in fewer
than k points, every cell of Cay(F_p, A) has maximum degree at most 2(k-1)
and a greedy pass colors it with at most 2k-1 colors, for a total bounded
by (2k-1) * M^|Gamma| colors overall.

The greedy pass visits each cell's vertices in ascending order, but it
colors them a run at a time rather than one by one: a run of cell vertices
spanning less than the smallest nonzero element of A u -A holds no edge,
so each of its vertices takes the smallest color free among neighbours
colored before the run, exactly as it would in the vertex-by-vertex pass.
Only earlier neighbours can hold a color: for d in A u -A above the run's
last vertex, every v - d wraps mod p to a vertex after v, still uncolored,
so the pass reads colors only through d up to that vertex.  A color c < 64
is stored as the bit 1 << c of a uint64 word per vertex: a vertex ORs its
earlier neighbours' words and takes the lowest clear bit.  Only a vertex
whose word is full, which needs a cell that has used all 64 of those
colors, goes on to a high-color step: a boolean scatter of its neighbours'
colors from 64 up and an argmin.

Everything is checked after the fact: the emitted coloring is re-validated
against the actual adjacency, whether or not the degree bound held, by the
check that `Coloring.validate` runs on a cyclic `CayleyView`: the difference
scan of `chroma.cayley`, which also counts the cell degrees, with no CSR.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .cayley import CayleyView, _difference_scan, _monochromatic_edge
from .equations import Equation, classify, dft, prime_field_order
from .exact import _as_fraction
from .groups import ElementSet, make_group

__all__ = [
    "SpectrumParams",
    "ColoringReport",
    "large_spectrum",
    "bohr_set",
    "claim_ab_test",
    "phase_partition",
    "bohr_color",
]


@dataclass(frozen=True)
class SpectrumParams:
    """Spectrum threshold nu, pullback index, and Bohr radius rho.

    nu in (0, 1] thresholds |hat 1_A|; rho in (0, 1/2) is the phase radius;
    M = ceil(2/rho) is the number of arcs in the phase discretization (at
    least 4 by the rho bound).  s_index, when given, fixes which equation
    coefficient pulls the spectrum back; by default it is the first index of
    `classify`'s zero-sum subset of size >= 3 (`chi_witness`), and if the
    equation has none, an explicit s_index is required.  The paper takes
    nu = delta/6 and rho = delta^3/(216*pi*D'), with delta a supersaturation
    constant and D' the sum of |c_i| outside the zero-sum subset.
    """

    nu: float = 0.1
    rho: float = 0.05
    s_index: int | None = None

    def __post_init__(self):
        if not 0 < self.nu <= 1:
            raise ValueError("nu must lie in (0, 1]")
        rho = _as_fraction(self.rho)
        if not 0 < rho < Fraction(1, 2):
            raise ValueError("rho must lie in (0, 1/2)")

    @property
    def rho_exact(self) -> Fraction:
        return _as_fraction(self.rho)

    @property
    def arc_count(self) -> int:
        """M = ceil(2/rho) >= 4."""
        r = self.rho_exact
        return -(-2 * r.denominator // r.numerator)


def large_spectrum(a_set: ElementSet, nu: float) -> np.ndarray:
    """Frequencies where |hat 1_A| >= nu; sorted, always a subset of F_p.

    With f = 1_A, Parseval gives sum |hat f|^2 = |A|/p <= 1, so at most
    nu^-2 frequencies can pass the threshold.  No |hat f| exceeds
    hat f(0) = |A|/p, so when |A| < nu*p, decided in integers with nu read
    as its decimal value, the spectrum is empty and no transform runs.
    """
    p = prime_field_order(a_set.group)
    if not 0 < nu <= 1:
        raise ValueError("nu must lie in (0, 1]")
    nu_exact = _as_fraction(nu)
    if a_set.count * nu_exact.denominator < nu_exact.numerator * p:
        return np.empty(0, dtype=np.int64)
    coeffs = dft(a_set.mask().astype(np.float64))
    # Exactness at the boundary is float-limited; nudge by one ulp so that
    # coefficients mathematically equal to nu are kept.
    keep = np.abs(coeffs) >= nu * (1.0 - 1e-12)
    return np.flatnonzero(keep).astype(np.int64)


def bohr_set(frequencies, rho, p: int) -> ElementSet:
    """B(Gamma, rho) = {x in F_p : every xi*x has phase within rho of an integer}.

    Exact membership: min(r, p - r) <= rho*p for r = xi*x mod p.  The
    distance is an integer, so it is compared with floor(rho*p), computed
    from rho's numerator and denominator as Python ints: float radii like
    0.1 mean exactly 1/10, and no product of the denominator and p
    overflows int64.
    """
    freqs = tuple(sorted({int(f) % p for f in frequencies}))
    if not freqs:
        raise ValueError("frequency set must be nonempty")
    rho = _as_fraction(rho)
    xs = np.arange(p, dtype=np.int64)
    ok = np.ones(p, dtype=bool)
    radius = rho.numerator * p // rho.denominator
    for xi in freqs:
        r = (xi * xs) % p
        ok &= np.minimum(r, p - r) <= radius
    return ElementSet(make_group([p]), ok)


def claim_ab_test(a_set: ElementSet, bohr: ElementSet, k: int) -> tuple[bool, np.ndarray]:
    """Whether |A n B| < k; returns the intersection as evidence either way."""
    inter = a_set.intersection(bohr).indices()
    return inter.size < k, inter


def phase_partition(frequencies, arc_count: int, p: int) -> np.ndarray:
    """Cell labels from discretizing each phase circle into arc_count arcs.

    Row u holds (floor(M * (xi*u mod p) / p)) over the frequencies; vertices
    sharing a row lie in the same cell, and then for each frequency the two
    phases sit in one arc of width 1/M, giving |xi*(u - v)/p| within 2/M of
    an integer.  With M = q*p + m the label is q*r + floor(m*r/p) for
    r = xi*u mod p, whose products stay below M and p^2, so no int64
    product overflows while M does not.
    """
    freqs = tuple(sorted({int(f) % p for f in frequencies}))
    if not freqs:
        raise ValueError("frequency set must be nonempty")
    if not 1 <= arc_count <= np.iinfo(np.int64).max:
        raise ValueError("arc_count must be a positive int64")
    q, m = divmod(arc_count, p)
    xs = np.arange(p, dtype=np.int64)
    cols = []
    for xi in freqs:
        r = (xi * xs) % p
        cols.append(q * r + m * r // p)
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ColoringReport:
    """Everything bohr_color measured, ready for JSON serialization."""

    p: int
    k: int
    nu: float
    rho: Fraction
    arc_count: int
    s_index: int
    spectrum_size: int
    frequency_count: int
    bohr_size: int
    intersection_size: int
    cells: int
    max_cell_degree: int
    colors_used: int
    proper: bool

    @property
    def claim_passed(self) -> bool:
        """Whether |A n B| < k, the test behind the color budget."""
        return self.intersection_size < self.k

    @property
    def color_budget(self) -> int:
        """(2k - 1) * M^|Gamma|: the colors a passed claim allows."""
        return (2 * self.k - 1) * self.arc_count ** self.frequency_count

    @property
    def within_budget(self) -> bool:
        return self.colors_used <= self.color_budget

    def to_report(self) -> dict:
        return {**asdict(self), "rho": str(self.rho), "claim_passed": self.claim_passed,
                "color_budget": self.color_budget, "within_budget": self.within_budget}


def _pullback(spectrum: np.ndarray, c_s: int, p: int) -> np.ndarray:
    """Gamma = {eta : c_s * eta in L}, i.e. c_s^{-1} * L."""
    inv = pow(c_s, -1, p)
    return np.unique((inv * spectrum) % p)


def _cell_degrees(cell_of: np.ndarray, conn: np.ndarray) -> np.ndarray:
    """Per vertex, its neighbours in Cay(Z_p, conn) that share its cell.

    Each edge of the difference scan counts at both of its ends, once per
    end when the scan meets it twice (d = p - d).  Each d in the symmetric
    conn adds at most one to a vertex, so the counts sit in the narrowest
    unsigned type that holds |conn|.
    """
    p = cell_of.size
    degree = np.zeros(p, dtype=np.min_scalar_type(conn.size))
    for d, same, wrap in _difference_scan(cell_of, conn):
        degree[:p - d] += same
        degree[p - d:] += wrap
        if 2 * d != p:
            degree[d:] += same
            degree[:d] += wrap
    return degree


# Upper bound on the entries of one run's gathered neighbour-color matrix;
# a run is split into consecutive sub-runs of at most this many entries.
# Both the low-color words and the high-color step of a sub-run gather
# through that one matrix of vertex indices.
_GATHER_ENTRIES = 1 << 20


def _color_cell(verts: np.ndarray, conn: np.ndarray, low: np.ndarray,
                high: np.ndarray) -> np.ndarray:
    """Greedy colors of one cell's ascending vertices, a run at a time.

    low and high are scratch space that read 0 and -1 on every vertex
    outside the cell, before and after the call.  A vertex colored c < 64
    holds the bit 1 << c in low; one colored c >= 64 holds c - 64 in high
    and 0 in low.  A run spans less than min(conn), so it holds no edge and
    its vertices see only colors given before the run starts.  Those colors
    sit on vertices below the run, so only the d in conn up to the run's
    last vertex are gathered: a larger d takes v - d below 0, which wraps
    mod p to a vertex after v, uncolored, and would read 0 and -1.

    Each vertex ORs its earlier neighbours' words into w, and the lowest
    clear bit ~w & (w + 1) is its color.  That bit is 0 only when w is
    full, which needs all 64 low colors used in the cell already; such
    vertices take the smallest high color that no earlier neighbour holds,
    by a scatter into a boolean row per vertex and an argmin.
    """
    max_rows = max(1, _GATHER_ENTRIES // max(1, conn.size))
    ends = np.searchsorted(verts, verts + (int(conn[0]) if conn.size else low.size)).tolist()
    # per vertex, how many d in conn reach at or below it
    reach = conn.searchsorted(verts, "right").tolist()
    used = 0  # high colors given so far
    start = 0
    while start < verts.size:
        stop = min(ends[start], start + max_rows)
        blk = verts[start:stop]
        back = blk[:, None] - conn[:reach[stop - 1]]
        w = np.bitwise_or.reduce(low[back], axis=1)
        free = ~w & (w + 1)
        low[blk] = free
        # (argmin: cheaper per call than all() on these short rows)
        if not free[free.argmin()]:
            rows = free == 0
            full = blk[rows]
            seen = high[back[rows]]
            # row i of taken spans flat slots i*width .. i*width + used + 1;
            # an uncolored or low-colored neighbour (-1) lands in the spare
            # last slot of the row before it (row 0: of the last row), which
            # the argmin never reads, and slot `used` is never taken, so
            # every row has a free color
            width = used + 2
            seen += np.arange(0, full.size * width, width)[:, None]
            taken = np.zeros(full.size * width, dtype=bool)
            taken[seen] = True
            new = taken.reshape(full.size, width)[:, :used + 1].argmin(axis=1)
            high[full] = new
            used = max(used, int(new.max()) + 1)
        start = stop
    words = low[verts]
    # 1 << c is 0.5 * 2**(c + 1), exactly, as a float64
    cell_colors = np.frexp(words.astype(np.float64))[1].astype(np.int64) - 1
    if used:
        rows = words == 0
        cell_colors[rows] = 64 + high[verts[rows]]
        high[verts[rows]] = -1
    low[verts] = 0
    return cell_colors


def bohr_color(a_set: ElementSet, eq: Equation,
               params: SpectrumParams | None = None) -> tuple[np.ndarray, ColoringReport]:
    """Proper-color Cay(F_p, A) cell by cell; returns (colors, report).

    Each phase cell gets a fresh palette and a greedy pass in vertex order,
    so cells never share colors and the total is the sum of per-cell counts.
    When the intersection test passes, per-cell degrees are at most 2(k-1)
    and the total stays within (2k-1) * M^|Gamma|; when it fails the greedy
    pass still terminates with a proper coloring, only the budget claim is
    dropped.  Properness is re-validated from scratch before returning.
    The greedy pass colors whole runs of consecutive cell vertices at once:
    two vertices closer than the smallest nonzero element of A u -A are
    never adjacent, so no vertex of such a run waits on another and the
    colors equal those of the vertex-by-vertex pass.
    """
    if params is None:
        params = SpectrumParams()
    p = prime_field_order(a_set.group)
    k = eq.k

    s_index = params.s_index
    if s_index is None:
        witness = classify(eq).chi_witness
        if witness is None:
            raise ValueError(
                "equation has no zero-sum subset of size >= 3; "
                "pass an explicit s_index"
            )
        s_index = witness[0]
    if not 0 <= s_index < k:
        raise ValueError(f"s_index {s_index} out of range")
    c_s = eq.coeffs[s_index]
    if c_s % p == 0:
        raise ValueError("chosen coefficient vanishes mod p")

    spectrum = large_spectrum(a_set, params.nu)
    if spectrum.size:
        frequencies = _pullback(spectrum, c_s, p)
    else:
        # Empty spectrum: fall back to the trivial frequency, one cell.
        frequencies = np.array([0], dtype=np.int64)
    arc_count = params.arc_count
    bohr = bohr_set(frequencies, params.rho_exact, p)
    _, intersection = claim_ab_test(a_set, bohr, k)

    # one stable sort of the phase rows, first column most significant: cells
    # are numbered in lexicographic row order, vertices ascend within a cell
    cell_matrix = phase_partition(frequencies, arc_count, p)
    order = np.lexsort(cell_matrix.T[::-1])
    rows = cell_matrix[order]
    change = (rows[1:] != rows[:-1]).any(axis=1)
    # int32 labels (every label is below p <= DFT_CAP) halve the scan's reads
    cell_of = np.empty(p, dtype=np.int32)
    cell_of[order] = np.concatenate(([0], np.cumsum(change)))
    bounds = np.flatnonzero(change) + 1
    num_cells = bounds.size + 1

    view = CayleyView(a_set.group, a_set.symmetrized_without_zero())
    conn = view.symmetric.indices()

    colors = np.full(p, -1, dtype=np.int64)
    low = np.zeros(p, dtype=np.uint64)
    high = np.full(p, -1, dtype=np.int64)
    next_color = 0
    for verts in np.split(order, bounds):
        cell_colors = _color_cell(verts, conn, low, high)
        colors[verts] = next_color + cell_colors
        next_color += int(cell_colors.max()) + 1

    max_cell_degree = int(_cell_degrees(cell_of, conn).max())

    # an int32 copy halves the scan's reads: every color is below p <= DFT_CAP
    proper = _monochromatic_edge(view, colors.astype(np.int32)) is None
    report = ColoringReport(
        p=p, k=k, nu=params.nu, rho=params.rho_exact, arc_count=arc_count,
        s_index=s_index, spectrum_size=int(spectrum.size),
        frequency_count=int(len(frequencies)), bohr_size=bohr.count,
        intersection_size=int(intersection.size), cells=num_cells,
        max_cell_degree=max_cell_degree, colors_used=next_color, proper=proper,
    )
    return colors, report
