"""Cayley graphs on finite abelian groups, with exact chromatic/independence solvers.

Cay(G, A) has the group elements as vertices and an edge {u, v} whenever
v - u lies in the symmetrized connection set A u (-A) minus the identity.
Graphs up to the adjacency cap are materialized as sorted CSR neighbour rows
(int32), row v being v + (A u -A); the greedy bounds, the validators and
DIMACS I/O run on those.  The branch-and-bound solvers work on bitset rows
(Python ints), which a graph builds from its CSR rows only when first asked.

The chromatic solver is DSATUR branch and bound (Brelaz 1979) seeded with a
greedy clique; it finds each node's branching vertex in per-saturation
bitset buckets instead of rescanning the vertices.  The independence solver
is MCS/BBMC maximum-clique search (Tomita-Seki 2003; San Segundo et al.
2011) on the complement graph: a greedy clique cover of the candidates
bounds each node, and the root cover bounds alpha when the budget runs out.
Cayley graphs are vertex-transitive, so the independence search fixes
vertex 0 there and the clique-coclique bound alpha * omega <= n applies.

A graph may carry a `Bracket` of bounds its builder proved: today only the
classical Kneser graphs, whose chi is Lovasz's n - 2k + 2 (`lovasz-1978`,
met by the `kneser-min-coloring`) and whose alpha is the Erdos-Ko-Rado star
size C(n-1, k-1) (`ekr-1961`).  Both solvers re-check its witnesses, return
at once when it is closed, and otherwise start their search from it.
"""

from __future__ import annotations

import contextlib
import heapq
import sys
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from . import config
from .groups import ElementSet, GroupSpec

__all__ = [
    "Graph",
    "Bracket",
    "CayleyView",
    "Coloring",
    "VertexSet",
    "GreedyBounds",
    "ChromaticResult",
    "IndependenceResult",
    "greedy_clique",
    "dsatur_coloring",
    "greedy_bounds",
    "check_exact_solver_cap",
    "chromatic_number_exact",
    "independence_number_exact",
]


# Upper bound on the entries of one block of rows: the target coordinates of
# a `CayleyView.to_graph` block, or the packed bytes plus the neighbour entries
# of a `Graph.masks` block.  Both build their rows a block at a time.
_BLOCK_ENTRIES = 1 << 20


class Graph:
    """Undirected graph on vertices 0..n-1, stored as CSR neighbour rows.

    Row v is `indices[indptr[v]:indptr[v + 1]]`: the neighbours of v as
    ascending int32.  This is the graph's one representation; the builders,
    greedy bounds, validators and DIMACS I/O all read it.  The exact solvers
    need n-bit adjacency rows (Python ints); `masks` builds them from the CSR
    rows on first use and keeps them.

    `vertex_transitive` says that the automorphism group is transitive on
    the vertices.  Only builders that know it set it (Cayley views and
    Kneser graphs); the independence solver then fixes vertex 0.  `bracket`
    holds the bounds on chi and alpha a builder proved for this graph (only
    `kneser.build_graph` sets it); graphs read from edges never carry one.
    """

    def __init__(self, n: int, indptr, indices, vertex_transitive: bool = False,
                 bracket: Bracket | None = None):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("row pointers do not match the vertex count and neighbour array")
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.vertex_transitive = vertex_transitive
        self.bracket = bracket

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        u, v = pairs.T
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        if bad.any():
            u, v = pairs[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u},{v}) out of range")
        # both directions of every edge, deduplicated and in (row, column) order
        arcs = np.unique(np.concatenate((u * n + v, v * n + u)))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(arcs // n, minlength=n))))
        return cls(n, indptr, arcs % n)

    @cached_property
    def masks(self) -> list[int]:
        """Bitset rows: bit u of row v is set when uv is an edge."""
        return _bitset_rows(self.indptr, self.indices, self.n)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbors(self, v: int) -> list[int]:
        return self.row(v).tolist()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge (u, v) once, u < v, ascending by u and then v."""
        rows, cols = self._gather(np.arange(self.n))
        up = cols > rows
        return zip(rows[up].tolist(), cols[up].tolist())

    def edge_count(self) -> int:
        return self.indices.size // 2

    def _gather(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owner, neighbour) for every entry of the rows of vs, row by row."""
        starts = self.indptr[vs]
        lens = self.indptr[vs + 1] - starts
        ends = np.cumsum(lens)
        offsets = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lens, lens)
        return np.repeat(vs, lens), self.indices[offsets]


def _bitset_rows(indptr: np.ndarray, indices: np.ndarray, n: int) -> list[int]:
    """Python-int bitsets of n bits from CSR rows, packed a block of rows at a
    time; a block holds at most `_BLOCK_ENTRIES` packed bytes and entries."""
    count = indptr.size - 1
    width = (n + 7) // 8
    lens = np.diff(indptr)
    rows = max(1, _BLOCK_ENTRIES // max(1, width + int(lens.max(initial=0))))
    # one buffer serves every block, so no block writes to freshly mapped pages
    block = np.empty((min(rows, count), width), dtype=np.uint8)
    masks: list[int] = []
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        cols = indices[indptr[start]:indptr[stop]]
        packed = block[:stop - start]
        packed.fill(0)
        np.bitwise_or.at(packed, (np.repeat(np.arange(stop - start), lens[start:stop]), cols >> 3),
                         np.left_shift(1, cols & 7).astype(np.uint8))
        # bit j of a row is bit j % 8 of byte j // 8: the bytes read as one little-endian int
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return masks


@dataclass(frozen=True)
class Coloring:
    """A proper-coloring certificate: color id per vertex."""

    colors: tuple[int, ...]

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))

    def validate(self, graph: Graph) -> None:
        """Raise on the first monochromatic edge in `graph.edges()` order."""
        if len(self.colors) != graph.n:
            raise ValueError("coloring length does not match vertex count")
        colors = np.asarray(self.colors, dtype=np.int64)
        u, v = _same_label_edges(graph, np.arange(graph.n), colors)
        if u.size:
            raise ValueError(f"edge ({u[0]},{v[0]}) is monochromatic")


@dataclass(frozen=True)
class VertexSet:
    """An independent-set or clique certificate."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def validate_independent(self, graph: Graph) -> None:
        """Raise on a repeated member, then on the first adjacent pair in
        ascending (u, v) order."""
        if len(set(self.members)) != len(self.members):
            raise ValueError("a vertex is listed twice")
        u, v = self._inner_edges(graph)
        if u.size:
            raise ValueError(f"vertices {u[0]},{v[0]} are adjacent")

    def validate_clique(self, graph: Graph) -> None:
        """Raise unless the members are distinct and pairwise adjacent."""
        u, _ = self._inner_edges(graph)
        k = len(self.members)
        if u.size != k * (k - 1) // 2:
            raise ValueError(f"only {u.size} of the {k * (k - 1) // 2} member pairs "
                             f"are adjacent")

    def _inner_edges(self, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
        members = np.unique(np.asarray(self.members, dtype=np.int64))
        inside = np.zeros(graph.n, dtype=bool)
        inside[members] = True
        return _same_label_edges(graph, members, inside)


def _same_label_edges(graph: Graph, vs: np.ndarray,
                      labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of every edge u < v from the rows of the ascending vs whose two
    ends carry the same label, in `graph.edges()` order."""
    rows, cols = graph._gather(vs)
    same = (cols > rows) & (labels[rows] == labels[cols])
    return rows[same], cols[same]


@dataclass(frozen=True)
class Bracket:
    """Bounds on chi and alpha that a graph's builder proved.

    The chi lower bound and the alpha upper bound are theorems, named by
    their proofs.  The chi upper bound is a coloring and the alpha lower bound
    an independent set: witnesses that the solvers re-check on the graph
    before they use them.
    """

    chi_lower: int
    chi_lower_proof: str
    coloring: Coloring
    coloring_proof: str
    independent: VertexSet
    alpha_upper: int
    alpha_upper_proof: str

    def __post_init__(self):
        if self.chi_lower > self.coloring.num_colors or self.independent.size > self.alpha_upper:
            raise ValueError("a lower bound of the bracket exceeds its upper bound")


# ---------------------------------------------------------------------------
# Cayley views
# ---------------------------------------------------------------------------


class CayleyView:
    """Cay(G, A) with a materialized connection set."""

    def __init__(self, group: GroupSpec, connection: ElementSet):
        if connection.group != group:
            raise ValueError("connection set lives in a different group")
        if connection.contains_index(0):
            warnings.warn("connection set contains the identity; stripping it",
                          stacklevel=3)
        self.group = group
        self.connection = connection
        self.symmetric = connection.symmetrized_without_zero()
        self._sym_indices = self.symmetric.indices()

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def degree(self) -> int:
        return self.symmetric.count

    def to_graph(self) -> Graph:
        n = self.order
        if n > config.ADJACENCY_CAP:
            raise ValueError(
                f"group order {n} exceeds the adjacency cap {config.ADJACENCY_CAP}")
        g = self.group
        d = self.degree
        if n * d > config.CSR_ENTRY_CAP:
            raise ValueError(f"CSR of {n} rows of {d} neighbours exceeds "
                             f"the entry cap {config.CSR_ENTRY_CAP}")
        scoords = g.indices_to_coords(self._sym_indices)
        rows = max(1, _BLOCK_ENTRIES // max(1, scoords.size))
        # row v is v + (A u -A), sorted; every row has the same length d
        indices = np.empty(n * d, dtype=np.int32)
        for start in range(0, n, rows):
            vs = np.arange(start, min(start + rows, n), dtype=np.int64)
            ts = g.coords_to_indices(g.indices_to_coords(vs)[:, None, :] + scoords)
            ts.sort(axis=1)
            indices[start * d:(start + vs.size) * d] = ts.ravel()
        return Graph(n, np.arange(n + 1) * d, indices, vertex_transitive=True)


# ---------------------------------------------------------------------------
# Greedy bounds
# ---------------------------------------------------------------------------


def greedy_clique(graph: Graph) -> list[int]:
    """Deterministic greedy clique, best over a few degree-ordered seeds."""
    n = graph.n
    best: list[int] = []
    for seed in np.argsort(-graph.degrees(), kind="stable")[:24].tolist():
        clique = [seed]
        cand = graph.row(seed)
        while cand.size:
            # pick the candidate with most neighbors among the candidates,
            # lowest index first; cand ascends and argmax takes the first
            score = np.bincount(graph._gather(cand)[1], minlength=n)[cand]
            pick = int(cand[score.argmax()])
            clique.append(pick)
            cand = np.intersect1d(cand, graph.row(pick), assume_unique=True)
        if len(clique) > len(best):
            best = clique
    VertexSet(tuple(best)).validate_clique(graph)
    return sorted(best)


def dsatur_coloring(graph: Graph) -> Coloring:
    """Greedy DSATUR coloring (no search). Ties break on lowest vertex index.

    Each step colors the uncolored vertex with the largest (saturation,
    degree, -v) (Brelaz 1979).  It comes from a lazy heap of (-saturation,
    -degree, v): a vertex is pushed again whenever a neighbour takes a color
    new to it.  Its newest entry has its highest saturation, so it pops
    before the vertex's older entries, which are dropped once it is colored.
    """
    n = graph.n
    colors = [-1] * n
    neighbor_colors = [0] * n   # bitmask of colors used by neighbors
    degrees = graph.degrees().tolist()
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    heap = [(0, -degrees[v], v) for v in range(n)]
    heapq.heapify(heap)
    for _ in range(n):
        pick = heapq.heappop(heap)[2]
        while colors[pick] != -1:
            pick = heapq.heappop(heap)[2]
        free = ~neighbor_colors[pick]
        c = (free & -free).bit_length() - 1
        colors[pick] = c
        bit = 1 << c
        for u in indices[indptr[pick]:indptr[pick + 1]]:
            if colors[u] == -1 and not neighbor_colors[u] & bit:
                neighbor_colors[u] |= bit
                heapq.heappush(heap, (-neighbor_colors[u].bit_count(), -degrees[u], u))
    return Coloring(tuple(colors))


@dataclass(frozen=True)
class GreedyBounds:
    clique_lower: int
    dsatur_upper: int
    clique: tuple[int, ...]
    coloring: Coloring


def greedy_bounds(graph: Graph) -> GreedyBounds:
    """Cheap bracket [clique size, DSATUR colors] around the chromatic number."""
    clique = greedy_clique(graph)
    coloring = dsatur_coloring(graph)
    coloring.validate(graph)
    bounds = GreedyBounds(len(clique), coloring.num_colors, tuple(clique), coloring)
    if bounds.clique_lower > bounds.dsatur_upper:
        raise AssertionError("clique bound exceeds coloring bound; solver bug")
    return bounds


# ---------------------------------------------------------------------------
# Exact chromatic number (DSATUR branch and bound)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _search_stack(depth: int):
    """Both solvers recurse once per vertex; widen the recursion limit to
    current-stack + depth for the duration of the search."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(old + depth + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class _Budget:
    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        """Returns True when the budget is spent; reads the clock every node."""
        self.nodes += 1
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.exhausted = True
        return self.exhausted


def check_exact_solver_cap(n: int) -> None:
    """Refuse n vertices above `config.EXACT_SOLVER_CAP`; both solvers call it,
    and callers that build a graph call it on the vertex count first."""
    if n > config.EXACT_SOLVER_CAP:
        raise ValueError(
            f"vertex count {n} exceeds the exact-solver cap {config.EXACT_SOLVER_CAP}")


@dataclass(frozen=True)
class ChromaticResult:
    lower: int
    upper: int
    coloring: Coloring
    exact: bool
    nodes: int
    # when exact: "clique-meets-coloring", "exhausted-search", or the graph's
    # bracket's lower-bound proof ("lovasz-1978"); else "budget"
    proof: str

    @property
    def chromatic_number(self) -> int:
        if not self.exact:
            raise ValueError(f"not solved to optimality; bracket [{self.lower}, {self.upper}]")
        return self.upper


def chromatic_number_exact(graph: Graph, budget_s: float | None = None) -> ChromaticResult:
    """Exact chromatic number by DSATUR branch and bound with a clique seed.

    Each node branches on the uncolored vertex with the largest (saturation,
    degree, -v), as in `dsatur_coloring` (Brelaz 1979).  The uncolored
    vertices sit in one bitset per saturation value, numbered by (-degree, v),
    so the pick is the lowest bit of the highest non-empty bucket.  Coloring
    a vertex moves its uncolored neighbours up one bucket where the color is
    new to them, and backtracking moves them back.

    When the graph carries a closed `Bracket` (its coloring meets its lower
    bound) the validated coloring is returned with the bracket's proof and no
    greedy bound or search runs.  Otherwise the search starts from the larger
    of the greedy clique and the bracket's lower bound, and from the better of
    the DSATUR and the bracket's colorings.

    Within budget the result is exact (lower == upper) and carries a validated
    Coloring plus an exhausted-search proof for upper-1 colors.  On budget
    exhaustion a bracket [lower, upper] with the best coloring found is
    returned instead, flagged exact=False.
    """
    n = graph.n
    check_exact_solver_cap(n)
    bracket = graph.bracket
    if bracket is not None and bracket.chi_lower == bracket.coloring.num_colors:
        bracket.coloring.validate(graph)
        return ChromaticResult(bracket.chi_lower, bracket.chi_lower, bracket.coloring, True, 0,
                               bracket.chi_lower_proof)

    budget = _Budget(budget_s)
    clique = greedy_clique(graph)
    greedy = dsatur_coloring(graph)
    lb, lower_proof = len(clique), "clique-meets-coloring"
    if bracket is not None:
        if bracket.coloring.num_colors < greedy.num_colors:
            greedy = bracket.coloring
        if bracket.chi_lower > lb:
            lb, lower_proof = bracket.chi_lower, bracket.chi_lower_proof
    best_colors = list(greedy.colors)
    best = greedy.num_colors

    if lb < best:
        colors = [-1] * n
        neighbor_colors = [0] * n
        nbrs = [graph.neighbors(v) for v in range(n)]
        order = sorted(range(n), key=lambda v: (-len(nbrs[v]), v))
        rank_bit = [0] * n
        for r, v in enumerate(order):
            rank_bit[v] = 1 << r
        # Symmetry breaking: fix distinct colors on a maximal greedy clique.
        for c, v in enumerate(clique):
            colors[v] = c
            for u in nbrs[v]:
                neighbor_colors[u] |= 1 << c
        # buckets[s]: uncolored vertices of saturation s, as bits of rank_bit;
        # saturation never exceeds the colors in use, which stay below best
        buckets = [0] * (best + 1)
        for v in range(n):
            if colors[v] == -1:
                buckets[neighbor_colors[v].bit_count()] |= rank_bit[v]
        uncolored = n - len(clique)

        def search(uncolored: int, used: int) -> None:
            nonlocal best, best_colors
            if used >= best:
                return
            if budget.tick():
                return
            if uncolored == 0:
                best = used
                best_colors = colors.copy()
                return
            sat = used
            while not buckets[sat]:
                sat -= 1
            low = buckets[sat] & -buckets[sat]
            pick = order[low.bit_length() - 1]
            buckets[sat] ^= low
            limit = min(used + 1, best - 1)
            forbidden = neighbor_colors[pick]
            for c in range(limit):
                if forbidden >> c & 1:
                    continue
                colors[pick] = c
                bit = 1 << c
                touched = []
                for u in nbrs[pick]:
                    if not neighbor_colors[u] & bit:
                        if colors[u] == -1:
                            s = neighbor_colors[u].bit_count()
                            buckets[s] ^= rank_bit[u]
                            buckets[s + 1] |= rank_bit[u]
                        neighbor_colors[u] |= bit
                        touched.append(u)
                search(uncolored - 1, max(used, c + 1))
                colors[pick] = -1
                for u in touched:
                    neighbor_colors[u] ^= bit
                    if colors[u] == -1:
                        s = neighbor_colors[u].bit_count()
                        buckets[s + 1] ^= rank_bit[u]
                        buckets[s] |= rank_bit[u]
                if best <= lb or budget.exhausted:
                    break
            buckets[sat] |= low

        with _search_stack(uncolored):
            search(uncolored, len(clique))

    coloring = Coloring(tuple(best_colors))
    coloring.validate(graph)
    if budget.exhausted and lb < best:
        return ChromaticResult(lb, best, coloring, False, budget.nodes, "budget")
    proof = lower_proof if lb >= best else "exhausted-search"
    return ChromaticResult(best, best, coloring, True, budget.nodes, proof)


# ---------------------------------------------------------------------------
# Exact independence number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceResult:
    lower: int
    upper: int
    vertex_set: VertexSet
    exact: bool
    nodes: int
    # when exact: "exhausted-search" or the graph's bracket's upper-bound
    # proof ("ekr-1961"); else "budget"
    proof: str

    @property
    def independence_number(self) -> int:
        if not self.exact:
            raise ValueError(f"not solved to optimality; bracket [{self.lower}, {self.upper}]")
        return self.lower


def _greedy_independent(graph: Graph) -> list[int]:
    full = (1 << graph.n) - 1
    alive = full
    out = []
    while alive:
        # take the alive vertex of minimum residual degree (lowest index tie)
        pick, pick_key = -1, None
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            key = ((graph.masks[v] & alive).bit_count(), v)
            if pick_key is None or key < pick_key:
                pick, pick_key = v, key
        out.append(pick)
        alive &= ~(graph.masks[pick] | (1 << pick))
    return sorted(out)


def _clique_cover(masks: list[int], cand: int, skip: int = 0) -> list[tuple[int, int]]:
    """Greedy clique cover of `cand`: each class starts at the lowest vertex
    left and is narrowed to its neighbours, lowest first.  Returns
    (vertex, class number) in cover order, so the vertices up to any entry
    lie in that many cliques and hold at most that many independent ones.
    The first `skip` classes are built but not returned."""
    cover = []
    k = 0
    while cand:
        k += 1
        q = cand
        if k <= skip:
            while q:
                low = q & -q
                cand ^= low
                q &= masks[low.bit_length() - 1]
            continue
        while q:
            low = q & -q
            v = low.bit_length() - 1
            cover.append((v, k))
            cand ^= low
            q &= masks[v]
    return cover


def _induced(graph: Graph, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the subgraph induced on vs, with each vertex numbered by
    its position in vs (rows keep vs's order; a row's entries need not ascend)."""
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[vs] = np.arange(vs.size)
    rows, cols = graph._gather(vs)
    keep = pos[cols] >= 0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(pos[rows[keep]], minlength=vs.size))))
    return indptr, pos[cols[keep]]


def _cover_size(cover: list[tuple[int, int]]) -> int:
    return cover[-1][1] if cover else 0


def independence_number_exact(graph: Graph,
                              budget_s: float | None = None) -> IndependenceResult:
    """Exact maximum independent set by bitset branch and bound.

    This is the MCS/BBMC maximum-clique search (Tomita-Seki 2003; San Segundo
    et al. 2011) run on the complement graph.  Each node covers its
    candidates greedily with cliques (`_clique_cover`) and branches on them
    in reverse cover order.  It prunes as soon as the current set plus the
    class number of the next vertex cannot beat the best set, since an
    independent set meets each clique at most once.

    On a vertex-transitive graph some maximum independent set holds vertex
    0, so alpha(G) = 1 + alpha(G - N[0]) and the search starts from {0} with
    the non-neighbours of 0 as candidates; otherwise it starts from nothing
    with every vertex.  Either way the root's candidates are renumbered by
    ascending (degree among the candidates, index) before the search.

    When the graph carries a closed `Bracket` (its independent set meets its
    upper bound, as the Erdos-Ko-Rado star does on a classical Kneser graph)
    the validated set is returned with the bracket's proof and nothing is
    searched.  Otherwise the search starts from the larger of the greedy and
    the bracket's sets, and stops once it reaches the bracket's upper bound.

    On budget exhaustion the bracket's upper end is the smallest of the
    clique cover of G, the root's size plus the cover of its candidates,
    the graph's bracket's upper bound, and, on a vertex-transitive graph,
    n // omega for the greedy clique (alpha * omega <= n there).
    """
    n = graph.n
    check_exact_solver_cap(n)
    bracket = graph.bracket
    if bracket is not None and bracket.independent.size == bracket.alpha_upper:
        bracket.independent.validate_independent(graph)
        return IndependenceResult(bracket.alpha_upper, bracket.alpha_upper,
                                  bracket.independent, True, 0, bracket.alpha_upper_proof)
    if n == 0:
        return IndependenceResult(0, 0, VertexSet(()), True, 0, "exhausted-search")

    budget = _Budget(budget_s)
    seed = _greedy_independent(graph)
    # only a bracket's upper bound stops the search before it is exhausted
    ceiling = n + 1 if bracket is None else bracket.alpha_upper
    if bracket is not None and bracket.independent.size > len(seed):
        seed = list(bracket.independent.members)
    best = len(seed)
    best_found = None           # the best set the search finds, in local bits
    root = [0] if graph.vertex_transitive else []
    cands = np.setdiff1d(np.arange(n), root + graph.neighbors(0)) if root else np.arange(n)
    order = cands[np.argsort(np.diff(_induced(graph, cands)[0]), kind="stable")]
    masks = _bitset_rows(*_induced(graph, order), order.size)

    def search(cand: int, cur: int, cur_size: int, cover: list[tuple[int, int]]) -> None:
        nonlocal best, best_found
        if budget.tick():
            return
        if not cand:
            if cur_size > best:
                best = cur_size
                best_found = cur
            return
        for v, bound in reversed(cover):
            if cur_size + bound <= best:
                return
            cand ^= 1 << v
            child = cand & ~masks[v]
            # classes at or below best - cur_size - 1 can never be branched on
            search(child, cur | 1 << v, cur_size + 1,
                   _clique_cover(masks, child, best - cur_size - 1))
            if budget.exhausted or best >= ceiling:
                return

    full = (1 << order.size) - 1
    root_cover = _clique_cover(masks, full)
    if best < ceiling:
        with _search_stack(order.size):
            search(full, 0, len(root), root_cover)

    if best_found is not None:
        seed = root + [int(v) for i, v in enumerate(order) if best_found >> i & 1]
    vs = VertexSet(tuple(sorted(seed)))
    vs.validate_independent(graph)
    if best >= ceiling:
        return IndependenceResult(best, best, vs, True, budget.nodes, bracket.alpha_upper_proof)
    if not budget.exhausted:
        return IndependenceResult(best, best, vs, True, budget.nodes, "exhausted-search")
    upper = min(_cover_size(_clique_cover(graph.masks, (1 << n) - 1)),
                len(root) + _cover_size(root_cover), ceiling)
    if graph.vertex_transitive:
        upper = min(upper, n // len(greedy_clique(graph)))
    return IndependenceResult(best, upper, vs, False, budget.nodes, "budget")
