"""Cayley graphs on finite abelian groups, with exact chromatic/independence solvers.

Cay(G, A) has the group elements as vertices and an edge {u, v} whenever
v - u lies in the symmetrized connection set A u (-A) minus the identity.
Graphs up to the adjacency cap are materialized as sorted CSR neighbour rows
(int32), row v being v + (A u -A); the greedy bounds, the validators and
DIMACS I/O run on those.  `Coloring.validate` also takes a cyclic view
Cay(Z_n, S) as it stands: a difference scan compares the colors of v and
v + d for each d in S up to n/2, with no CSR and no adjacency cap.  The
chromatic search and the independence seeds read neighbour lists; the
independence search builds bitset rows (Python ints) of the subgraph it
searches, and of the whole graph for its bound when the budget runs out.

The chromatic solver is DSATUR branch and bound (Brelaz 1979) seeded with a
greedy clique; it finds each node's branching vertex in per-saturation
bitset buckets instead of rescanning the vertices.  The independence solver
is MCS/BBMC maximum-clique search (Tomita-Seki 2003; San Segundo et al.
2011) on the complement graph: a greedy clique cover of the candidates
bounds each node, and the root cover bounds alpha when the budget runs out.
Cayley graphs are vertex-transitive, so the independence search fixes
vertex 0 there and the clique-coclique bound alpha * omega <= n applies;
on a graph built from its group it also drops the mirror image of each
branch under x -> -x at the root and x -> v - x one level down, and it
starts from the best one-frequency Bohr set {x : chi_u(x) < m_u}, m_u the
least distance of chi_u(S) to 0, when that beats the greedy set.

A graph may carry the exact chi and alpha results its builder proved: today
only the classical Kneser graphs, whose chi is Lovasz's n - 2k + 2 (`lovasz-1978`,
met by a coloring by least elements) and whose alpha is the Erdos-Ko-Rado star
size C(n-1, k-1) (`ekr-1961`).  Both solvers re-check and return them unsearched.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import config
from .groups import ElementSet, GroupSpec

__all__ = [
    "Graph",
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
    "check_adjacency_cap",
    "chromatic_number_exact",
    "independence_number_exact",
]


# Upper bound on the entries of one block of rows: the target coordinates of
# a `CayleyView.to_graph` block, or the packed bytes plus the neighbour entries
# of a `_bitset_rows` block (`Graph.edges` gathers a sixteenth of it at a time).
_BLOCK_ENTRIES = 1 << 20


class Graph:
    """Undirected graph on vertices 0..n-1, stored as CSR neighbour rows.

    Row v is `indices[indptr[v]:indptr[v + 1]]`: the neighbours of v as
    ascending int32.  A graph keeps its rows in this form only; the builders,
    greedy bounds, solvers, validators and DIMACS I/O all read it.

    `vertex_transitive` says that the automorphism group is transitive on
    the vertices.  Only builders that know it set it (Cayley views and
    Kneser graphs); the independence solver then fixes vertex 0.  `bracket`
    holds the exact chi and alpha results a builder proved (only
    `kneser.build_graph` sets it); graphs read from edges never carry one.

    `group` says that vertex i is the element with index i of that group and
    the graph is Cay(group, S) with S = -S.  Only `CayleyView.to_graph` sets
    it; it implies `vertex_transitive`.  Then x -> -x and, for each v,
    x -> v - x are automorphisms (y - x in S iff x - y in S), and the
    independence solver drops the mirror image of each branch under them.
    """

    def __init__(self, n: int, indptr, indices, vertex_transitive: bool = False,
                 bracket: tuple[ChromaticResult, IndependenceResult] | None = None,
                 group: GroupSpec | None = None):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("row pointers do not match the vertex count and neighbour array")
        if group is not None and group.order != n:
            raise ValueError(f"group of order {group.order} on {n} vertices")
        if bracket is not None and not all(res.exact for res in bracket):
            raise ValueError("a graph carries only exact chi and alpha results")
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.vertex_transitive = vertex_transitive or group is not None
        self.bracket = bracket
        self.group = group

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

    @property
    def masks(self) -> list[int]:
        """Bitset rows (bit u of row v set when uv is an edge), all rebuilt on
        each call.  No `src/` path reads them; this goes once bench reads CSR."""
        return _bitset_rows(self.indptr, self.indices, self.n)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbors(self, v: int) -> list[int]:
        return self.row(v).tolist()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge (u, v) once, u < v, ascending by u and then v; rows are gathered
        in blocks of at most `_BLOCK_ENTRIES // 16` entries, or one longer row."""
        start = 0
        while start < self.n:
            end = np.searchsorted(self.indptr, self.indptr[start] + _BLOCK_ENTRIES // 16, "right")
            stop = max(start + 1, int(end) - 1)
            rows, cols = self._gather(np.arange(start, stop))
            up = cols > rows
            yield from zip(rows[up].tolist(), cols[up].tolist())
            start = stop

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

    def validate(self, target: Graph | CayleyView) -> None:
        """Raise on the first monochromatic edge in `Graph.edges()` order.

        A `Graph` is checked on its CSR rows.  A `CayleyView` over Z_n is
        checked by the difference scan, with no CSR and no adjacency cap; a
        view over a product of cyclic groups is materialized by `to_graph`,
        under its caps, and checked on those rows.
        """
        edge = _monochromatic_edge(target, np.asarray(self.colors, dtype=np.int64))
        if edge is not None:
            raise ValueError(f"edge ({edge[0]},{edge[1]}) is monochromatic")


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


def _difference_scan(labels: np.ndarray, conn: np.ndarray):
    """(d, same, wrap) for each d in conn with d <= n // 2, n = labels.size.

    The one walk over the edges of Cay(Z_n, conn), conn = A u -A without 0:
    conn is symmetric and d, n - d join the same pairs, so these d reach
    every edge once (twice when d = n - d).  same[v] compares the labels of
    v and v + d for v < n - d; wrap[v] those of v and v - d mod n = n - d + v
    for v < d.
    """
    n = labels.size
    for d in conn[conn <= n // 2].tolist():
        yield d, labels[d:] == labels[:n - d], labels[:d] == labels[n - d:]


def _monochromatic_edge(target: Graph | CayleyView,
                        colors: np.ndarray) -> tuple[int, int] | None:
    """The first edge (u, v), u < v in `Graph.edges()` order, whose ends share
    a color, or None.  A view over Z_n is walked by `_difference_scan`, and
    the least edge over all d is taken; any other view is materialized."""
    view = isinstance(target, CayleyView)
    n = target.order if view else target.n
    if colors.size != n:
        raise ValueError("coloring length does not match vertex count")
    if view and target.group.rank == 1:
        first = None
        for d, same, wrap in _difference_scan(colors, target._sym_indices):
            # same[v] is the edge (v, v + d), wrap[v] the edge (v, n - d + v)
            for hits, step in ((same, d), (wrap, n - d)):
                v = int(hits.argmax())
                if hits[v] and (first is None or (v, v + step) < first):
                    first = (v, v + step)
        return first
    graph = target.to_graph() if view else target
    u, v = _same_label_edges(graph, np.arange(n), colors)
    return (int(u[0]), int(v[0])) if u.size else None


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
                          stacklevel=2)
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
        check_adjacency_cap(n)
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
        return Graph(n, np.arange(n + 1) * d, indices, group=g)


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
    clique: tuple[int, ...]
    coloring: Coloring

    @property
    def clique_lower(self) -> int:
        return len(self.clique)

    @property
    def dsatur_upper(self) -> int:
        return self.coloring.num_colors


def greedy_bounds(graph: Graph) -> GreedyBounds:
    """Cheap bracket [clique size, DSATUR colors] around the chromatic number."""
    clique = greedy_clique(graph)
    coloring = dsatur_coloring(graph)
    coloring.validate(graph)
    bounds = GreedyBounds(tuple(clique), coloring)
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


def check_adjacency_cap(n: int) -> None:
    """Refuse n vertices above `config.ADJACENCY_CAP`; both graph builders call
    it, and callers that build their input sets call it on the vertex count first."""
    if n > config.ADJACENCY_CAP:
        raise ValueError(
            f"vertex count {n} exceeds the adjacency cap {config.ADJACENCY_CAP}")


@dataclass(frozen=True)
class ChromaticResult:
    lower: int
    coloring: Coloring          # its color count is the upper bound
    nodes: int
    # when exact: "clique-meets-coloring", "exhausted-search", or the theorem
    # of a result the graph carries ("lovasz-1978"); else "budget"
    proof: str

    @property
    def upper(self) -> int:
        return self.coloring.num_colors

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

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

    A result the graph carries (`Graph.bracket`) is returned, with no greedy
    bound or search, once its coloring validates.  Otherwise, within budget
    the result is exact (lower == upper) and carries a validated Coloring
    plus an exhausted-search proof for upper-1 colors.  When the budget runs
    out before lower meets upper, the open bracket with the best coloring
    found is returned instead; `exact` reads lower == upper.
    """
    n = graph.n
    check_exact_solver_cap(n)
    if graph.bracket is not None:
        graph.bracket[0].coloring.validate(graph)
        return graph.bracket[0]

    budget = _Budget(budget_s)
    clique = greedy_clique(graph)
    greedy = dsatur_coloring(graph)
    lb = len(clique)
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
        return ChromaticResult(lb, coloring, budget.nodes, "budget")
    proof = "clique-meets-coloring" if lb >= best else "exhausted-search"
    return ChromaticResult(best, coloring, budget.nodes, proof)


# ---------------------------------------------------------------------------
# Exact independence number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceResult:
    upper: int
    vertex_set: VertexSet       # its size is the lower bound
    nodes: int
    # when exact: "exhausted-search", the theorem of a result the graph
    # carries ("ekr-1961"), or the bound that met the best set when the budget
    # ran out ("clique-cover", "clique-coclique"); else "budget"
    proof: str

    @property
    def lower(self) -> int:
        return self.vertex_set.size

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def independence_number(self) -> int:
        if not self.exact:
            raise ValueError(f"not solved to optimality; bracket [{self.lower}, {self.upper}]")
        return self.lower


def _greedy_independent(graph: Graph) -> list[int]:
    """Take the alive vertex of least residual degree, lowest index on ties,
    and remove it with its neighbours, until none is alive.  A removed vertex
    reads 2n in `deg` and then loses at most its degree, so stays above n."""
    n = graph.n
    deg = graph.degrees().copy()
    out = []
    for _ in range(n):
        pick = int(deg.argmin())
        if deg[pick] >= n:
            break
        out.append(pick)
        row = graph.row(pick)
        removed = np.append(row[deg[row] < n], pick)
        deg[removed] = 2 * n
        np.subtract.at(deg, graph._gather(removed)[1], 1)
    return sorted(out)


def _arc_independent(graph: Graph) -> list[int]:
    """The largest one-frequency Bohr set of a graph that carries its group,
    lowest u on ties; [] when it carries none.

    With N the exponent of G (the lcm of its moduli), each u in G gives the
    character chi_u(x) = sum_i u_i x_i N/n_i mod N.  Let m_u be the least
    chi_u(s) over s in S = N(0), or N when S is empty; as S = -S, that is
    the least ||chi_u(s)||_N, the distance to 0 mod N.  For x, y in
    {x : chi_u(x) < m_u}, chi_u(x - y) lies strictly between -m_u and m_u
    mod N, so x - y is not in S: the set is independent and holds 0.  chi_u
    takes each multiple of g = gcd(N, u_i N/n_i) exactly |G| g/N times, and
    m_u is one, so the set has |G| m_u / N elements and the largest m_u wins.
    On Z_n it is {x : u x mod n < m_u}.  The m_u are scanned in blocks of u
    of at most `_BLOCK_ENTRIES` character values.  When every m_u is 0 (each
    character vanishes somewhere on S) the set is {0}."""
    group = graph.group
    if group is None:
        return []
    exponent = math.lcm(*group.moduli)
    weight = exponent // np.array(group.moduli)     # chi_u(x) = u . (x * weight) mod N
    # a graph under the adjacency cap has N <= 2^16 and rank <= 16, so the
    # dot products (rank terms below N^2) fit int64
    conn = group.indices_to_coords(graph.row(0)) * weight
    rows = max(1, _BLOCK_ENTRIES // max(1, conn.size))
    best_m, best_u = 0, 0
    for start in range(0, graph.n, rows):
        us = group.indices_to_coords(np.arange(start, min(start + rows, graph.n)))
        m = (us @ conn.T % exponent).min(axis=1, initial=exponent)
        i = int(m.argmax())
        if m[i] > best_m:
            best_m, best_u = int(m[i]), start + i
    if best_m == 0:
        return [0]
    u = group.indices_to_coords([best_u])[0]
    chi = group.indices_to_coords(np.arange(graph.n)) * weight @ u % exponent
    return np.flatnonzero(chi < best_m).tolist()


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

    On a graph that carries its `group` (Cay(G, S), S = -S) two reflections
    prune the top of the tree; the branch loop skips dropped candidates.
    - At the root {0}, once the branch on v returns, -v is dropped too:
      nu: x -> -x is an automorphism fixing 0.
    - Inside the branch on v, once its branch on w returns, v - w is dropped
      too: sigma_v: x -> v - x is an automorphism swapping 0 and v.
    Each rule drops a set closed under its map, so the search stays exact.
    Call a root candidate removed once it was branched on or dropped.  At
    the root, let I hold 0 and meet a removed vertex, {v_j, -v_j} being the
    first pair it meets: I or -I holds {0, v_j} and avoids the earlier
    pairs, so the branch on v_j covered a set of |I| vertices.  Inside the
    branch on v, let I hold {0, v} and meet a removed vertex, {w_j, v - w_j}
    being the first pair: I or sigma_v(I) holds {0, v, w_j} and avoids the
    earlier pairs, so the branch on w_j covered it, unless that set meets a
    vertex the root removed before v; an earlier root branch covered it
    then (induction on the root branch index).  What is left of a node's
    candidates is a subset of its precomputed cover, which still bounds it.

    A result the graph carries (`Graph.bracket`) is returned, unsearched,
    once its set validates.  Otherwise the search starts from the larger of
    two sets, the first winning ties: the greedy set (`_greedy_independent`)
    and, on a graph that carries its group, the best one-frequency Bohr set
    {x : chi_u(x) < m_u} (`_arc_independent`; independent because m_u is
    the least distance of chi_u(S) to 0, so no two of its members differ by
    an element of S).

    On budget exhaustion the bracket's upper end is the smallest of the
    clique cover of G, the root's size plus the cover of its candidates,
    and, on a vertex-transitive graph, n // omega for the greedy clique
    (alpha * omega <= n there).  When that end meets the best set found, the
    result is exact and names the bound that closed it: `clique-cover` for
    either cover, `clique-coclique` for n // omega.  With a budget, G's cover
    and greedy clique are built as the budget starts, and the greedy and arc
    sets after, so all count against it.
    """
    n = graph.n
    check_exact_solver_cap(n)
    if graph.bracket is not None:
        graph.bracket[1].vertex_set.validate_independent(graph)
        return graph.bracket[1]
    if n == 0:
        return IndependenceResult(0, VertexSet(()), 0, "exhausted-search")

    budget = _Budget(budget_s)
    if budget_s is not None:
        # the whole-graph bounds a spent budget falls back on, built inside it
        whole_cover = _cover_size(_clique_cover(
            _bitset_rows(graph.indptr, graph.indices, n), (1 << n) - 1))
        coclique = n // len(greedy_clique(graph)) if graph.vertex_transitive else n + 1
    # the arc set replaces the greedy set only when it is strictly larger
    seed = max(_greedy_independent(graph), _arc_independent(graph), key=len)
    best = len(seed)
    best_found = None           # the best set the search finds, in local bits
    root = [0] if graph.vertex_transitive else []
    cands = np.setdiff1d(np.arange(n), root + graph.neighbors(0)) if root else np.arange(n)
    order = cands[np.argsort(np.diff(_induced(graph, cands)[0]), kind="stable")]
    masks = _bitset_rows(*_induced(graph, order), order.size)
    group = graph.group
    if group is not None:
        local = np.full(n, -1, dtype=np.int64)
        local[order] = np.arange(order.size)
        coords = group.indices_to_coords(order)

        def reflect(x) -> list[int]:
            """Local number of x - w for each candidate w, x in coordinates."""
            return local[group.coords_to_indices(x - coords)].tolist()

    def search(cand: int, cur: int, cur_size: int, cover: list[tuple[int, int]],
               mirror: list[int] | None) -> None:
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
            if mirror is not None and not cand >> v & 1:
                continue            # dropped as the mirror image of an earlier branch
            cand ^= 1 << v
            child = cand & ~masks[v]
            # classes at or below best - cur_size - 1 can never be branched on
            search(child, cur | 1 << v, cur_size + 1,
                   _clique_cover(masks, child, best - cur_size - 1),
                   reflect(coords[v]) if mirror is not None and not cur else None)
            if budget.exhausted:
                return
            if mirror is not None:
                cand &= ~(1 << mirror[v])

    full = (1 << order.size) - 1
    root_cover = _clique_cover(masks, full)
    with _search_stack(order.size):
        search(full, 0, len(root), root_cover, None if group is None else reflect(0))

    if best_found is not None:
        seed = root + [int(v) for i, v in enumerate(order) if best_found >> i & 1]
    vs = VertexSet(tuple(sorted(seed)))
    vs.validate_independent(graph)
    if not budget.exhausted:
        return IndependenceResult(best, vs, budget.nodes, "exhausted-search")
    upper, proof = min(whole_cover, len(root) + _cover_size(root_cover)), "clique-cover"
    if coclique < upper:
        upper, proof = coclique, "clique-coclique"
    return IndependenceResult(upper, vs, budget.nodes, proof if upper == best else "budget")
