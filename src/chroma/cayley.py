"""Cayley graphs on finite abelian groups, with exact chromatic/independence solvers.

Cay(G, A) has the group elements as vertices and an edge {u, v} whenever
v - u lies in the symmetrized connection set A u (-A) minus the identity.
Graphs up to the adjacency cap are materialized as bitset rows (Python ints),
which is what the branch-and-bound solvers operate on.

The chromatic solver is DSATUR branch and bound (Brelaz 1979) seeded with a
greedy clique; it finds each node's branching vertex in per-saturation
bitset buckets instead of rescanning the vertices.  The independence solver
is MCS/BBMC maximum-clique search (Tomita-Seki 2003; San Segundo et al.
2011) on the complement graph: a greedy clique cover of the candidates
bounds each node, and the root cover bounds alpha when the budget runs out.
"""

from __future__ import annotations

import contextlib
import heapq
import sys
import time
import warnings
from dataclasses import dataclass, field
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
    "chromatic_number_exact",
    "independence_number_exact",
]


class Graph:
    """Undirected graph on vertices 0..n-1 with bitset adjacency rows."""

    def __init__(self, n: int, masks: list[int]):
        if len(masks) != n:
            raise ValueError("adjacency row count does not match vertex count")
        self.n = n
        self.masks = masks

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, masks)

    def is_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            m = self.masks[u] >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                yield (u, v)
                m &= m - 1

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def neighbors(self, v: int) -> list[int]:
        m = self.masks[v]
        out = []
        while m:
            out.append((m & -m).bit_length() - 1)
            m &= m - 1
        return out


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
        classes: dict[int, int] = {}
        for v, c in enumerate(self.colors):
            classes[c] = classes.get(c, 0) | 1 << v
        for u, c in enumerate(self.colors):
            clash = (graph.masks[u] & classes[c]) >> (u + 1)
            if clash:
                v = u + (clash & -clash).bit_length()
                raise ValueError(f"edge ({u},{v}) is monochromatic")


@dataclass(frozen=True)
class VertexSet:
    """An independent-set certificate."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def validate_independent(self, graph: Graph) -> None:
        """Raise on the first adjacent pair, in ascending (u, v) order."""
        members = 0
        for v in self.members:
            members |= 1 << v
        for u in sorted(self.members):
            clash = (graph.masks[u] & members) >> (u + 1)
            if clash:
                v = u + (clash & -clash).bit_length()
                raise ValueError(f"vertices {u},{v} are adjacent")


def _masks_from_packed(packed: np.ndarray) -> list[int]:
    """Bitset rows from uint8 rows packed with bitorder="little": bit j of a
    row is bit j % 8 of byte j // 8, so the bytes read as one little-endian int."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


# ---------------------------------------------------------------------------
# Cayley views
# ---------------------------------------------------------------------------


# Upper bound on the entries of one block of `CayleyView.to_graph`: its packed
# rows plus its target coordinates.  The rows are built a block at a time.
_BLOCK_ENTRIES = 1 << 20


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
        self.symmetric = connection.symmetrized_without_zero().freeze()
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
        width = (n + 7) // 8
        scoords = g.indices_to_coords(self._sym_indices)
        rows = max(1, _BLOCK_ENTRIES // (width + scoords.size))
        # one buffer serves every block, so no block writes to freshly mapped pages
        block = np.empty((min(rows, n), width), dtype=np.uint8)
        masks: list[int] = []
        for start in range(0, n, rows):
            vs = np.arange(start, min(start + rows, n), dtype=np.int64)
            ts = g.coords_to_indices(g.indices_to_coords(vs)[:, None, :] + scoords)
            packed = block[:vs.size]
            packed.fill(0)
            np.bitwise_or.at(packed, (np.arange(vs.size)[:, None], ts >> 3),
                             np.left_shift(1, ts & 7).astype(np.uint8))
            masks.extend(_masks_from_packed(packed))
        return Graph(n, masks)


# ---------------------------------------------------------------------------
# Greedy bounds
# ---------------------------------------------------------------------------


def greedy_clique(graph: Graph) -> list[int]:
    """Deterministic greedy clique, best over a few degree-ordered seeds."""
    if graph.n == 0:
        return []
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    best: list[int] = []
    for seed_pos in range(min(graph.n, 24)):
        seed = order[seed_pos]
        clique = [seed]
        cand = graph.masks[seed]
        while cand:
            # pick the candidate with most neighbors among remaining candidates
            pick, pick_score = -1, (-1, 0)
            m = cand
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                score = ((graph.masks[v] & cand).bit_count(), -v)
                if score > pick_score:
                    pick, pick_score = v, score
            clique.append(pick)
            cand &= graph.masks[pick]
        if len(clique) > len(best):
            best = clique
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
    degrees = [graph.degree(v) for v in range(n)]
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
        m = graph.masks[pick]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
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


@dataclass(frozen=True)
class ChromaticResult:
    lower: int
    upper: int
    coloring: Coloring
    exact: bool
    nodes: int
    proof: str          # "exhausted-search" when exact, "budget" otherwise

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

    Within budget the result is exact (lower == upper) and carries a validated
    Coloring plus an exhausted-search proof for upper-1 colors.  On budget
    exhaustion a bracket [lower, upper] with the best coloring found is
    returned instead, flagged exact=False.
    """
    n = graph.n
    if n > config.EXACT_SOLVER_CAP:
        raise ValueError(
            f"vertex count {n} exceeds the exact-solver cap {config.EXACT_SOLVER_CAP}")
    if n == 0:
        return ChromaticResult(0, 0, Coloring(()), True, 0, "empty")
    if graph.edge_count() == 0:
        col = Coloring((0,) * n)
        return ChromaticResult(1, 1, col, True, 0, "edgeless")

    budget = _Budget(budget_s)
    clique = greedy_clique(graph)
    greedy = dsatur_coloring(graph)
    best_colors = list(greedy.colors)
    best = greedy.num_colors
    lb = max(2, len(clique))

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
    proof = "clique-meets-coloring" if lb >= best else "exhausted-search"
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


def _clique_cover(masks: list[int], cand: int) -> list[tuple[int, int]]:
    """Greedy clique cover of `cand`: each class starts at the lowest vertex
    left and is narrowed to its neighbours, lowest first.  Returns
    (vertex, class number) in cover order, so the vertices up to any entry
    lie in that many cliques and hold at most that many independent ones."""
    cover = []
    k = 0
    while cand:
        k += 1
        q = cand
        while q:
            v = (q & -q).bit_length() - 1
            cover.append((v, k))
            cand ^= 1 << v
            q &= masks[v]
    return cover


def independence_number_exact(graph: Graph,
                              budget_s: float | None = None) -> IndependenceResult:
    """Exact maximum independent set by bitset branch and bound.

    This is the MCS/BBMC maximum-clique search (Tomita-Seki 2003; San Segundo
    et al. 2011) run on the complement graph.  Each node covers its
    candidates greedily with cliques (`_clique_cover`) and branches on them
    in reverse cover order.  It prunes as soon as the current set plus the
    class number of the next vertex cannot beat the best set, since an
    independent set meets each clique at most once.  On budget exhaustion
    the bracket's upper end is the number of cliques in the root cover.
    """
    n = graph.n
    if n > config.EXACT_SOLVER_CAP:
        raise ValueError(
            f"vertex count {n} exceeds the exact-solver cap {config.EXACT_SOLVER_CAP}")
    if n == 0:
        return IndependenceResult(0, 0, VertexSet(()), True, 0)

    budget = _Budget(budget_s)
    masks = graph.masks
    seed = _greedy_independent(graph)
    best = len(seed)
    best_mask = 0
    for v in seed:
        best_mask |= 1 << v

    def search(cand: int, cur: int, cur_size: int, cover: list[tuple[int, int]]) -> None:
        nonlocal best, best_mask
        if budget.tick():
            return
        if not cand:
            if cur_size > best:
                best = cur_size
                best_mask = cur
            return
        for v, bound in reversed(cover):
            if cur_size + bound <= best:
                return
            cand ^= 1 << v
            child = cand & ~masks[v]
            search(child, cur | 1 << v, cur_size + 1, _clique_cover(masks, child))
            if budget.exhausted:
                return

    full = (1 << n) - 1
    root_cover = _clique_cover(masks, full)
    with _search_stack(n):
        search(full, 0, 0, root_cover)

    members = tuple(v for v in range(n) if best_mask >> v & 1)
    vs = VertexSet(members)
    vs.validate_independent(graph)
    if budget.exhausted:
        return IndependenceResult(best, root_cover[-1][1], vs, False, budget.nodes)
    return IndependenceResult(best, best, vs, True, budget.nodes)
