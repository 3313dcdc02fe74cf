"""Generalized Kneser graphs and their embedding into Cayley graphs on Z_p^n.

A vertex is an ordered m-tuple of pairwise disjoint k-subsets of {0..n-1}.
Two vertices are adjacent when one of two one-sided disjointness cascades
holds between the tuples.  m = 1 recovers the classical Kneser graph and is
admitted with a `classical` flag.

For p = m+1 the vertices embed into Z_p^n by writing part index i+1 on the
coordinates of the (i+1)-st part; edges then land inside a Hamming ball
around the all-ones vector, and a weight function on coordinates carves an
independent set out of the ambient Cayley graph.  All radius/threshold
comparisons are exact (integer against quadratic surd), never floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import or_, sub

import numpy as np

from . import config
from .cayley import Bracket, Coloring, Graph, VertexSet
from .exact import Surd
from .groups import ElementSet, GroupSpec, make_group, materialized_order
from .primes import is_prime

__all__ = [
    "KneserParams",
    "KneserVertex",
    "HammingBallSet",
    "IndependentSetResult",
    "count_vertices",
    "kneser_vertices",
    "kneser_adjacent",
    "build_graph",
    "chi_lower_bound",
    "embedding_k",
    "embed_vertex",
    "check_embedding_edge",
    "ones_weight",
    "independent_set",
]

# Upper bound on the uint64 entries of one block's cascade test in
# `build_graph`; the rows are built a block at a time.
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class KneserParams:
    """Parameters (n, k, m); feasibility requires n >= (m+1)k."""

    n: int
    k: int
    m: int

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be >= 1")
        if self.n < (self.m + 1) * self.k:
            raise ValueError(
                f"infeasible parameters: n={self.n} < (m+1)k={(self.m + 1) * self.k}"
            )

    @property
    def classical(self) -> bool:
        """m = 1: the classical Kneser graph (general definition expects m >= 2)."""
        return self.m == 1

    @property
    def p(self) -> int:
        return self.m + 1


@dataclass(frozen=True)
class KneserVertex:
    """Ordered tuple of pairwise disjoint k-subsets of the ground set."""

    parts: tuple[tuple[int, ...], ...]

    def masks(self) -> tuple[int, ...]:
        out = []
        for part in self.parts:
            m = 0
            for j in part:
                m |= 1 << j
            out.append(m)
        return tuple(out)

    def support(self) -> int:
        s = 0
        for m in self.masks():
            s |= m
        return s


def count_vertices(params: KneserParams) -> int:
    return math.prod(
        math.comb(params.n - i * params.k, params.k) for i in range(params.m)
    )


def kneser_vertices(params: KneserParams) -> list[KneserVertex]:
    """All vertices in lexicographic order; refused above `config.ADJACENCY_CAP`."""
    total = count_vertices(params)
    if total > config.ADJACENCY_CAP:
        raise ValueError(
            f"vertex count {total} exceeds the adjacency cap {config.ADJACENCY_CAP}")
    n, k, m = params.n, params.k, params.m
    ground = list(range(n))
    out: list[KneserVertex] = []

    def rec(depth: int, used: int, acc: list[tuple[int, ...]]):
        if depth == m:
            out.append(KneserVertex(tuple(acc)))
            return
        avail = [j for j in ground if not used >> j & 1]
        for comb in combinations(avail, k):
            mask = 0
            for j in comb:
                mask |= 1 << j
            acc.append(comb)
            rec(depth + 1, used | mask, acc)
            acc.pop()

    rec(0, 0, [])
    if len(out) != total:
        raise AssertionError(f"enumerated {len(out)} vertices, expected {total}")
    return out


def _cascades(a: KneserVertex, b: KneserVertex) -> tuple[bool, bool]:
    """(a->b, b->a): direction a->b holds when every cut's prefix union of a
    avoids b's suffix union; b->a is the mirror condition."""
    ma, mb = a.masks(), b.masks()
    pa, pb = accumulate(ma, or_), accumulate(mb, or_)
    sa, sb = (list(accumulate(m[::-1], or_))[::-1] for m in (ma, mb))
    return (all(x & y == 0 for x, y in zip(pa, sb)),
            all(x & y == 0 for x, y in zip(pb, sa)))


def kneser_adjacent(a: KneserVertex, b: KneserVertex) -> bool:
    """Adjacency: a one-sided disjointness cascade holds in either direction.

    Direction a->b requires (parts a_1..a_i) to avoid (parts b_i..b_m) for
    every cut position i; direction b->a is the mirror condition.
    """
    return any(_cascades(a, b))


def _cascade_words(verts: list[KneserVertex], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix and suffix unions of every vertex as uint64 words, shape (m*W, V)
    with W = ceil(n/64): row t*W + w holds word w of each vertex's cut-t union."""
    parts = np.array([v.parts for v in verts], dtype=np.int64)     # (V, m, k)
    nv, m = parts.shape[:2]
    words = (n + 63) // 64
    member = np.zeros((nv, m, 64 * words), dtype=bool)
    member[np.arange(nv)[:, None, None], np.arange(m)[None, :, None], parts] = True
    pref = np.logical_or.accumulate(member, axis=1)
    suf = np.logical_or.accumulate(member[:, ::-1], axis=1)[:, ::-1]
    return tuple(np.ascontiguousarray(
        np.packbits(x, axis=2, bitorder="little").view("<u8").reshape(nv, m * words).T)
        for x in (pref, suf))


def build_graph(params: KneserParams) -> tuple[list[KneserVertex], Graph]:
    """Materialize the graph; vertices indexed in lexicographic order.

    The graph is vertex-transitive: a permutation of the ground set applied
    to every part preserves the unions and intersections the cascades test,
    and the symmetric group is transitive on the vertices.  A classical
    graph (m = 1) also carries the bracket its theorems close
    (`_classical_bracket`).
    """
    verts = kneser_vertices(params)
    n = len(verts)
    pref, suf = _cascade_words(verts, params.n)
    rows = max(1, _BLOCK_ENTRIES // pref.size)
    lens, cols = [], []
    for start in range(0, n, rows):
        blk = slice(start, start + rows)
        # a cascade fails when some cut's prefix meets the other side's suffix
        fwd_fails = (pref[:, blk, None] & suf[:, None]).any(axis=0)
        rev_fails = (suf[:, blk, None] & pref[:, None]).any(axis=0)
        adjacent = ~(fwd_fails & rev_fails)
        lens.append(np.count_nonzero(adjacent, axis=1))
        if start == 0 and n * int(lens[0][0]) > config.CSR_ENTRY_CAP:   # rows match row 0
            raise ValueError(f"CSR of {n} rows of {int(lens[0][0])} neighbours "
                             f"exceeds the entry cap {config.CSR_ENTRY_CAP}")
        # the column of an adjacent pair is its flat index less its row's offset
        cols.append(np.flatnonzero(adjacent) - np.repeat(np.arange(0, adjacent.size, n), lens[-1]))
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(lens))))
    bracket = _classical_bracket(params, verts) if params.classical else None
    return verts, Graph(n, indptr, np.concatenate(cols), vertex_transitive=True, bracket=bracket)


def _classical_bracket(params: KneserParams, verts: list[KneserVertex]) -> Bracket:
    """chi and alpha of KG(n, k), both closed by theorems.

    Lovasz (1978): chi >= n - 2k + 2.  The coloring meets it: S takes color
    min(S) when min(S) <= n - 2k and color n - 2k + 1 otherwise; the sets of
    that last class lie in the 2k - 1 points above n - 2k, so any two meet.
    Erdos-Ko-Rado (1961): alpha = C(n-1, k-1) for n >= 2k, which every
    feasible classical graph has; the star {S : 0 in S} meets it.
    """
    n, k = params.n, params.k
    mins = np.array([v.parts[0][0] for v in verts])
    return Bracket(
        chi_lower=n - 2 * k + 2, chi_lower_proof="lovasz-1978",
        coloring=Coloring(tuple(np.minimum(mins, n - 2 * k + 1).tolist())),
        coloring_proof="kneser-min-coloring",
        independent=VertexSet(tuple(np.flatnonzero(mins == 0).tolist())),
        alpha_upper=math.comb(n - 1, k - 1), alpha_upper_proof="ekr-1961")


def chi_lower_bound(params: KneserParams) -> Fraction:
    """Exact rational lower bound (n/p - k) / (p(p-1)) with p = m+1 prime.

    May be <= 0 for small n; callers decide what to do with a nonpositive
    bound (it is returned raw, not clamped).
    """
    p = params.p
    if not is_prime(p):
        raise ValueError(f"m+1 = {p} must be prime for the spectral bound")
    return Fraction(params.n - p * params.k, p * p * (p - 1))


# ---------------------------------------------------------------------------
# Embedding into Z_p^n
# ---------------------------------------------------------------------------


def embedding_k(p: int, n: int) -> int:
    """Smallest positive integer k with k >= (n - sqrt(n))/p (exact)."""
    if p < 2 or n < 1:
        raise ValueError("need p >= 2 and n >= 1")
    return max(1, Surd(Fraction(n, p), Fraction(-1, p), n).ceil())


def embed_vertex(v: KneserVertex, p: int, n: int) -> tuple[int, ...]:
    """Write part index i on the coordinates of part i (1-based), 0 elsewhere."""
    if len(v.parts) != p - 1:
        raise ValueError(f"vertex has {len(v.parts)} parts; embedding needs p-1 = {p - 1}")
    coords = [0] * n
    for i, part in enumerate(v.parts, start=1):
        for j in part:
            if j >= n:
                raise ValueError("part element outside the ground set")
            coords[j] = i
    return tuple(coords)


@dataclass(frozen=True)
class EmbeddingEdgeCheck:
    direction: str                 # "forward", "reverse", or "both"
    distance: int                  # Hamming distance of the difference from all-ones
    distance_bound: int            # p*n - p^2*k
    within_bound: bool
    within_ball: bool              # distance <= p*sqrt(n)
    complement_overlap: int        # |A_0 and B_{p-1}|, expected == k
    complement_overlap_ok: bool
    min_part_overlap_ok: bool      # |A_i and B_{i-1}| >= (p+1)k - n for all i
    ok: bool


def _difference_distance_from_ones(xa: tuple[int, ...], xb: tuple[int, ...], p: int) -> int:
    return sum(1 for a, b in zip(xa, xb) if (a - b) % p != 1)


def _claim_checks(a: KneserVertex, b: KneserVertex, p: int, n: int, k: int):
    full = (1 << n) - 1
    amasks, bmasks = a.masks(), b.masks()
    a0 = full & ~a.support()
    b0 = full & ~b.support()
    comp_overlap = (a0 & bmasks[p - 2]).bit_count()
    lo = (p + 1) * k - n
    mins_ok = True
    for i in range(1, p):          # part A_i against B_{i-1}
        bi_prev = b0 if i == 1 else bmasks[i - 2]
        if (amasks[i - 1] & bi_prev).bit_count() < lo:
            mins_ok = False
    return comp_overlap, mins_ok


def check_embedding_edge(a: KneserVertex, b: KneserVertex, p: int, n: int,
                         k: int) -> EmbeddingEdgeCheck:
    """Verify that an edge's embedded difference sits near the all-ones vector.

    Orientation follows whichever adjacency cascade holds: for the forward
    cascade the difference x_a - x_b is examined, for the reverse x_b - x_a.
    Sub-checks: the complement of a meets the last part of b in exactly k
    coordinates, and consecutive parts overlap at least (p+1)k - n.
    """
    fwd, rev = _cascades(a, b)
    if not (fwd or rev):
        raise ValueError("vertices are not adjacent")

    oriented: list[tuple[str, KneserVertex, KneserVertex]] = []
    if fwd:
        oriented.append(("forward", a, b))
    if rev:
        oriented.append(("reverse", b, a))
    results = []
    for tag, va, vb in oriented:
        xa = embed_vertex(va, p, n)
        xb = embed_vertex(vb, p, n)
        dist = _difference_distance_from_ones(xa, xb, p)
        comp_overlap, mins_ok = _claim_checks(va, vb, p, n, k)
        results.append((tag, dist, comp_overlap, mins_ok))

    bound = p * n - p * p * k
    ball = Surd.sqrt(p, n)
    dist = max(r[1] for r in results)
    comp_ok = all(r[2] == k for r in results)
    mins_ok = all(r[3] for r in results)
    within_bound = all(r[1] <= bound for r in results)
    within_ball = all(ball >= r[1] for r in results)
    direction = "both" if len(results) == 2 else results[0][0]
    ok = within_bound and within_ball and comp_ok and mins_ok
    return EmbeddingEdgeCheck(
        direction=direction,
        distance=dist,
        distance_bound=bound,
        within_bound=within_bound,
        within_ball=within_ball,
        complement_overlap=results[0][2],
        complement_overlap_ok=comp_ok,
        min_part_overlap_ok=mins_ok,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# Hamming ball connection set and the weight-function independent set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HammingBallSet:
    """{x in Z_p^n : d(x, all-ones) <= radius}, radius typically p*sqrt(n)."""

    p: int
    n: int
    radius: Surd

    @property
    def group(self) -> GroupSpec:
        return make_group([self.p] * self.n)

    def distance_cutoff(self) -> int:
        """Largest integer distance inside the ball (exact)."""
        return self.radius.floor()

    def contains_coords(self, coords) -> bool:
        d = sum(1 for c in coords if c % self.p != 1)
        return d <= self.distance_cutoff()

    def to_element_set(self) -> ElementSet:
        group = self.group
        idx = np.arange(materialized_order(group), dtype=np.int64)
        coords = group.indices_to_coords(idx)
        dist = (coords != 1).sum(axis=1)
        return ElementSet(group, dist <= self.distance_cutoff())


def ones_weight(p: int, coords) -> Fraction:
    """Sum over nonzero coordinates of (p - x)/(p - 1); equals n at all-ones."""
    if p < 2:
        raise ValueError("p must be >= 2")
    num = sum(p - (c % p) for c in coords if c % p != 0)
    return Fraction(num, p - 1)


@dataclass(frozen=True)
class IndependentSetResult:
    """Exact size of the weight set, and its members up to the enumeration cap."""

    p: int
    n: int
    radius: Surd
    threshold: Surd               # n/2 - radius, the weight cutoff
    degenerate: bool              # threshold < 0, so the set is empty
    count: int
    member_indices: np.ndarray | None   # None above config.WEIGHT_ENUM_CAP elements
    density: float                # count / p**n

    def members_coords(self) -> np.ndarray:
        if self.member_indices is None:
            raise ValueError(f"members are enumerated only up to "
                             f"{config.WEIGHT_ENUM_CAP} group elements")
        return make_group([self.p] * self.n).indices_to_coords(self.member_indices)


def _weight_set_count(p: int, n: int, cutoff: int) -> int:
    """#{x in Z_p^n : w_pos(x) <= cutoff and w_neg(x) <= cutoff}, exactly.

    j nonzero coordinates with value sum s give w_neg = s and w_pos = j*p - s,
    so the count is sum_j C(n, j) * #{j-tuples in [1, p-1] summing into
    [j*p - cutoff, cutoff]}.  `ways[s]` counts the j-tuples with sum s <= cutoff;
    one prefix sum per j steps it to j + 1.
    """
    if cutoff < 0:
        return 0
    ways = [1] + [0] * cutoff          # the empty tuple
    total = 1
    for j in range(1, min(n, 2 * cutoff // p) + 1):
        pre = [0, *accumulate(ways)]   # pre[s] = ways[0] + ... + ways[s-1]
        lag = [0] * (p - 1) + pre      # lag[s] = pre[s - (p-1)], 0 below zero
        ways = list(map(sub, pre[:cutoff + 1], lag[:cutoff + 1]))
        total += math.comb(n, j) * sum(ways[max(0, j * p - cutoff):])
    return total


def independent_set(p: int, n: int, radius: Surd | None = None) -> IndependentSetResult:
    """The two-sided weight set {x : w(x) <= n/2 - r and w(-x) <= n/2 - r}.

    Defaults to r = p*sqrt(n) (r = sqrt(n) at p = 2), which pairs with the
    Hamming ball of the same radius: the difference of two members always has
    weight below n - 2r while ball members weigh at least n - r, so the set is
    independent in Cay(Z_p^n, ball) for any positive radius.  At desk scale
    the default threshold n/2 - p*sqrt(n) is often negative — the set is then
    empty and flagged degenerate; pass a smaller exact radius (still paired
    with the same-radius ball) to get a nonempty set with the same
    independence guarantee.

    At p = 2 the weight is the Hamming weight and x = -x, so this is the
    classical set {x in Z_2^n : wt(x) <= n/2 - r}.  The count is exact at
    every size, in about n^2 (p-1)/2 integer steps, capped by
    `config.WEIGHT_COUNT_CAP`; members are enumerated up to
    `config.WEIGHT_ENUM_CAP` group elements.
    """
    if n < 1:
        raise ValueError(f"independent_set expects n >= 1, got n = {n}")
    if p < 2:
        raise ValueError("independent_set expects p >= 2")
    steps = n * n * (p - 1) // 2
    if steps > config.WEIGHT_COUNT_CAP:
        raise ValueError(f"weight-set count of {steps} steps exceeds the cap "
                         f"{config.WEIGHT_COUNT_CAP}")
    if radius is None:
        radius = Surd.sqrt(1 if p == 2 else p, n)
    threshold = Surd(Fraction(n, 2) - radius.a, -radius.b, radius.under)
    # weight numerators (over p-1) are integers in [0, n*(p-1)]; cut at an exact integer
    cutoff = threshold.scaled(p - 1).floor()
    count = _weight_set_count(p, n, cutoff)
    order = p ** n
    members = None
    if order <= config.WEIGHT_ENUM_CAP:
        coords = make_group([p] * n).indices_to_coords(np.arange(order, dtype=np.int64))
        w_pos = ((p - coords) * (coords != 0)).sum(axis=1)
        w_neg = coords.sum(axis=1)     # (p - ((p - c) % p)) = c on nonzero coords
        members = np.flatnonzero((w_pos <= cutoff) & (w_neg <= cutoff)).astype(np.int64)
    return IndependentSetResult(
        p=p, n=n, radius=radius, threshold=threshold, degenerate=threshold < 0,
        count=count, member_indices=members, density=count / order,
    )
