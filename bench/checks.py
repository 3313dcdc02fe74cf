"""Independent checks on chroma's outputs, written against numpy only.

Each check returns None when the output is right and a one-line reason when
it is not.  None of them calls back into chroma, so a defect in the program
cannot hide itself from the check.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np


def without_timing(obj):
    """A report with its `timing` blocks and `elapsed_s` fields removed, as plain JSON."""
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in ("timing", "elapsed_s")}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node
    return strip(json.loads(json.dumps(obj, default=_plain)))


def _plain(obj):
    """numpy scalars as the Python values they stand for."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def count_table(table: np.ndarray, set_size: int, k: int) -> str | None:
    """A count table N(y) over every target y must sum to |A|^k."""
    if table.min() < 0:
        return f"negative count {int(table.min())}"
    total = sum(table.tolist())         # Python integers: the sum cannot wrap
    if total != set_size ** k:
        return f"sum N(y) - |A|^{k} = {total - set_size ** k}"
    return None


# -- graphs given by an adjacency matrix -------------------------------------


def rows_matrix(masks: list[int], n: int) -> np.ndarray:
    """Bitset adjacency rows as an n x n boolean matrix."""
    width = (n + 7) // 8
    buf = b"".join(m.to_bytes(width, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(n, width),
                         axis=1, bitorder="little")
    return bits[:, :n].astype(bool)


def kneser_classical(n: int, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Vertices of KN(n, k) in lexicographic order, and their disjointness matrix."""
    verts = list(combinations(range(n), k))
    masks = np.array([sum(1 << j for j in v) for v in verts], dtype=np.int64)
    return verts, (masks[:, None] & masks[None, :]) == 0


def proper_by_matrix(colors, adj: np.ndarray) -> str | None:
    c = np.asarray(colors)
    if c.shape != (adj.shape[0],) or c.min() < 0:
        return "coloring does not color every vertex"
    bad = np.argwhere(adj & (c[:, None] == c[None, :]))
    return None if bad.size == 0 else f"edge {tuple(int(x) for x in bad[0])} is monochromatic"


def independent_by_matrix(members, adj: np.ndarray) -> str | None:
    m = np.asarray(members, dtype=np.int64)
    bad = np.argwhere(adj[np.ix_(m, m)])
    if bad.size == 0:
        return None
    return f"vertices {int(m[bad[0][0]])},{int(m[bad[0][1]])} are adjacent"


# -- Cayley graphs on Z_n1 x ... x Z_nd, vertices in mixed-radix order -------


def _coords(moduli, idx) -> np.ndarray:
    return np.stack(np.unravel_index(np.asarray(idx, dtype=np.int64), moduli), axis=-1)


def _index(moduli, coords) -> np.ndarray:
    coords = np.asarray(coords) % np.asarray(moduli)
    return np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), moduli)


def symmetric_closure(moduli, gens) -> np.ndarray:
    """Indices of A u -A without the identity, sorted."""
    c = _coords(moduli, gens)
    both = np.concatenate([_index(moduli, c), _index(moduli, -c)])
    return np.unique(both[both != 0])


def shifted(moduli, idx, d: int) -> np.ndarray:
    """Index of v + d for every index v in idx."""
    return _index(moduli, _coords(moduli, idx) + _coords(moduli, [d])[0])


def cayley_proper(colors, moduli, sym) -> str | None:
    c = np.asarray(colors)
    n = int(np.prod(moduli))
    if c.shape != (n,) or c.min() < 0:
        return "coloring does not color every vertex"
    vs = np.arange(n)
    for d in sym:
        nb = shifted(moduli, vs, int(d))
        bad = np.flatnonzero(c == c[nb])
        if bad.size:
            return f"edge ({int(bad[0])},{int(nb[bad[0]])}) is monochromatic"
    return None


def _pair_differences(moduli, members) -> np.ndarray:
    c = _coords(moduli, members)
    return _index(moduli, c[None, :, :] - c[:, None, :])


def cayley_independent(members, moduli, sym) -> str | None:
    if len(set(members)) != len(members):
        return "independent set repeats a vertex"
    hit = np.argwhere(np.isin(_pair_differences(moduli, members), sym))
    if hit.size == 0:
        return None
    return f"vertices {members[hit[0][0]]},{members[hit[0][1]]} are adjacent"


def cayley_clique(members, moduli, sym) -> str | None:
    d = _pair_differences(moduli, members)
    off = ~np.eye(len(members), dtype=bool)
    return None if np.isin(d[off], sym).all() else "clique has a non-adjacent pair"
