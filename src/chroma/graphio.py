"""Graph interchange: DIMACS edge files and CNF export of k-colorability."""

from __future__ import annotations

from .cayley import Graph

__all__ = ["write_dimacs", "read_dimacs", "write_coloring_cnf"]


def write_dimacs(graph: Graph, path) -> None:
    """DIMACS edge format: `p edge n m` header, 1-based `e u v` lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"p edge {graph.n} {graph.edge_count()}\n")
        for u, v in graph.edges():
            fh.write(f"e {u + 1} {v + 1}\n")


def read_dimacs(path) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] not in ("edge", "col"):
                    raise ValueError(f"bad DIMACS problem line {line!r}")
                if n is not None:
                    raise ValueError(f"second DIMACS problem line {line!r}")
                n, m = int(parts[2]), int(parts[3])
            elif parts[0] == "e":
                if len(parts) != 3:
                    raise ValueError(f"bad DIMACS edge line {line!r}")
                if n is None:
                    raise ValueError("edge line before problem line")
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                edges.append((u, v))
            else:
                raise ValueError(f"unrecognized DIMACS line {line!r}")
    if n is None:
        raise ValueError("missing DIMACS problem line")
    if len(edges) != m:
        raise ValueError(f"DIMACS header says m = {m}, but the file has {len(edges)} edge lines")
    return Graph.from_edges(n, edges)


def write_coloring_cnf(graph: Graph, k: int, path) -> None:
    """CNF that is satisfiable iff the graph is k-colorable.

    Variable v*k + c + 1 means "vertex v gets color c".  Clauses: each vertex
    takes at least one color; adjacent vertices never share a color.  (Multiple
    colors on one vertex are harmless for satisfiability.)
    """
    if k < 1:
        raise ValueError("k must be positive")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"c k-colorability encoding, k={k}\n")
        fh.write(f"p cnf {graph.n * k} {graph.n + k * graph.edge_count()}\n")
        for v in range(graph.n):
            fh.write(" ".join(str(v * k + c + 1) for c in range(k)) + " 0\n")
        for u, v in graph.edges():
            for c in range(k):
                fh.write(f"-{u * k + c + 1} -{v * k + c + 1} 0\n")
