"""graph-search: the pure-Python bitset paths in `cayley` and `kneser`.

No Fourier code runs here.  The mix covers graph materialization (a large
circulant and a Kneser graph), greedy bounds, exact chi and alpha searches
that close, two searches that stay open at their time budget, and one
DIMACS round trip.  The seed picks the large circulant's generators and the
unit that relabels the greedy instance; every other instance is fixed, so
the work per pass does not depend on the seed.
"""

from __future__ import annotations

import os
import statistics
import time
from math import comb

import numpy as np

import checks
from tracing import Op, Tracer

from chroma import ElementSet, make_group
from chroma.cayley import (CayleyView, chromatic_number_exact, greedy_bounds,
                           independence_number_exact)
from chroma.graphio import read_dimacs, write_dimacs
from chroma.kneser import KneserParams, build_graph

IMPORTS = "chroma"
PEAK_RSS = "self"

BIG_N = 65521               # largest prime below the adjacency cap 2^16
BIG_GENERATORS = 15         # +-15 generators: 30 connection elements
GREEDY_N = 1999
GREEDY_BASE = (1, 5, 11, 20, 27, 40)
BUDGET_S = 1.0              # time budget of the two searches that stay open

# (name, moduli, generators, alpha found by the exact solver at the baseline)
ALPHA_EXACT = (
    ("alpha-z73", (73,), ((1,), (5,), (11,), (20,), (27,)), 22),
    ("alpha-z3^4", (3, 3, 3, 3),
     ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)), 27),
)
ALPHA_OPEN = ("alpha-z127-budget", (127,), ((1,), (5,), (11,), (20,), (27,), (40,)))
# Classical Kneser graphs: chi(KN(n, k)) = n - 2k + 2 (Lovasz).
CHI_EXACT = ((13, 6), (10, 2))
CHI_OPEN = (11, 2)


def generate(seed: int, root) -> dict:
    rng = np.random.default_rng(seed)
    # Generators at most (n-1)/2 keep g and -g distinct across the whole set.
    big = np.sort(rng.choice(np.arange(1, (BIG_N - 1) // 2 + 1), BIG_GENERATORS,
                             replace=False))
    unit = int(rng.integers(1, GREEDY_N))
    greedy = np.array([(unit * g) % GREEDY_N for g in GREEDY_BASE], dtype=np.int64)
    alpha = {name: _indices(moduli, gens) for name, moduli, gens, _ in ALPHA_EXACT}
    alpha[ALPHA_OPEN[0]] = _indices(ALPHA_OPEN[1], ALPHA_OPEN[2])
    return {"big": big, "greedy": greedy, "alpha": alpha,
            "dimacs": os.path.join(root, ".bench_out", f"graph-{os.getpid()}.dimacs"),
            "sample": np.sort(rng.choice(BIG_N, 32, replace=False))}


def _indices(moduli, gens) -> np.ndarray:
    return np.ravel_multi_index(tuple(np.array(gens).T), moduli).astype(np.int64)


def _cayley(tr: Tracer, moduli, gens):
    group = make_group(moduli)
    with tr.span("groups.set_build"):
        conn = ElementSet.from_indices(group, gens)
    tr.count("groups.bitmap_bytes", group.order)
    with tr.span("cayley.to_graph"):
        return CayleyView(group, conn).to_graph()


def _solve(tr: Tracer, kind: str, graph, budget=None):
    solver = chromatic_number_exact if kind == "chi" else independence_number_exact
    t0 = time.perf_counter()
    with tr.span(f"cayley.{kind}"):
        res = solver(graph, budget_s=budget)
    elapsed = time.perf_counter() - t0
    tr.count(f"cayley.{kind}_nodes", res.nodes)
    tr.count("cayley.exact_calls")
    if res.exact:
        tr.count("cayley.exact_solved")
    else:
        tr.count("cayley.bracket_width", res.upper - res.lower)
        if budget is not None:
            tr.count("cayley.budget_overrun_s", elapsed - budget)
    return res


def _check_bracket(res, kind, truth=None) -> str | None:
    if not res.lower <= res.upper:
        return f"{kind} bracket [{res.lower}, {res.upper}] is empty"
    if truth is not None and not res.lower <= truth <= res.upper:
        return f"{kind} bracket [{res.lower}, {res.upper}] misses the true value {truth}"
    if res.exact and res.lower != res.upper:
        return f"exact {kind} result has bracket [{res.lower}, {res.upper}]"
    return None


def _kneser_op(n: int, k: int, budget) -> Op:
    truth = n - 2 * k + 2

    def run(tr):
        with tr.span("kneser.build"):
            verts, graph = build_graph(KneserParams(n, k, 1))
        tr.count("kneser.pairs", comb(len(verts), 2))
        return verts, graph, _solve(tr, "chi", graph, budget)

    def check(out, tr):
        verts, graph, res = out
        want, adj = checks.kneser_classical(n, k)
        if [v.parts[0] for v in verts] != want:
            return "vertex list differs from the k-subsets in lexicographic order"
        if not np.array_equal(checks.rows_matrix(graph.masks, graph.n), adj):
            return "adjacency differs from disjointness"
        colors = res.coloring.colors
        if len(set(colors)) != res.upper:
            return f"coloring uses {len(set(colors))} colors, upper bound says {res.upper}"
        return (checks.proper_by_matrix(colors, adj) or _check_bracket(res, "chi", truth)
                or (None if budget is not None or res.exact else "chi left open without a budget"))

    name = f"chi-kn{n}-{k}" + ("-budget" if budget is not None else "")
    return Op(name, run, check)


def _alpha_op(name: str, moduli, gens, truth, budget) -> Op:
    sym = checks.symmetric_closure(moduli, gens)

    def run(tr):
        return _solve(tr, "alpha", _cayley(tr, moduli, gens), budget)

    def check(res, tr):
        members = list(res.vertex_set.members)
        if len(members) != res.lower:
            return f"independent set has {len(members)} vertices, lower bound says {res.lower}"
        if truth is not None and not res.exact:
            return "alpha left open without a budget"
        if truth is not None and res.lower != truth:
            return f"alpha = {res.lower}, expected {truth}"
        return checks.cayley_independent(members, moduli, sym) or _check_bracket(res, "alpha")

    return Op(name, run, check)


def make_ops(inputs: dict, index: int) -> list[Op]:
    state: dict = {}
    big_sym = checks.symmetric_closure((BIG_N,), inputs["big"])
    greedy_sym = checks.symmetric_closure((GREEDY_N,), inputs["greedy"])

    def big_run(tr):
        return _cayley(tr, (BIG_N,), inputs["big"])

    def big_check(graph, tr):
        if graph.n != BIG_N:
            return f"graph has {graph.n} vertices"
        if any(m.bit_count() != big_sym.size for m in graph.masks):
            return f"some row does not have degree {big_sym.size}"
        for v in inputs["sample"].tolist():
            if graph.neighbors(v) != sorted(((v + big_sym) % BIG_N).tolist()):
                return f"row {v} is not v + (A u -A)"
        return None

    def greedy_run(tr):
        graph = _cayley(tr, (GREEDY_N,), inputs["greedy"])
        with tr.span("cayley.greedy"):
            bounds = greedy_bounds(graph)
        state["greedy_graph"] = graph
        return bounds

    def greedy_check(b, tr):
        colors = b.coloring.colors
        if len(set(colors)) != b.dsatur_upper or len(b.clique) != b.clique_lower:
            return "bounds disagree with their certificates"
        if b.clique_lower > b.dsatur_upper:
            return "clique is larger than the coloring"
        return (checks.cayley_proper(colors, (GREEDY_N,), greedy_sym)
                or checks.cayley_clique(list(b.clique), (GREEDY_N,), greedy_sym))

    def dimacs_run(tr):
        graph, path = state.pop("greedy_graph"), inputs["dimacs"]
        try:
            with tr.span("graphio.write"):
                write_dimacs(graph, path)
            size = os.path.getsize(path)
            with tr.span("graphio.read"):
                back = read_dimacs(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        tr.count("graphio.bytes", size)
        return graph, back

    def dimacs_check(out, tr):
        graph, back = out
        same = back.n == graph.n and back.masks == graph.masks
        return None if same else "read-back graph differs"

    ops = [Op("to-graph-z65521", big_run, big_check)]
    ops += [_kneser_op(n, k, None) for n, k in CHI_EXACT]
    ops.append(Op("greedy-z1999", greedy_run, greedy_check))
    ops += [_alpha_op(name, moduli, inputs["alpha"][name], truth, None)
            for name, moduli, _, truth in ALPHA_EXACT]
    ops.append(_kneser_op(*CHI_OPEN, BUDGET_S))
    ops.append(_alpha_op(ALPHA_OPEN[0], ALPHA_OPEN[1], inputs["alpha"][ALPHA_OPEN[0]],
                         None, BUDGET_S))
    ops.append(Op("dimacs-round-trip", dimacs_run, dimacs_check))
    return ops


def extras(passes) -> dict:
    """Instances closed with a proof, and the bracket left open, per pass."""
    return {
        name: (statistics.median(p.tracer.counts[key] for p in passes), "count")
        for name, key in (("solved_exact", "cayley.exact_solved"),
                          ("bracket_width", "cayley.bracket_width"))
    }
