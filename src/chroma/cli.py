"""Batch command-line front end.

One experiment per invocation: `chroma <command> --config file.json` reads a
JSON config, checks it against the command's field table, runs the named
pipeline, and emits a JSON report (stdout by default, `--out` to write a
file).  Reports are deterministic for a fixed (config, seed) apart from the
`timing` block, which holds every measured second.

Exit codes: 0 on success, 2 when a requested certificate or claim fails
(a finding, with the evidence in the report), 1 on usage, configuration or
execution errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

# Each handler imports the chroma modules it calls, so an invocation loads
# only its own command's modules (numpy comes in with the package root).

# Config fields, checked before any work.  A kind is one of the JSON type
# names in _SCALARS, a frozenset of allowed strings, a tuple of alternative
# kinds, a _ListOf, or an _Object.  "integer" means a JSON integer: never a
# boolean and never a float, however integral.
_SCALARS = {
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float),
    "string": lambda v: type(v) is str,
    "boolean": lambda v: type(v) is bool,
    "null": lambda v: v is None,
}


@dataclass(frozen=True)
class _ListOf:
    item: object
    nonempty: bool = False


@dataclass(frozen=True)
class _Object:
    fields: dict
    required: tuple[str, ...] = ()
    exactly_one: bool = False   # the object sets exactly one of its fields


_LIFT_REQUIRED = ("equation", "q", "primes", "p")
_LIFT_FIELDS = {"equation": "string", "q": "integer",
                "primes": _ListOf("integer", nonempty=True),
                "p": ("integer", frozenset({"auto"})),
                "core_threshold": ("string", "null"),
                "extension_threshold": ("string", "null")}


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if isinstance(kind, frozenset):
        return "one of " + ", ".join(map(repr, sorted(kind)))
    return {_ListOf: "list", _Object: "object"}.get(type(kind), kind)


def _config_errors(value, kind, path: str = "") -> list[str]:
    """'<field path>: <message>' for each way value fails kind; [] if it fits."""
    where = path or "<root>"
    sub = (lambda key: f"{path}/{key}") if path else str
    if isinstance(kind, tuple):
        if any(not _config_errors(value, k, path) for k in kind):
            return []
    elif isinstance(kind, frozenset):
        if type(value) is str and value in kind:
            return []
    elif isinstance(kind, str):
        if _SCALARS[kind](value):
            return []
    elif isinstance(kind, _ListOf) and type(value) is list:
        if kind.nonempty and not value:
            return [f"{where}: must not be empty"]
        return [e for i, item in enumerate(value)
                for e in _config_errors(item, kind.item, sub(i))]
    elif isinstance(kind, _Object) and type(value) is dict:
        errors = []
        for key, item in value.items():
            if key in kind.fields:
                errors += _config_errors(item, kind.fields[key], sub(key))
            else:
                errors.append(f"{sub(key)}: unknown field")
        errors += [f"{sub(key)}: missing required field"
                   for key in kind.required if key not in value]
        if kind.exactly_one and len(value) != 1:
            errors.append(f"{where}: needs exactly one of "
                          + ", ".join(repr(k) for k in kind.fields))
        return errors
    return [f"{where}: expected {_describe(kind)}, got {json.dumps(value)}"]


class CliError(Exception):
    """Configuration or execution problem with a user-facing message."""


def _parse_budget(text: str | None) -> float | None:
    if text is None:
        return None
    m = re.fullmatch(r"([0-9]+(?:\.[0-9]*)?)(s|m|h)", text.strip())
    if not m:
        raise CliError(f"bad budget {text!r}; use forms like '30s', '2m', '1h'")
    mult = {"s": 1.0, "m": 60.0, "h": 3600.0}[m.group(2)]
    return float(m.group(1)) * mult


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    errors = _config_errors(cfg, _COMMANDS[command][1])
    if errors:
        raise CliError(f"config {path} failed validation: {'; '.join(errors)}")
    return cfg


def _cache_path(path: str) -> str:
    """Relative artifact paths land in CHROMA_CACHE_DIR when it is set."""
    cache = os.environ.get("CHROMA_CACHE_DIR")
    if cache and not os.path.isabs(path):
        os.makedirs(cache, exist_ok=True)
        return os.path.join(cache, path)
    return path


def _threshold(text: str | None, fallback: Surd | None) -> Surd | None:
    if text is None:
        return fallback
    from .exact import Surd
    try:
        return Surd.rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad threshold {text!r}: expected a fraction "
                       f"like '13/7'") from exc


# ---------------------------------------------------------------------------
# Command handlers: each returns (results dict, exit code, stage seconds for
# the report's `timing` block)
# ---------------------------------------------------------------------------


def _run_classify(cfg: dict) -> tuple[dict, int, dict]:
    from .equations import Equation, classify
    eq = Equation.parse(cfg["equation"])
    res = classify(eq)
    return {"equation": str(eq), "k": eq.k, **res.to_report()}, 0, {}


def _bracket_report(name: str, res) -> dict:
    """<name>_lower, _upper and _exact of a chi or alpha result, and <name>
    itself once the bracket is closed."""
    out = {f"{name}_lower": res.lower, f"{name}_upper": res.upper, f"{name}_exact": res.exact}
    if res.exact:
        out[name] = res.lower
    return out


def _run_kneser(cfg: dict) -> tuple[dict, int, dict]:
    from . import cayley as cayley_mod, kneser
    from .primes import is_prime
    params = kneser.KneserParams(cfg["n"], cfg["k"], cfg["m"])
    out: dict = {
        "n": params.n, "k": params.k, "m": params.m,
        "classical": params.classical,
        "vertices": kneser.count_vertices(params),
    }
    action = cfg["action"]
    # the spectral bound needs m + 1 prime: chi-bound refuses otherwise, chi omits it
    if action == "chi-bound" or (action == "chi" and is_prime(params.p)):
        bound = kneser.chi_lower_bound(params)
        out["chi_bound"] = str(bound)
        out["chi_bound_ceil"] = -(-bound.numerator // bound.denominator)
    if action == "chi":
        cayley_mod.check_exact_solver_cap(out["vertices"])
        _, graph = kneser.build_graph(params)
        out.update(_bracket_report("chi", cayley_mod.chromatic_number_exact(
            graph, budget_s=_parse_budget(cfg.get("budget")))))
    return out, 0, {}


def _connection_indices(group, conn) -> list[int]:
    idx = []
    for entry in conn:
        if isinstance(entry, list):
            if len(entry) != group.rank:
                raise ValueError(f"dimension mismatch: got {len(entry)} coords "
                                 f"for rank {group.rank}")
            # reduce as Python ints: coords_to_indices converts to int64
            reduced = [c % n for c, n in zip(entry, group.moduli)]
            idx.append(int(group.coords_to_indices(reduced)))
        else:
            idx.append(int(entry) % group.order)
    return idx


def _run_cayley(cfg: dict) -> tuple[dict, int, dict]:
    from . import cayley as cayley_mod, graphio
    from .groups import ElementSet, parse_group_literal
    group = parse_group_literal(cfg["group"])
    action = cfg["action"]
    if action in ("chi", "alpha"):
        cayley_mod.check_exact_solver_cap(group.order)
    cayley_mod.check_adjacency_cap(group.order)
    if action == "export" and "dimacs" not in cfg and "cnf" not in cfg:
        raise CliError("export action needs 'dimacs' and/or 'cnf' paths")
    if "cnf" in cfg and cfg.get("cnf_colors", 0) < 1:
        raise CliError("'cnf' export needs 'cnf_colors' >= 1")
    conn = ElementSet.from_indices(group, _connection_indices(group, cfg["connection"]))
    view = cayley_mod.CayleyView(group, conn)
    graph = view.to_graph()
    out: dict = {
        "group": group.literal,
        "order": group.order,
        "connection_size": view.connection.count,
        "edges": graph.edge_count(),
    }
    budget = _parse_budget(cfg.get("budget"))
    if action == "greedy":
        gb = cayley_mod.greedy_bounds(graph)
        out["clique_lower"] = gb.clique_lower
        out["greedy_colors"] = gb.dsatur_upper
        out["clique"] = list(gb.clique)
    elif action in ("chi", "alpha"):
        solve = (cayley_mod.chromatic_number_exact if action == "chi"
                 else cayley_mod.independence_number_exact)
        res = solve(graph, budget_s=budget)
        out.update(_bracket_report(action, res), search_nodes=res.nodes, proof=res.proof)
    if "dimacs" in cfg:
        path = _cache_path(cfg["dimacs"])
        graphio.write_dimacs(graph, path)
        out["dimacs"] = path
    if "cnf" in cfg:
        path = _cache_path(cfg["cnf"])
        graphio.write_coloring_cnf(graph, cfg["cnf_colors"], path)
        out["cnf"] = path
        out["cnf_colors"] = cfg["cnf_colors"]
    return out, 0, {}


def _pinned_config(cfg: dict) -> cons.PinnedConfig:
    from . import constructions as cons
    from .equations import Equation
    from .primes import next_prime
    eq = cons.normalize_equation(Equation.parse(cfg["equation"]))
    primes = tuple(cfg["primes"])
    p = cfg["p"]
    if p == "auto":
        d = eq.abs_coeff_sum
        # Smallest prime with the mixed nonzero-sum margin in force.
        p = next_prime(d * d * (d + 1) * math.prod(primes))
    params = cons.ConstructionParams(eq=eq, q=cfg["q"], primes=primes, p=int(p))
    return cons.PinnedConfig(
        params,
        _threshold(cfg.get("core_threshold"), cons.default_core_threshold(params)),
        _threshold(cfg.get("extension_threshold"),
                   cons.default_extension_threshold(params)))


def _run_certify(cfg: dict) -> tuple[dict, int, dict]:
    from . import constructions as cons
    if cfg.get("golden"):
        if extra := sorted(cfg.keys() & _LIFT_FIELDS):
            raise CliError(f"certify-lift with golden=true takes none of the fields {extra}")
        pinned = cons.golden_config()
    else:
        for key in _LIFT_REQUIRED:
            if key not in cfg:
                raise CliError(
                    f"certify-lift needs either golden=true or the field {key!r}")
        pinned = _pinned_config(cfg)
    e0, f0, lift = pinned.build()
    bundle = cons.certify_lift(
        pinned.params, e0, f0, lift,
        pinned.core_threshold, pinned.extension_threshold)
    params = pinned.params
    out = {"equation": str(params.eq), "q": params.q, "primes": list(params.primes),
           "m": params.m, "p": params.p,
           "core_threshold": str(pinned.core_threshold),
           "extension_threshold": str(pinned.extension_threshold),
           "interval": list(lift.interval), **bundle.to_report()}
    seconds = {r.name: round(r.elapsed, 6) for r in bundle.records}
    return out, 0 if bundle.all_passed else 2, {"certificates_s": seconds}


def _bohr_input_set(cfg: dict, p: int):
    import numpy as np

    from .groups import ElementSet, make_group
    spec = cfg["set"]
    group = make_group([p])
    if "rle" in spec:
        eset = ElementSet.load(spec["rle"])
        if eset.group.order != p:
            raise CliError(
                f"set file is over {eset.group.literal}, expected Z({p})")
        return eset
    if "indices" in spec:
        return ElementSet.from_indices(group, [i % p for i in spec["indices"]])
    density = spec["random_density"]
    if not 0 < density <= 1:
        raise CliError("random_density must lie in (0, 1]")
    rng = np.random.default_rng(cfg.get("seed", 0))
    size = max(1, int(round(density * p)))
    picks = rng.choice(p, size=size, replace=False)
    return ElementSet.from_indices(group, picks)


def _run_bohr(cfg: dict) -> tuple[dict, int, dict]:
    from .bohr import SpectrumParams, bohr_color
    from .equations import Equation, prime_field_order
    from .groups import make_group
    p = cfg["p"]
    prime_field_order(make_group([p]))      # refuses p before the input set is built
    eq = Equation.parse(cfg["equation"])
    a_set = _bohr_input_set(cfg, p)
    params = SpectrumParams(**{k: cfg[k] for k in ("nu", "rho", "s_index") if k in cfg})
    colors, report = bohr_color(a_set, eq, params)
    out = {"set_size": a_set.count, **report.to_report()}
    if "colors_out" in cfg:
        path = _cache_path(cfg["colors_out"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("vertex,color\n")
            for v, c in enumerate(colors.tolist()):
                fh.write(f"{v},{c}\n")
        out["colors_out"] = path
    return out, 0 if report.proper else 2, {}


def _run_indep(cfg: dict) -> tuple[dict, int, dict]:
    from . import config, kneser
    from .exact import Surd
    p, n = cfg["p"], cfg["n"]
    cap = config.WEIGHT_ENUM_CAP
    # for p >= 2, p**n exceeds the cap exactly when p**min(n, bits of cap) does
    if "csv" in cfg and p >= 2 and p ** min(n, cap.bit_length()) > cap:
        raise CliError(f"csv needs the members, which are enumerated only up to "
                       f"{cap} group elements; Z({p})^{n} is larger")
    radius_sq = cfg.get("radius_sq")
    radius = None if radius_sq is None else Surd.sqrt(1, radius_sq)
    res = kneser.independent_set(p, n, radius)
    out = {
        "p": res.p,
        "n": res.n,
        "radius": str(res.radius),
        "threshold": str(res.threshold),
        "degenerate": res.degenerate,
        "count": res.count,
        "density": res.density,
    }
    if "csv" in cfg and res.member_indices is not None:
        path = _cache_path(cfg["csv"])
        coords = res.members_coords()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x{i}" for i in range(n)) + "\n")
            for row in coords.tolist():
                fh.write(",".join(str(v) for v in row) + "\n")
        out["csv"] = path
    return out, 0, {}


# command -> (handler, the config fields it accepts)
_COMMANDS: dict[str, tuple] = {
    "classify": (_run_classify, _Object({"equation": "string"}, ("equation",))),
    "kneser": (_run_kneser, _Object(
        {"n": "integer", "k": "integer", "m": "integer",
         "action": frozenset({"count", "chi-bound", "chi"}), "budget": "string"},
        ("n", "k", "m", "action"))),
    "cayley": (_run_cayley, _Object(
        {"group": "string", "connection": _ListOf(("integer", _ListOf("integer"))),
         "action": frozenset({"chi", "alpha", "greedy", "export"}),
         "budget": "string", "dimacs": "string", "cnf": "string", "cnf_colors": "integer"},
        ("group", "connection", "action"))),
    "bohr-color": (_run_bohr, _Object(
        {"p": "integer", "equation": "string",
         "set": _Object({"rle": "string", "indices": _ListOf("integer"),
                         "random_density": "number"}, exactly_one=True),
         "nu": "number", "rho": "number", "s_index": ("integer", "null"),
         "seed": "integer", "colors_out": "string"},
        ("p", "equation", "set"))),
    "indep-set": (_run_indep, _Object(
        {"p": "integer", "n": "integer", "radius_sq": ("integer", "null"), "csv": "string"},
        ("p", "n"))),
    "certify-lift": (_run_certify, _Object({"golden": "boolean", **_LIFT_FIELDS})),
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse exits 2: chroma keeps 2 for
    findings.  Subparsers inherit the class through `add_subparsers`."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chroma",
        description="Solution-free sets, Cayley/Kneser graphs, and their "
                    "chromatic certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", required=True,
                         help="JSON config file (field-checked)")
        cmd.add_argument("--out", default=None,
                         help="write the JSON report here instead of stdout")
    return parser


def run(command: str, cfg: dict) -> tuple[dict, int]:
    """Execute one pipeline; returns (full report, exit code)."""
    t0 = time.perf_counter()
    results, code, stages = _COMMANDS[command][0](cfg)
    elapsed = time.perf_counter() - t0
    report = {
        "command": command,
        "config": cfg,
        "results": results,
        "timing": {**stages, "total_s": round(elapsed, 6)},
    }
    return report, code


def _jsonify(obj):
    """Let numpy scalars pass through json.dumps."""
    import numpy as np
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        report, code = run(args.command, cfg)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2, sort_keys=True, default=_jsonify)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
