#!/usr/bin/env python3
"""Run one chroma benchmark workload and print its metrics.

    python3 bench/run.py --workload graph-search --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; chroma is imported from the checkout's
`src/`, never from an installed copy.  The workloads, the metrics and the
layer each per-layer metric belongs to are listed in `BENCHMARK.json` and
explained in `bench/README.md`.

A run first sets up `SETUP_REPEATS` times (a fresh-process import of chroma
plus generating the inputs from the seed) and reports the median as
`setup_s`.  It then runs passes over the workload's operations, closed loop
and one at a time, until `--seconds` would be exceeded; there is always at
least one pass.  Only the calls into chroma are timed; each output is then
checked outside the timed section.  With `--trace 1`, traced passes
alternate with untraced ones, so the tracing overhead is measured in the
same run.

Standard output ends with one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
metrics of `BENCHMARK.json`, with `--trace 1` its per-layer metrics.  The
lines before it give the environment, every metric with its unit
(workload-specific ones too), and each failed check.  The same figures,
plus all spans of a traced run, are written to
`.bench_out/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import environment
from tracing import Op, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = {"cli-configs": "cli_configs", "graph-search": "graph_search",
             "lift-color": "lift_color"}
SETUP_REPEATS = 9


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class PassRecord:
    traced: bool
    tracer: Tracer
    wall: float = 0.0                                    # timed sections only
    op_times: list[tuple[str, float]] = field(default_factory=list)
    failures: list[tuple[str, str, str | None]] = field(default_factory=list)

    def add(self, op: Op, seconds: float, problem: str | None, known: str | None) -> None:
        self.wall += seconds
        self.op_times.append((op.name, seconds))
        if problem is not None:
            self.failures.append((op.name, problem, known))


def load_workload(name: str):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chroma", "__init__.py")):
        raise SetupError(f"no chroma package under {src}")
    sys.path.insert(0, src)
    module = importlib.import_module(WORKLOADS[name])
    chroma = sys.modules.get("chroma")
    where = chroma and os.path.dirname(os.path.abspath(chroma.__file__))
    if chroma is not None and where != os.path.join(src, "chroma"):
        raise SetupError(f"chroma was imported from {where}, not from {src}")
    return module


def measure_setup(workload, seed: int):
    samples = []
    for _ in range(SETUP_REPEATS):
        import_s = environment.import_seconds(ROOT, workload.IMPORTS)
        t0 = time.perf_counter()
        inputs = workload.generate(seed, ROOT)
        samples.append(import_s + time.perf_counter() - t0)
    return statistics.median(samples), inputs


def run_pass(workload, inputs, index: int, traced: bool) -> PassRecord:
    tr = Tracer(traced)
    rec = PassRecord(traced, tr)
    gc.collect()
    for op in workload.make_ops(inputs, index):
        t0 = time.perf_counter()
        try:
            with tr.op(op.name):
                out = op.run(tr)
        except Exception:
            rec.add(op, time.perf_counter() - t0, "raised " + traceback.format_exc(), None)
            continue
        seconds = time.perf_counter() - t0
        try:
            problem = op.check(out, tr)
        except Exception:
            problem = "check raised " + traceback.format_exc()
        rec.add(op, seconds, problem, op.known_defect)
        del out
    return rec


def measure(workload, inputs, seconds: float, trace: bool) -> list[PassRecord]:
    passes: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        rec = run_pass(workload, inputs, len(passes), traced)
        if traced and hasattr(workload, "layer_probes"):
            workload.layer_probes(inputs, rec.tracer)
        passes.append(rec)
        last = time.perf_counter() - t0
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + last > seconds:
            return passes


def layer_metrics(tr: Tracer) -> dict[str, float]:
    c, d = tr.counts, tr.durations

    def rate(amount, secs):
        return amount / secs if secs > 0 else 0.0

    out = {f"{layer}.self_s": s for layer, s in tr.self_times().items()}
    out.update({
        "groups.set_build_s": d("groups.set_build"),
        "groups.bitmap_bytes": c["groups.bitmap_bytes"],
        "equations.count_dft_s": d("equations.count_dft"),
        "equations.count_dft_failed": c["equations.count_dft_failed"],
        "equations.count_brute_s": d("equations.count_brute"),
        "equations.solution_free_s": d("equations.solution_free"),
        "cayley.to_graph_s": d("cayley.to_graph"),
        "cayley.greedy_s": d("cayley.greedy"),
        "cayley.chi_nodes": c["cayley.chi_nodes"],
        "cayley.chi_nodes_per_s": rate(c["cayley.chi_nodes"], d("cayley.chi")),
        "cayley.alpha_nodes": c["cayley.alpha_nodes"],
        "cayley.alpha_nodes_per_s": rate(c["cayley.alpha_nodes"], d("cayley.alpha")),
        "cayley.exact_ratio": rate(c["cayley.exact_solved"], c["cayley.exact_calls"]),
        "cayley.budget_overrun_s": c["cayley.budget_overrun_s"],
        "kneser.build_s": d("kneser.build"),
        "kneser.pairs_per_s": rate(c["kneser.pairs"], d("kneser.build")),
        "graphio.write_s": d("graphio.write"),
        "graphio.read_s": d("graphio.read"),
        "graphio.bytes": c["graphio.bytes"],
        "constructions.build_s": d("constructions.build"),
        "constructions.certify_s": d("constructions.certify"),
        "constructions.certificates_failed": c["constructions.certificates_failed"],
        "bohr.spectrum_s": d("bohr.spectrum"),
        "bohr.color_s": d("bohr.color"),
        "bohr.vertices_per_s": rate(c["bohr.vertices"], d("bohr.color")),
        "bohr.cells": c["bohr.cells"],
        "bohr.colors_used": c["bohr.colors_used"],
        "cli.interpreter_s": c["cli.interpreter_s"],
        "cli.import_s": c["cli.import_s"],
        "cli.handler_s": c["cli.handler_s"],
    })
    return out


def peak_rss_mb(who: str) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if who == "children"
                               else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024          # Linux reports kilobytes


def _spec_metrics(spec: list[dict], values: dict) -> dict:
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(f"measured metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    environment.pin_threads()           # before any workload imports numpy
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        workload = load_workload(args.workload)
    except (OSError, ImportError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment.record(ROOT)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    setup_s, inputs = measure_setup(workload, args.seed)
    passes = measure(workload, inputs, args.seconds, bool(args.trace))
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.op_times) for p in passes)
    failures = [f for p in passes for f in p.failures]

    end_to_end = {"wall_s": statistics.median(p.wall for p in untraced),
                  "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb(workload.PEAK_RSS)}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    extras = dict(workload.extras(untraced))
    extras["failed_ops_frac"] = (len(failures) / attempted, "frac")
    per_layer = {}
    if traced:
        rows = [layer_metrics(p.tracer) for p in traced]
        per_layer = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        per_layer["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                            / end_to_end["wall_s"] - 1)

    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} attempted={attempted} failed={len(failures)}")
    for name, value in end_to_end.items():
        print(f"metric {name} {value:.6f} {units[name]}")
    for name, (value, unit) in extras.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, value in per_layer.items():
        print(f"layer {name} {value:.6g} {units.get(name, '')}")
    for op, problem, known in failures:
        label = f"known defect ({known})" if known else "FAILED"
        print(f"check {op}: {label}: {problem.strip()}")

    result_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env, "args": vars(args), "end_to_end": end_to_end,
            "extras": {k: v[0] for k, v in extras.items()}, "per_layer": per_layer,
            "passes": [{"traced": p.traced, "wall_s": p.wall, "op_times": p.op_times,
                        "counts": dict(p.tracer.counts), "spans": p.tracer.spans}
                       for p in passes],
            "failures": failures,
        }, fh, indent=1)

    values = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": all(known for _, _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": _spec_metrics(spec["per_layer" if args.trace else "end_to_end"], values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
