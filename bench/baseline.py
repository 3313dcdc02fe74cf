#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --seeds 10 --traced 2 --out bench/BENCH_1.json

Each workload of `BENCHMARK.json` runs once per seed with tracing off and
then `--traced` times with tracing on, each run in its own process with the
run length `BENCHMARK.json` fixes.  For every end-to-end metric the summary
gives the median, the quartiles (`statistics.quantiles(values, n=4)`) and
their distance as a share of the median, next to the metric's bound.
Per-layer metrics and the workload-specific extras are given as medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return result, json.load(fh)


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {"env": None, "run_seconds": spec["run_seconds"],
               "seeds": list(seeds), "workloads": {}}

    for workload in workloads:
        runs = []
        for seed in seeds:
            result, detail = run_once(spec, workload, seed, 0)
            runs.append((result, detail))
            summary["env"] = summary["env"] or detail["env"]     # as the runs saw it
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']} correct={result['correct']}",
                flush=True)
        traced = [run_once(spec, workload, seed, 1) for seed in list(seeds)[:args.traced]]
        e2e = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r, _ in runs],
                                    m["bound"])
               for m in spec["end_to_end"]}
        extras = {name: statistics.median(d["extras"][name] for _, d in runs)
                  for name in runs[0][1]["extras"]}
        layers = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r, _ in traced)
                  for m in spec["per_layer"]} if traced else {}
        summary["workloads"][workload] = {
            "end_to_end": e2e, "extras": extras, "per_layer": layers,
            "attempted": sum(r["attempted"] for r, _ in runs + traced),
            "failed": sum(r["failed"] for r, _ in runs + traced),
            "correct": all(r["correct"] for r, _ in runs + traced),
        }
        for name, s in e2e.items():
            steady = name == "setup_s" or s["spread"] < s["bound"] / 3
            flag = "" if steady else "  <-- above bound/3"
            print(f"{workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"bound {s['bound']}{flag}", flush=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
