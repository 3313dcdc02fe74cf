"""cli-configs: each shipped config through a fresh `python -m chroma.cli` process.

This is the per-experiment cost a CLI user pays.  The interpreter and the
import take most of each invocation, and every layer sees tiny inputs, so
fixed overhead that a change adds shows up here while large-input gains do
not.  A round runs the five configs once each, in sequence, in an order
drawn from the seed.

Each report, minus its `timing` block and `elapsed_s` fields, must equal the
snapshot under `bench/snapshots/`, and so must the exit code.  Both
certify-lift configs exit 2 on `induced-subgraph-match` by design, so 2 is
their expected code.  Run this file to rewrite the snapshots from the
current program:

    python3 bench/cli_configs.py
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import checks
from environment import TIMEOUT_S, child_env, import_seconds
from tracing import Op, Tracer

IMPORTS = "chroma.cli"
PEAK_RSS = "children"

# (config file stem, CLI command)
CONFIGS = (
    ("classify_schur", "classify"),
    ("cycle_bohr", "bohr-color"),
    ("golden", "certify-lift"),
    ("petersen_chi", "kneser"),
    ("transfer", "certify-lift"),
)
ORDERS = 256                # distinct round orders drawn per seed
PROBES = 3                  # interpreter and import samples per traced round


def _snapshot_path(root, stem: str) -> str:
    return os.path.join(root, "bench", "snapshots", f"{stem}.json")


def _invoke(root, stem: str, command: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "chroma.cli", command,
         "--config", os.path.join(root, "configs", f"{stem}.json")],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=TIMEOUT_S)


def generate(seed: int, root) -> dict:
    rng = random.Random(seed)
    snapshots = {}
    for stem, _ in CONFIGS:
        with open(_snapshot_path(root, stem), encoding="utf-8") as fh:
            snapshots[stem] = json.load(fh)
    orders = [rng.sample(range(len(CONFIGS)), len(CONFIGS)) for _ in range(ORDERS)]
    return {"root": root, "snapshots": snapshots, "orders": orders}


def make_ops(inputs: dict, index: int) -> list[Op]:
    root = inputs["root"]

    def op(stem: str, command: str) -> Op:
        snap = inputs["snapshots"][stem]

        def run(tr):
            with tr.span("cli.invocation"):
                return _invoke(root, stem, command)

        def check(proc, tr):
            if proc.returncode != snap["exit_code"]:
                return (f"exit code {proc.returncode}, expected {snap['exit_code']}: "
                        f"{proc.stderr[-300:]}")
            report = json.loads(proc.stdout)
            tr.count("cli.handler_s", report["timing"]["total_s"])
            if checks.without_timing(report) != snap["report"]:
                return "report differs from the snapshot"
            return None

        return Op(stem, run, check)

    order = inputs["orders"][index % len(inputs["orders"])]
    return [op(*CONFIGS[i]) for i in order]


def layer_probes(inputs: dict, tr: Tracer) -> None:
    """Interpreter start-up alone, and the import of `chroma.cli` in a fresh process."""
    root = inputs["root"]
    bare, imports = [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=child_env(root),
                       check=True, timeout=TIMEOUT_S)
        bare.append(time.perf_counter() - t0)
        imports.append(import_seconds(root, IMPORTS))
    tr.count("cli.interpreter_s", statistics.median(bare))
    tr.count("cli.import_s", statistics.median(imports))


def extras(passes) -> dict:
    """Wall time per invocation over every config, with the sample count."""
    samples = [dt for p in passes for _, dt in p.op_times]
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    return {
        "invocation_p50_s": (statistics.median(samples), "s"),
        "invocation_p90_s": (p90, "s"),
        "invocation_samples": (len(samples), "count"),
    }


def write_snapshots(root) -> None:
    for stem, command in CONFIGS:
        proc = _invoke(root, stem, command)
        snap = {"command": command, "exit_code": proc.returncode,
                "report": checks.without_timing(json.loads(proc.stdout))}
        with open(_snapshot_path(root, stem), "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{stem}: exit {proc.returncode}")


if __name__ == "__main__":
    write_snapshots(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
