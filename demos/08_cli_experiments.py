"""
Driving the toolkit from the command line
=========================================

Every capability is also reachable through the `chroma` command: each
subcommand reads a small JSON config, checks it against the command's field
table, and prints a JSON report.  Exit code 0 means the run completed and any claims
checked out; exit code 2 means the run completed but a certificate or claim
failed (the report carries the witness); exit code 1 is an input error.

This demo calls the CLI in-process on the configs shipped under configs/.
"""

import json
import os
import tempfile

from chroma.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def run(command: str, config_name: str) -> dict:
    """Invoke one subcommand, print a digest, return the parsed report."""
    cfg = os.path.join(CONFIGS, config_name)
    with tempfile.NamedTemporaryFile("r", suffix=".json", delete=False) as fh:
        out_path = fh.name
    try:
        code = main([command, "--config", cfg, "--out", out_path])
        with open(out_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    finally:
        os.unlink(out_path)
    print(f"chroma {command} --config configs/{config_name}  -> exit {code}")
    return report


# -- classify: where does x + y = z sit? ------------------------------------

rep = run("classify", "classify_schur.json")
res = rep["results"]
print(f"  {res['equation']}: roth={res['roth']} chi_vanishing={res['chi_vanishing']} "
      f"rt={res['rt']} witness={res['witness_subset']}")

# -- kneser: exact chromatic number of the Petersen graph -------------------

rep = run("kneser", "petersen_chi.json")
res = rep["results"]
print(f"  KN({res['n']},{res['k']},{res['m']}): {res['vertices']} vertices, "
      f"chi = {res['chi']} (exact={res['chi_exact']})")

# -- bohr-color: partition coloring of a 4-variable cycle graph -------------

rep = run("bohr-color", "cycle_bohr.json")
res = rep["results"]
print(f"  Cay(F_{res['p']}): colors_used={res['colors_used']} "
      f"cells={res['cells']} proper={res['proper']} "
      f"within_budget={res['within_budget']}")

# -- certify-lift: a pinned transfer run whose certificate fails ------------

# The small pinned instance below lifts a solution-free core from Z_143 into
# F_431 and then checks four certificates.  Three pass; the window-induced
# subgraph comparison fails by construction (the difference sets wrap
# differently mod m and mod p), so the CLI reports the witness pair and
# exits 2.  That non-zero exit is the finding, not a crash.

rep = run("certify-lift", "transfer.json")
certs = rep["results"]["certificates"]
for cert in certs:
    mark = "pass" if cert["passed"] else "FAIL"
    print(f"  [{mark}] {cert['name']}")
for cert in certs:
    if not cert["passed"]:
        print(f"  witness for {cert['name']}: {cert['witness']}")

# configs/golden.json drives the same subcommand at full production scale
# (p = 374,531); it is exercised by the test suite rather than here.

print("done.")
