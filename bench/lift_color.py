"""lift-color: `constructions`, `equations` and `bohr` over large prime fields.

No graph search runs here.  The mix builds and certifies the golden lift,
colors Cay(F_p, A) for its lifted set through the Bohr route (p = 374,531;
the per-vertex loop dominates the pass), counts solutions by the DFT at
p = 1,000,003 for k = 3 and k = 4, tests a k = 4 set of 1999 elements for
solution-freeness (the meet-in-the-middle path), and compares the DFT count
with the brute-force count at a small prime.  The seed draws the three
random sets; their sizes are fixed, so the work per pass does not depend on
the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks
from tracing import Op, Tracer

from chroma import ElementSet, Equation, make_group
from chroma.bohr import SpectrumParams, bohr_color, large_spectrum
from chroma.constructions import certify_lift, golden_config
from chroma.equations import (count_solutions_brute_all, count_solutions_dft_all,
                              is_solution_free)

IMPORTS = "chroma"
PEAK_RSS = "self"

P_COUNT = 1_000_003         # DFT counting field; counts pass 2^53 at k = 4
P_SMALL = 4001              # brute force stays cheap, counts stay below 2^53
DENSITY = 0.5
SF_SIZE = 1999              # |A|^2 <= 4e6 selects the meet-in-the-middle path
SF_EQUATION = (1, 1, 1, 1)
COUNT_EQUATIONS = {3: (1, 1, -1), 4: (1, 1, -1, -1)}
NU, RHO = 0.1, 0.05

KNOWN_DFT_DEFECT = ("count_solutions_dft_all rounds a float64 inverse FFT; once counts "
                    "pass 2^53 its integers are wrong (ROADMAP open item 2)")


def generate(seed: int, root) -> dict:
    rng = np.random.default_rng(seed)
    with open(os.path.join(root, "bench", "snapshots", "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["report"]["results"]
    # Every element lies in [1, (p-1)/4], so x1+x2+x3+x4 lies in [4, p-1] and
    # is never 0 mod p: the set is solution-free by construction.
    low = rng.choice(np.arange(1, (P_COUNT - 1) // 4 + 1), SF_SIZE, replace=False)
    return {
        "dense": np.sort(rng.choice(P_COUNT, round(DENSITY * P_COUNT), replace=False)),
        "small": np.sort(rng.choice(P_SMALL, round(DENSITY * P_SMALL), replace=False)),
        "low": np.sort(low),
        "golden": golden,
    }


def _set(tr: Tracer, p: int, indices) -> ElementSet:
    with tr.span("groups.set_build"):
        s = ElementSet.from_indices(make_group([p]), indices)
    tr.count("groups.bitmap_bytes", p)
    return s


def make_ops(inputs: dict, index: int) -> list[Op]:
    state: dict = {}
    golden = inputs["golden"]

    def build_run(tr):
        with tr.span("constructions.build"):
            pinned = golden_config()
            state["golden"] = (pinned, *pinned.build())
        return state["golden"]

    def build_check(out, tr):
        pinned, e0, f0, lift = out
        got = {"core_m": e0.count, "extension_m": f0.count, "core_lifted": lift.core.count,
               "extension_lifted": lift.extension.count, "full_lifted": lift.full.count}
        if got != golden["counts"] or list(lift.interval) != golden["interval"]:
            return f"lift sizes {got} or window {lift.interval} differ from the snapshot"
        return None

    def certify_run(tr):
        pinned, e0, f0, lift = state["golden"]
        with tr.span("constructions.certify"):
            return certify_lift(pinned.params, e0, f0, lift,
                                pinned.core_threshold, pinned.extension_threshold)

    def certify_check(bundle, tr):
        tr.count("constructions.certificates_failed",
                 sum(not r.passed for r in bundle.records))
        got = checks.without_timing(bundle.to_report())
        want = {k: golden[k] for k in got}
        return None if got == want else "certificate bundle differs from the snapshot"

    def spectrum_run(tr):
        lift = state["golden"][3]
        with tr.span("bohr.spectrum"):
            return large_spectrum(lift.full, NU)

    def spectrum_check(freqs, tr):
        mask = state["golden"][3].full.mask()
        mags = np.abs(np.fft.fft(mask.astype(np.float64))) / mask.size
        sure = set(np.flatnonzero(mags >= NU * (1 + 1e-9)).tolist())
        maybe = set(np.flatnonzero(mags >= NU * (1 - 1e-9)).tolist())
        if not sure <= set(freqs.tolist()) <= maybe:
            return "large spectrum differs from |FFT(1_A)|/p >= nu"
        return None

    def color_run(tr):
        pinned, _, _, lift = state["golden"]
        with tr.span("bohr.color"):
            colors, report = bohr_color(lift.full, pinned.params.eq,
                                        SpectrumParams(nu=NU, rho=RHO, s_index=0))
        tr.count("bohr.vertices", report.p)
        tr.count("bohr.cells", report.cells)
        tr.count("bohr.colors_used", report.colors_used)
        return colors, report

    def color_check(out, tr):
        colors, report = out
        lift = state.pop("golden")[3]
        sym = checks.symmetric_closure((report.p,), lift.full.indices())
        used = len(np.unique(colors))
        if used != report.colors_used:
            return f"report says {report.colors_used} colors, coloring uses {used}"
        if not report.proper:
            return "report says the coloring is improper"
        return checks.cayley_proper(colors, (report.p,), sym)

    def dft_op(k: int) -> Op:
        eq = Equation(COUNT_EQUATIONS[k])

        def run(tr):
            if "dense" not in state:
                state["dense"] = _set(tr, P_COUNT, inputs["dense"])
            with tr.span("equations.count_dft"):
                return count_solutions_dft_all(eq, state["dense"])

        def check(table, tr):
            bad = checks.count_table(table, inputs["dense"].size, k)
            if bad:
                tr.count("equations.count_dft_failed")
            return bad

        return Op(f"count-dft-k{k}-p{P_COUNT}", run, check,
                  KNOWN_DFT_DEFECT if k == 4 else None)

    def solution_free_run(tr):
        a = _set(tr, P_COUNT, inputs["low"])
        with tr.span("equations.solution_free"):
            return is_solution_free(Equation(SF_EQUATION), a)

    def solution_free_check(res, tr):
        return None if res.free and res.witness is None else f"reported witness {res.witness}"

    def small_op(k: int) -> Op:
        eq = Equation(COUNT_EQUATIONS[k])

        def run(tr):
            b = _set(tr, P_SMALL, inputs["small"])
            with tr.span("equations.count_brute"):
                brute = count_solutions_brute_all(eq, b)
            with tr.span("equations.count_dft"):
                dft = count_solutions_dft_all(eq, b)
            return brute, dft

        def check(out, tr):
            brute, dft = out
            bad = checks.count_table(brute, inputs["small"].size, k)
            if bad:
                return f"brute force: {bad}"
            if not np.array_equal(brute, dft):
                tr.count("equations.count_dft_failed")
                return f"DFT count differs from brute force at {int(np.sum(brute != dft))} targets"
            return None

        return Op(f"count-dft-vs-brute-k{k}-p{P_SMALL}", run, check)

    return [
        Op("golden-build", build_run, build_check),
        Op("golden-certify", certify_run, certify_check),
        Op("golden-spectrum", spectrum_run, spectrum_check),
        Op("golden-bohr-color", color_run, color_check),
        dft_op(3),
        dft_op(4),
        Op(f"solution-free-k4-n{SF_SIZE}", solution_free_run, solution_free_check),
        small_op(3),
        small_op(4),
    ]


def extras(passes) -> dict:
    return {}
