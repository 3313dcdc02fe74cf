"""
Dense solution-free sets: norms, core, extension, and the prime-field lift
==========================================================================

The pipeline builds a set with no distinct-entry solution of a fixed
equation: tent-shaped coordinate norms on Z_m = Z_{p1} x ... x Z_{pn} cut a
core E0 (large norm) and an extension F0 (small norm, two slopes), both are
carried into F_p — E0 by residue, F0 through a window of multiples — and
four certificates check the claimed structure after the fact.
"""

from chroma.constructions import (
    certify_lift,
    golden_config,
    norm,
    transfer_config,
)

# -- the norm: a sum of tents, one per prime coordinate ---------------------

params = transfer_config().params      # q = 5, primes (11, 13)
for y in (0, 3, 68, 100):
    print(f"|{y:3d}|_1 = {norm(params, y, 1)}")
print("peak value is n =", params.n, "at the simultaneous tent tops")

# -- a small pinned pipeline (m = 143, p = 431) -----------------------------

cfg = transfer_config()
e0, f0, lift = cfg.build()
print("\nsmall pin: m =", cfg.params.m, " p =", cfg.params.p)
print("core E0      =", e0.indices().tolist(), " (norm >=", cfg.core_threshold, ")")
print("extension F0 =", f0.indices().tolist())
print("lift window  =", lift.interval, " lifted A =", lift.full.indices().tolist())

bundle = certify_lift(cfg.params, e0, f0, lift,
                      cfg.core_threshold, cfg.extension_threshold)
print("\ncertificates at the small pin:")
for rec in bundle.records:
    mark = "pass" if rec.passed else "FAIL"
    print(f"  [{mark}] {rec.name}" +
          ("" if rec.passed else f"  witness={rec.witness}"))

# The window-subgraph check fails by structure, not by accident: differences
# can wrap around mod m but never mod p (p > 2m), so the mod-m graph always
# carries extra edges unless the core is closed under negation — and a
# thresholded core in its solution-free regime never is.  The three
# substance certificates (solution-freeness, extension containment, no
# mixed solutions) all pass.

# -- the full-size reproduction pin -----------------------------------------

cfg = golden_config()
e0, f0, lift = cfg.build()
print("\nreproduction pin: m =", cfg.params.m, " p =", cfg.params.p)
print("|E0| =", e0.count, " |F0| =", f0.count,
      " |A| =", lift.full.count, " window =", lift.interval)
print("density of A in F_p: %.2e" % (lift.full.count / cfg.params.p))
