"""Dense solution-free sets in Z_m and their lift to a prime field.

Pipeline: pick a prime q and distinct primes p_1..p_n with product m; a
slope-j coordinate norm on Z_m reads the residues y mod p_i and measures how
close each one sits to the balanced point p_i * j/q.  A core set E0 collects
the elements of near-maximal norm, an extension set F0 collects elements
whose scaled norms are small on both signs, and both lift along the standard
representative map into F_p for a large prime p, giving A = E u F.  Exact
certificates (solution-freeness, induced-subgraph equality, the extension
property, absence of mixed solutions) are checked by direct scans.

All membership thresholds are exact: quantities of the form a + b*sqrt(n)
are compared through integer arithmetic (see exact.Surd), never floats.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .equations import Equation, _conv_count_table, classify, is_solution_free
from .exact import Surd
from .groups import ElementSet, GroupSpec, make_group, materialized_order
from .primes import check_distinct_primes, is_prime

__all__ = [
    "ConstructionParams",
    "GaussParams",
    "LiftResult",
    "CertificateRecord",
    "CertificateBundle",
    "normalize_equation",
    "norm",
    "norm_numerators",
    "default_core_threshold",
    "default_extension_threshold",
    "build_core_set",
    "core_norm_bound",
    "build_extension_set",
    "extension_gap_check",
    "scale_conditions",
    "std_normal_cdf",
    "gauss_alpha",
    "lift_to_prime_field",
    "certify_lift",
    "golden_config",
    "transfer_config",
]

# ---------------------------------------------------------------------------
# Equation normalization and construction parameters
# ---------------------------------------------------------------------------


def normalize_equation(eq: Equation) -> Equation:
    """Move a cancelling coefficient pair to the front; make the sum positive.

    Requires some pair c_i + c_j = 0 (the construction has nothing to offer
    otherwise) and a nonzero coefficient sum.
    """
    cs = eq.coeffs
    k = len(cs)
    pair = None
    for i in range(k):
        for j in range(i + 1, k):
            if cs[i] + cs[j] == 0:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise ValueError(
            "no coefficient pair sums to zero; this construction requires one"
        )
    total = sum(cs)
    if total == 0:
        raise ValueError(
            "coefficient sum is zero; the whole equation is a zero-sum "
            "subcollection and this construction does not apply"
        )
    sign = 1 if total > 0 else -1
    order = [*pair, *(i for i in range(k) if i not in pair)]
    return Equation(tuple(sign * cs[i] for i in order))


@dataclass(frozen=True)
class ConstructionParams:
    """Normalized equation plus the primes (q; p_1..p_n; p) of the pipeline.

    Validations, in order: c1 + c2 = 0 with coefficient sum >= 1; q larger
    than the absolute coefficient sum; q prime; the p_i distinct primes, each
    above q*n; m*q^2 < 2^62, so norm numerators are exact in int64; the lift
    prime p prime and above (sum of |c_i|) * m.

    The slope-j coordinate norm on Z_m = Z_{p_1} x ... x Z_{p_n} has, at
    prime p_i, the term
        min( q*r/(j*p_i), q*(p_i - r)/((q-j)*p_i) ),   r = y mod p_i,
    a tent over [0, p_i] peaking at r = p_i*j/q with value 1; the norm of y
    is the sum of the n coordinate terms, so it lies in [0, n].
    """

    eq: Equation
    q: int
    primes: tuple[int, ...]
    p: int

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        cs, c, d = self.eq.coeffs, self.eq.coeff_sum, self.eq.abs_coeff_sum
        if cs[0] + cs[1] != 0:
            raise ValueError("expected a normalized equation with c1 + c2 = 0")
        if c < 1:
            raise ValueError("expected a normalized equation with sum(c) >= 1")
        if not self.q > d > c >= 1:
            raise ValueError(f"need q > sum|c_i| > sum c_i >= 1, got {self.q}, {d}, {c}")
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} must be prime")
        check_distinct_primes(self.primes)
        for p in self.primes:
            if p <= self.q * self.n:
                raise ValueError(f"prime {p} must exceed q*n = {self.q * self.n}")
        if self.m * self.q * self.q >= 1 << 62:
            raise ValueError("m*q^2 too large for exact int64 norm numerators")
        if not is_prime(self.p):
            raise ValueError(f"lift prime p = {self.p} is not prime")
        if self.p <= d * self.m:
            raise ValueError(f"lift prime {self.p} must exceed sum|c_i|*m = {d * self.m}")

    @property
    def n(self) -> int:
        return len(self.primes)

    @property
    def m(self) -> int:
        return math.prod(self.primes)

    @property
    def group_m(self) -> GroupSpec:
        return make_group([self.m])

    @property
    def group_p(self) -> GroupSpec:
        return make_group([self.p])

    def denominator(self, j: int) -> int:
        """j*(q-j)*m, the common denominator of the slope-j norms."""
        j = self._slope(j)
        return j * (self.q - j) * self.m

    def _slope(self, j: int) -> int:
        if not 1 <= j <= self.q - 1:
            raise ValueError(f"slope index {j} outside [1, {self.q - 1}]")
        return int(j)


# ---------------------------------------------------------------------------
# Coordinate norms on Z_m
# ---------------------------------------------------------------------------


def norm_numerators(params: ConstructionParams, ys: np.ndarray, j: int) -> np.ndarray:
    """Integer numerators of the slope-j norms over params.denominator(j)."""
    j = params._slope(j)
    q, m = params.q, params.m
    ys = np.asarray(ys, dtype=np.int64) % m
    total = np.zeros(ys.shape, dtype=np.int64)
    for p_i in params.primes:
        r = ys % p_i
        rising = q * (q - j) * r
        falling = q * j * (p_i - r)
        total += (m // p_i) * np.minimum(rising, falling)
    return total


def norm(params: ConstructionParams, y: int, j: int) -> Fraction:
    """Exact slope-j norm of y in Z_m."""
    num = int(norm_numerators(params, np.array([y]), j)[0])
    return Fraction(num, params.denominator(j))


def default_core_threshold(params: ConstructionParams) -> Surd:
    """n - q*sqrt(n) - 1: the near-maximal-norm cutoff in its large-n form.

    The CLI fills an omitted core_threshold from it; library calls pass
    their threshold explicitly.  Negative at desk scale (it needs n > about
    q^2), in which case the core set degenerates to all of Z_m; choose an
    explicit threshold to stay in the informative regime.
    """
    n = params.n
    return Surd(Fraction(n - 1), Fraction(-params.q), n)


def default_extension_threshold(params: ConstructionParams) -> Surd:
    """n/2 - q^2*D*sqrt(n) with D the absolute coefficient sum."""
    n = params.n
    return Surd(Fraction(n, 2), Fraction(-params.q ** 2 * params.eq.abs_coeff_sum), n)


def build_core_set(params: ConstructionParams, threshold: Surd) -> ElementSet:
    """{y in Z_m : slope-1 norm of y >= threshold}; exact cutoff comparison."""
    m = materialized_order(params.group_m)
    nums = norm_numerators(params, np.arange(m, dtype=np.int64), 1)
    cutoff = threshold.scaled(params.denominator(1)).ceil()
    return ElementSet(params.group_m, nums >= cutoff)


def core_norm_bound(params: ConstructionParams, threshold: Surd) -> Surd:
    """Guaranteed lower bound on the slope-C norm of any combination.

    For x_1..x_k in the core set at the given threshold t, the norm of
    sum c_i x_i at slope C = sum(c) is at least n - (q-1)*D*(n - t); with the
    large-n t = n - q*sqrt(n) - 1 this is the familiar n - (q-1)*D*(q*sqrt(n)+1).
    Positive bound certifies the core set solution-free.
    """
    n, q, d = params.n, params.q, params.eq.abs_coeff_sum
    return n - (n - threshold).scaled((q - 1) * d)


def build_extension_set(params: ConstructionParams, threshold: Surd) -> ElementSet:
    """{y : slope-C norms of c1*y and -c1*y are both <= threshold}.

    A negative threshold is the degenerate small-n case: the result is empty.
    """
    m = materialized_order(params.group_m)
    c1 = params.eq.coeffs[0]
    big_c = params.eq.coeff_sum
    ys = np.arange(m, dtype=np.int64)
    pos = norm_numerators(params, (c1 * ys) % m, big_c)
    neg = norm_numerators(params, (-c1 * ys) % m, big_c)
    cutoff = threshold.scaled(params.denominator(big_c)).floor()
    return ElementSet(params.group_m, (pos <= cutoff) & (neg <= cutoff))


def extension_gap_check(params: ConstructionParams, core_threshold: Surd,
                        extension_threshold: Surd) -> bool:
    """True when 2*t_F < n - (q-1)*D*(n - t_E), certifying the extension.

    Differences of extension elements have slope-C norm at most 2*t_F while
    core combinations sit above the right side, so the two regions cannot
    meet when the gap holds.  Either threshold may be rational or a surd in
    sqrt(n); the comparison is exact in every mix of the two.
    """
    return extension_threshold.scaled(2) < core_norm_bound(params, core_threshold)


# ---------------------------------------------------------------------------
# Scale conditions: which of the asymptotic side inequalities hold
# ---------------------------------------------------------------------------


def scale_conditions(params: ConstructionParams, core_threshold: Surd,
                     extension_threshold: Surd) -> dict[str, bool]:
    """Named exact predicates behind each guarantee, evaluated at this scale.

    The construction's guarantees are asymptotic; at desk scale some of them
    fail and the certificates become empirical findings.  Each entry reports
    one inequality so a report can say precisely which regime the chosen
    parameters are in.
    """
    n, q, d, m, p = params.n, params.q, params.eq.abs_coeff_sum, params.m, params.p
    lo, hi = _interval(params)
    return {
        "q_exceeds_abs_coeff_sum": q > d,
        "primes_exceed_qn": all(pi > q * n for pi in params.primes),
        "lift_prime_exceeds_Dm": p > d * m,
        "core_threshold_positive": core_threshold.cmp(0) > 0,
        "core_norm_bound_positive": core_norm_bound(params, core_threshold).cmp(0) > 0,
        "extension_threshold_positive": extension_threshold.cmp(0) > 0,
        "extension_gap_holds": extension_gap_check(params, core_threshold,
                                                  extension_threshold),
        "lift_interval_nonempty": lo <= hi,
        "lift_ranges_disjoint": lo > m - 1,
        "mixed_nonzero_sum_blocked": p > d * d * (d + 1) * m,
        "no_large_zero_sum_subset": not classify(params.eq).chi_vanishing,
    }


# ---------------------------------------------------------------------------
# Gaussian rectangle constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussParams:
    """Inputs (r, c, C_cov) of the Gaussian corner-probability constant.

    c and C_cov bound the smallest/largest covariance eigenvalue per summand;
    r scales the corner offset r*sqrt(n).  C_cov is named to avoid clashing
    with the coefficient sum C used elsewhere.
    """

    r: float
    c: float
    C_cov: float

    def __post_init__(self):
        if not (self.c > 0 and self.C_cov >= self.c):
            raise ValueError("need 0 < c <= C_cov")
        if self.r < 1:
            raise ValueError("need r >= 1")


def std_normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function.

    erfc keeps the lower tail strictly positive down to x about -37, where
    plain erf would saturate and round Phi to zero near x = -8 already.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gauss_alpha(gp: GaussParams) -> float:
    """Closed-form lower bound for P(Z in the shifted lower-left quadrant).

    For a 2D Gaussian whose covariance eigenvalues lie in [c*n, C_cov*n],
    the probability of being below mean - r*sqrt(n) in both coordinates is
    at least (Phi(a) - Phi(2a)) * Phi(a*(1+2*rho0)/sqrt(1-rho0^2)) with
    a = -r/sqrt(c) and rho0 = sqrt(1 - (c/C_cov)^2) the worst-case
    correlation magnitude.  Always in (0, 1).
    """
    a = -gp.r / math.sqrt(gp.c)
    ratio = gp.c / gp.C_cov
    rho0 = math.sqrt(max(0.0, 1.0 - ratio * ratio))
    # sqrt(1 - rho0^2) equals c/C_cov exactly; avoid the cancellation.
    third = std_normal_cdf(a * (1.0 + 2.0 * rho0) / ratio)
    alpha = (std_normal_cdf(a) - std_normal_cdf(2.0 * a)) * third
    if not 0.0 < alpha < 1.0:
        raise AssertionError(f"Gaussian corner constant {alpha} outside (0, 1)")
    return alpha


# ---------------------------------------------------------------------------
# Lift to the prime field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    """Standard-representative lift: E = core as integers, F from the window.

    interval is the inclusive integer window [ceil(p/(D+1)), floor(p/D)];
    F keeps the window elements whose residue mod m lies in the extension
    set; A is the disjoint union of E and F inside Z_p.
    """

    core: ElementSet              # E, subset of {0..m-1} inside Z_p
    extension: ElementSet         # F, subset of the interval window
    full: ElementSet              # A = E u F
    interval: tuple[int, int]


def _interval(params: ConstructionParams) -> tuple[int, int]:
    d, p = params.eq.abs_coeff_sum, params.p
    return (-(-p // (d + 1)), p // d)


def lift_to_prime_field(params: ConstructionParams, core_m: ElementSet,
                        extension_m: ElementSet) -> LiftResult:
    """Map the Z_m sets into F_p; errors if the window is empty or collides."""
    if core_m.group.order != params.m or extension_m.group.order != params.m:
        raise ValueError("input sets must live in Z_m")
    p, m = params.p, params.m
    lo, hi = _interval(params)
    if lo > hi:
        raise ValueError(f"lift window [{lo}, {hi}] is empty; p too small")
    group_p = params.group_p
    e_idx = core_m.indices()
    core = ElementSet.from_indices(group_p, e_idx)

    window = np.arange(lo, hi + 1, dtype=np.int64)
    keep = extension_m.mask()[window % m]
    ext = ElementSet.from_indices(group_p, window[keep])

    overlap = core.intersection(ext)
    if overlap.count:
        raise ValueError(
            f"core and extension ranges overlap in F_p (e.g. at "
            f"{int(overlap.indices()[0])}); increase p beyond (D+1)*m"
        )
    return LiftResult(core, ext, core.union(ext), (lo, hi))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateRecord:
    name: str
    witness: tuple | None       # every certificate carries one exactly when it fails
    detail: str
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_report(self) -> dict:
        """The deterministic fields; `elapsed` is left to the caller's timing."""
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CertificateBundle:
    records: tuple[CertificateRecord, ...]
    conditions: tuple[tuple[str, bool], ...]
    counts: tuple[tuple[str, int], ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_report(self) -> dict:
        return {
            "certificates": [r.to_report() for r in self.records],
            "scale_conditions": dict(self.conditions),
            "counts": dict(self.counts),
            "all_passed": self.all_passed,
        }


def extension_property_holds(eq: Equation, mod: int, core_idx: np.ndarray,
                             ext_idx: np.ndarray) -> tuple[tuple | None, str]:
    """(-c1*F - c2*F) disjoint from (c3*E + ... + ck*E) modulo mod.

    Returns (witness, detail): the witness is the least common value, None
    when the property holds.
    """
    cs = eq.coeffs
    group = make_group([mod])
    lhs = _conv_count_table(group, [(-cs[0], ext_idx), (-cs[1], ext_idx)], bool)
    rhs = _conv_count_table(group, [(c, core_idx) for c in cs[2:]], bool)
    common = np.flatnonzero(lhs & rhs)
    detail = "difference sums from F avoid the core combination sums in F_p"
    return ((int(common[0]),) if common.size else None), detail


def _induced_subgraph_matches(params: ConstructionParams, core_m: ElementSet,
                              lift: LiftResult) -> tuple[tuple | None, str]:
    """Edges on {0..m-1} agree between Cay(Z_m, E0) and Cay(F_p, E).

    Both adjacency tests depend only on the integer difference d in [1, m-1]:
    modulo m the pair is adjacent iff d or m-d lies in E0, modulo p iff d or
    p-d lies in E.  Equality for every d gives edge-set equality under the
    identity vertex map.

    The two edge sets can only coincide when E0 is closed under negation mod
    m.
    Membership of d in the lifted set requires d itself in E0; membership of
    the same pair mod m is also granted by m-d in E0, and p > 2m makes the
    analogous wrap on the prime side unreachable.  A difference class with
    m-d in E0 but d outside it therefore yields an edge of the Z_m graph with
    no counterpart in the lift.  The returned detail string reports both
    containment directions so a failure localises which side lost edges.
    """
    m, p = params.m, params.p
    em = core_m.mask()
    ep = lift.core.mask()
    d = np.arange(1, m, dtype=np.int64)
    adj_m = em[d] | em[m - d]
    adj_p = ep[d] | ep[p - d]
    only_m = int(np.count_nonzero(adj_m & ~adj_p))
    only_p = int(np.count_nonzero(adj_p & ~adj_m))
    idx = core_m.indices()
    symmetric = int(np.count_nonzero(em[(m - idx) % m])) if idx.size else 0
    detail = (
        "edge sets over {0..m-1} under the identity vertex map: "
        f"{only_m} difference classes adjacent only mod m, "
        f"{only_p} adjacent only mod p; "
        f"{symmetric}/{idx.size} core members negation-symmetric"
    )
    if only_m == 0 and only_p == 0:
        return None, detail
    bad = np.flatnonzero(adj_m != adj_p)
    return (0, int(d[bad[0]])), detail


def certify_lift(params: ConstructionParams, core_m: ElementSet,
                 extension_m: ElementSet, lift: LiftResult,
                 core_threshold: Surd, extension_threshold: Surd) -> CertificateBundle:
    """Run the four lift certificates plus the named scale conditions.

    Certificates: (1) the lifted core set has no injective solution in F_p;
    (2) the subgraphs induced on {0..m-1} by Cay(Z_m, E0) and Cay(F_p, E)
    coincide; (3) the lifted extension set extends the core in F_p; (4) the
    union A has no injective solution in F_p.  Failures carry witnesses and
    are findings, not crashes.  lift is the lift of core_m and extension_m
    (PinnedConfig.build returns all three); the two thresholds are the ones
    the sets were cut with and feed only the scale conditions.
    """
    eq, p = params.eq, params.p

    def solution_free(a_set: ElementSet, detail: str):
        return is_solution_free(eq, a_set).witness, detail

    checks = (
        ("core-solution-free", lambda: solution_free(
            lift.core, "no injective solution with all entries in the lifted core set")),
        ("induced-subgraph-match", lambda: _induced_subgraph_matches(params, core_m, lift)),
        ("extension-in-lift", lambda: extension_property_holds(
            eq, p, lift.core.indices(), lift.extension.indices())),
        ("no-mixed-solutions", lambda: solution_free(
            lift.full, "no injective solution with entries drawn from the full set A")),
    )
    records = []
    for name, check in checks:
        t0 = time.perf_counter()
        witness, detail = check()
        records.append(CertificateRecord(name, witness, detail, time.perf_counter() - t0))

    conditions = scale_conditions(params, core_threshold, extension_threshold)
    counts = (
        ("core_m", core_m.count),
        ("extension_m", extension_m.count),
        ("core_lifted", lift.core.count),
        ("extension_lifted", lift.extension.count),
        ("full_lifted", lift.full.count),
    )
    return CertificateBundle(tuple(records), tuple(conditions.items()), counts)


# ---------------------------------------------------------------------------
# Pinned configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PinnedConfig:
    """A reproducible parameter set with explicit exact thresholds."""

    params: ConstructionParams
    core_threshold: Surd
    extension_threshold: Surd

    def build(self) -> tuple[ElementSet, ElementSet, LiftResult]:
        e0 = build_core_set(self.params, self.core_threshold)
        f0 = build_extension_set(self.params, self.extension_threshold)
        lift = lift_to_prime_field(self.params, e0, f0)
        return e0, f0, lift


def golden_config() -> PinnedConfig:
    """The pinned desk-scale configuration used by the reproduction suite.

    Equation x1 - x2 + x3 = 0 (a cancelling pair plus one), q = 5,
    m = 101*103; thresholds chosen so that the solution-freeness and
    extension certificates are in their guaranteed regimes: core threshold
    13/7 leaves slack 1/7 < n/((q-1)D), extension threshold 1/8 satisfies the
    gap inequality, and p is the first prime past D^2*(D+1)*m so mixed
    nonzero-sum combinations cannot vanish.  The induced-subgraph certificate
    is expected to fail here with witness (0, m-a) for the largest core
    member a: m-a is the smallest difference class joined mod m but not in
    the lift, since no core member is negation-symmetric (see that
    certificate's docstring).
    """
    params = ConstructionParams(
        eq=Equation((1, -1, 1)),
        q=5,
        primes=(101, 103),
        p=374531,
    )
    return PinnedConfig(
        params=params,
        core_threshold=Surd.rational(Fraction(13, 7)),
        extension_threshold=Surd.rational(Fraction(1, 8)),
    )


def transfer_config() -> PinnedConfig:
    """Small sibling of the golden config for exact chromatic comparisons.

    m = 11*13 keeps both Cayley graphs small enough to solve exactly, so the
    chromatic transfer (the lifted graph's chromatic number dominating the
    Z_m graph's) can be verified end to end.
    """
    params = ConstructionParams(
        eq=Equation((1, -1, 1)),
        q=5,
        primes=(11, 13),
        p=431,
    )
    return PinnedConfig(
        params=params,
        core_threshold=Surd.rational(Fraction(37, 20)),
        extension_threshold=Surd.rational(Fraction(1, 12)),
    )
