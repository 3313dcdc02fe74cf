"""Homogeneous linear equations c1*x1 + ... + ck*xk = 0 over finite groups.

The module classifies equations by their zero-sum subset structure, tests
whether a subset of a cyclic group is free of injective solutions (one scan
over x1..x_{k-1} for every k, meet-in-the-middle for k = 4), and counts
solutions two independent ways: exact brute-force convolution (one
shift-and-add kernel for every brute count, plain or injective) and a
Fourier counter over F_p (the two are cross-checked in the test suite).
The Fourier counter is exact too: it convolves through power-of-two real
FFTs and rounds a product only under Percival's error bound on centred
operands, splitting them into limbs where the bound fails.

The k = 4 meet-in-the-middle joins ordered pairs through p-byte membership
bitmaps of the pair sums: a set whose left pairs want no right sum is free
before anything is sorted, and otherwise only right pairs with a wanted sum
are sorted.  Matches are tested for injectivity in chunks taken in (left
pair, right pair) index order, so the first hit is the lexicographically
first solution.  It holds two p-byte bitmaps and at most three n^2 int64
arrays, where a sort of every pair sum took ten such arrays.

Counting conventions: the Fourier counter and the default brute counter count
all tuples in A^k, coordinates not necessarily distinct.  Injective counting
(pairwise-distinct coordinates) is available behind the `injective` flag.
Both counters return int64 tables and refuse, before any work, a count that
could pass int64.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import config
from .groups import ElementSet, GroupSpec
from .primes import is_prime

__all__ = [
    "Equation",
    "EquationClass",
    "SolutionFreeResult",
    "classify",
    "is_solution_free",
    "count_solutions_brute_all",
    "count_solutions_dft_all",
    "dft",
    "idft",
    "prime_field_order",
]


@dataclass(frozen=True)
class Equation:
    """Integer coefficient vector (c1, ..., ck), k >= 3, all nonzero."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 3:
            raise ValueError("an equation needs at least 3 variables")
        if any(c == 0 for c in self.coeffs):
            raise ValueError("zero coefficients are not allowed")

    @property
    def k(self) -> int:
        return len(self.coeffs)

    @property
    def coeff_sum(self) -> int:
        return sum(self.coeffs)

    @property
    def abs_coeff_sum(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    @property
    def max_abs_coeff(self) -> int:
        return max(abs(c) for c in self.coeffs)

    @staticmethod
    def parse(text: str) -> "Equation":
        """Parse "[1, 1, -1]" or "1*x1 + 1*x2 - 1*x3 = 0"."""
        text = text.strip()
        if text.startswith("["):
            try:
                vals = ast.literal_eval(text)
            except (SyntaxError, ValueError, TypeError) as exc:
                # a name or an expression ("1+1") raises ValueError with an AST
                # node's address in its message; an unhashable key, TypeError
                raise ValueError(f"bad equation literal {text!r}") from exc
            # bool is an int subclass and floats would truncate: exact ints only
            if not isinstance(vals, list) or any(type(v) is not int for v in vals):
                raise ValueError(f"equation literal {text!r} needs integer coefficients")
            return Equation(tuple(vals))
        lhs, _, rhs = text.partition("=")
        if rhs and rhs.strip() != "0":
            raise ValueError("equation right-hand side must be 0")
        found: dict[int, int] = {}
        compact = lhs.replace(" ", "")
        pos = 0
        for m in re.finditer(r"([+-]?)(\d*)\*?x(\d+)", compact):
            if m.start() != pos:
                raise ValueError(f"cannot parse equation near {compact[pos:]!r}")
            pos = m.end()
            sign = -1 if m.group(1) == "-" else 1
            coeff = int(m.group(2)) if m.group(2) else 1
            idx = int(m.group(3))
            if idx in found:
                raise ValueError(f"variable x{idx} appears twice")
            found[idx] = sign * coeff
        if pos != len(compact) or not found:
            raise ValueError(f"cannot parse equation {text!r}")
        k = len(found)
        if sorted(found) != list(range(1, k + 1)):
            raise ValueError("variables must be x1..xk with no gaps")
        return Equation(tuple(found[i] for i in range(1, k + 1)))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs, start=1):
            sign = "-" if c < 0 else ("+" if i > 1 else "")
            mag = abs(c)
            terms.append(f"{sign}{' ' if i > 1 else ''}{mag}*x{i}")
        return " ".join(terms) + " = 0"


@dataclass(frozen=True)
class EquationClass:
    """Degeneracy flags derived from zero-sum subsets of the coefficients.

    roth_degenerate:  the full coefficient sum is 0.
    rt_degenerate:    some nonempty subset of coefficients sums to 0 (`rt_witness`).
    chi_vanishing:    some subset of size >= 3 sums to 0 (`chi_witness`).

    Implications (validated in tests): roth => chi_vanishing => rt.
    """

    roth_degenerate: bool
    rt_witness: tuple[int, ...] | None
    chi_witness: tuple[int, ...] | None

    @property
    def rt_degenerate(self) -> bool:
        return self.rt_witness is not None

    @property
    def chi_vanishing(self) -> bool:
        return self.chi_witness is not None

    @property
    def witness_subset(self) -> tuple[int, ...] | None:
        """A zero-sum witness: size >= 3 if one exists, else any nonempty one."""
        return self.chi_witness if self.chi_witness is not None else self.rt_witness

    def to_report(self) -> dict:
        return {
            "roth": self.roth_degenerate,
            "rt": self.rt_degenerate,
            "chi_vanishing": self.chi_vanishing,
            "witness_subset": list(self.witness_subset)
            if self.witness_subset is not None
            else None,
        }


_CLASSIFY_MAX_K = 30


def _subset_sums(coeffs: Sequence[int], offset: int) -> dict[int, dict[int, int]]:
    """sum -> {subset size -> one witness bitmask}, over all subsets."""
    table: dict[int, dict[int, int]] = {}
    h = len(coeffs)
    for mask in range(1 << h):
        s = 0
        size = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                s += coeffs[i]
                size += 1
            m >>= 1
            i += 1
        sizes = table.setdefault(s, {})
        if size not in sizes:
            sizes[size] = mask << offset
    return table


def classify(eq: Equation) -> EquationClass:
    """Exact classification by zero-sum subsets (all 2^k - 1 nonempty subsets).

    Runs as a meet-in-the-middle scan over the two coefficient halves, which
    covers the same subsets as a direct enumeration at ~2^(k/2) cost.
    """
    k = eq.k
    if k > _CLASSIFY_MAX_K:
        raise ValueError(f"classification supports k <= {_CLASSIFY_MAX_K}, got {k}")
    half = k // 2
    left = _subset_sums(eq.coeffs[:half], 0)
    right = _subset_sums(eq.coeffs[half:], half)

    rt_mask = None
    chi_mask = None
    for s, left_sizes in left.items():
        right_sizes = right.get(-s)
        if right_sizes is None:
            continue
        for zl, lmask in left_sizes.items():
            for zr, rmask in right_sizes.items():
                size = zl + zr
                if size >= 1 and rt_mask is None:
                    rt_mask = lmask | rmask
                if size >= 3 and chi_mask is None:
                    chi_mask = lmask | rmask
        if rt_mask is not None and chi_mask is not None:
            break

    def mask_to_subset(mask):
        if mask is None:
            return None
        return tuple(i for i in range(k) if mask >> i & 1)

    return EquationClass(
        roth_degenerate=(eq.coeff_sum == 0),
        rt_witness=mask_to_subset(rt_mask),
        chi_witness=mask_to_subset(chi_mask),
    )


# ---------------------------------------------------------------------------
# Injective solution search over prime fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionFreeResult:
    witness: tuple[int, ...] | None   # field elements, one per variable

    @property
    def free(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.free


def _require_invertible_modulus(eq: Equation, A: ElementSet) -> int:
    """Cyclic modulus with every coefficient invertible (prime not required)."""
    g = A.group
    if g.rank != 1:
        raise ValueError("solution-free testing expects a single cyclic factor")
    mod = g.moduli[0]
    for c in eq.coeffs:
        if math.gcd(c, mod) != 1:
            raise ValueError(
                f"coefficient {c} is not invertible modulo {mod}"
            )
    return mod


def _verify_witness(eq: Equation, p: int, xs: Sequence[int]) -> None:
    # explicit raises, unlike assert, still run under python -O
    if len(set(xs)) != len(xs):
        raise AssertionError(f"witness {tuple(xs)} is not injective")
    if sum(c * x for c, x in zip(eq.coeffs, xs)) % p:
        raise AssertionError(f"witness {tuple(xs)} is not a solution")


def is_solution_free(eq: Equation, A: ElementSet) -> SolutionFreeResult:
    """True iff no injective tuple in A^k solves the equation modulo |G|.

    Works over any cyclic group whose order is coprime to all coefficients
    (prime fields and products of large primes alike).  Strategy:
    meet-in-the-middle over coordinate halves for k=4 when |A|^2 <= 4e6,
    otherwise a scan that enumerates x1..x_{k-1}, the last two vectorized,
    and solves for x_k.  Both return the lexicographically first injective
    solution, re-verified.  For k >= 4 the scan first checks |A|^(k-1)
    against BRUTE_TUPLE_CAP, which at its default rejects every k=4 set
    too large for meet-in-the-middle.

    The meet-in-the-middle marks the right pair sums in a p-byte bitmap and
    returns at once when no left pair i != j hits it; otherwise it sorts
    only the right pairs whose sum a hit left pair wants, and tests the
    matches for injectivity in chunks in (left, right) index order, so the
    first injective match is the lexicographically first solution.  Memory:
    two p-byte bitmaps and at most three |A|^2 int64 arrays.
    """
    p = _require_invertible_modulus(eq, A)
    elems = A.indices()
    n = elems.size
    if n < eq.k:
        return SolutionFreeResult(None)

    if eq.k == 4 and n * n <= 4_000_000:
        witness = _find_injective_mitm4(eq, p, elems)
    else:
        if eq.k > 3 and n ** (eq.k - 1) > config.BRUTE_TUPLE_CAP:
            raise ValueError(
                f"|A|^(k-1) = {n}^{eq.k - 1} exceeds the brute-force cap"
            )
        witness = _find_injective_scan(eq, p, elems, A.mask())

    if witness is None:
        return SolutionFreeResult(None)
    _verify_witness(eq, p, witness)
    return SolutionFreeResult(tuple(witness))


def _find_injective_scan(eq, p, elems, in_a):
    """First injective solution, lexicographic in (x1, ..., x_{k-1}).

    Python loops over the (x1..x_{k-3}) prefixes; for each, numpy tests
    every (x_{k-2}, x_{k-1}) pair of the remaining elements in row blocks
    and solves for x_k, which is unique because c_k is invertible.  With
    m = -c_k^-1, x_k = (ma*x_{k-2} + base) % p + mb*x_{k-1} % p, then mod p;
    ma, mb and base are reduced first, so int64 intermediates stay below
    p^2 + p (exact for p < 3e9).
    """
    *head, ca, cb, ck = eq.coeffs
    m = -pow(ck, -1, p)
    ma, mb = m * ca % p, m * cb % p
    block = max(1, 4_000_000 // elems.size)
    free = in_a.copy()   # A minus the prefix
    for prefix in itertools.permutations(elems.tolist(), len(head)):
        taken = list(prefix)
        free[taken] = False
        rest = elems[free[elems]]
        base = m * sum(c * x for c, x in zip(head, prefix)) % p
        e2 = rest[None, :]
        v = mb * e2 % p
        for lo in range(0, rest.size, block):
            e1 = rest[lo:lo + block, None]
            xk = ((ma * e1 + base) % p + v) % p
            ok = free[xk] & (xk != e1) & (xk != e2) & (e1 != e2)
            if ok.any():
                i, j = np.argwhere(ok)[0]
                return (*prefix, int(e1[i, 0]), int(rest[j]), int(xk[i, j]))
        free[taken] = True
    return None


# Upper bound on the (left, right) matches tested at once by the k = 4 join,
# and on the left pairs whose match ranges are looked up at once.
_MATCH_ENTRIES = 1 << 18


def _find_injective_mitm4(eq, p, elems):
    """First injective solution, lexicographic in (x1, x2, x3, x4).

    Meet in the middle over ordered pairs i != j of the ascending elements,
    numbered t = i*n + j: left pair (x1, x2) wants a right pair (x3, x4)
    with c3*x3 + c4*x4 = -(c1*x1 + c2*x2) mod p.  A p-byte bitmap of the
    right sums tells each left pair whether any right pair fits; when none
    does the set is free, with nothing sorted.  Otherwise a second bitmap
    marks the sums the hit left pairs want, and only the right pairs with
    such a sum are sorted, once, by the key sum*n^2 + t, which keeps the
    pairs of one sum in index order.  The hit left pairs are taken in index
    order, and their matches are expanded and tested for injectivity in
    chunks of at most _MATCH_ENTRIES (a single left pair may exceed it).
    Chunks follow (left t, right t) order, so the first injective match is
    the lexicographically first solution.  Memory: the two bitmaps (p is at
    most MATERIALIZE_CAP, the size of A's own mask) plus at most three n^2
    int64 arrays and three n^2-byte masks live at once, and
    O(_MATCH_ENTRIES) per chunk.
    """
    c1, c2, c3, c4 = (c % p for c in eq.coeffs)
    m1, m2 = -c1 % p, -c2 % p
    n = elems.size
    nn = n * n

    def pair_sums(a, b):
        # a*x_i + b*x_j mod p at [i, j]; below 2p^2, exact in int64
        s = a * elems[:, None] + b * elems[None, :]
        return np.remainder(s, p, out=s)

    off = ~np.eye(n, dtype=bool)   # pairs i != j
    right = pair_sums(c3, c4)
    has_right = np.zeros(p, dtype=bool)
    has_right[right[off]] = True
    want = pair_sums(m1, m2)
    hit = has_right[want] & off
    if not hit.any():
        return None
    wanted = np.zeros(p, dtype=bool)
    wanted[want[hit]] = True
    del want
    left = np.flatnonzero(hit)
    del hit
    keep = wanted[right] & off
    # key sum*n^2 + i*n + j: sorted, the pairs of one sum stay in index order
    right *= nn
    right += n * np.arange(n)[:, None]
    right += np.arange(n)
    keys = right[keep]
    del right, keep
    keys.sort()

    for b in range(0, left.size, _MATCH_ENTRIES):
        li, lj = np.divmod(left[b:b + _MATCH_ENTRIES], n)
        w = (m1 * elems[li] + m2 * elems[lj]) % p * nn
        first = keys.searchsorted(w)
        count = keys.searchsorted(w + nn) - first
        ends = np.cumsum(count)
        a = 0
        while a < li.size:
            done = int(ends[a - 1]) if a else 0
            z = max(a + 1, int(ends.searchsorted(done + _MATCH_ENTRIES, "right")))
            c = count[a:z]
            at = np.repeat(first[a:z] - (ends[a:z] - c), c) + np.arange(done, int(ends[z - 1]))
            ri, rj = np.divmod(keys[at] % nn, n)
            qi, qj = np.repeat(li[a:z], c), np.repeat(lj[a:z], c)
            ok = (qi != ri) & (qi != rj) & (qj != ri) & (qj != rj)
            if ok.any():
                f = int(ok.argmax())
                return tuple(int(elems[x]) for x in (qi[f], qj[f], ri[f], rj[f]))
            a = z
    return None


# ---------------------------------------------------------------------------
# Exact counting
# ---------------------------------------------------------------------------


def count_solutions_brute_all(eq: Equation, A: ElementSet, injective: bool = False) -> np.ndarray:
    """Exact count table N(y) for every y in the group. Integer arithmetic only.

    Runs on the shift-and-add kernel, after a ValueError for any count that
    could pass int64.  Plain: with the other x_j fixed, x_i takes at most
    min(|A|, #ker c_i) values, #ker c_i = prod_j gcd(c_i, n_j), and partial
    tables count at most |A|^(k-1) prefixes.  Injective: no partial sum of
    the inclusion-exclusion passes |A|(|A|+1)...(|A|+k-1).
    """
    idx = A.indices()
    n, k = idx.size, eq.k
    ker = min(math.prod(math.gcd(c, m) for m in A.group.moduli) for c in eq.coeffs)
    bound = math.prod(range(n, n + k)) if injective else n ** (k - 1) * min(n, ker)
    if bound > np.iinfo(np.int64).max:
        raise ValueError(f"count bound {bound} exceeds int64")
    if injective:
        return _injective_by_partitions(A.group, eq, idx)
    return _conv_count_table(A.group, [(c, idx) for c in eq.coeffs])


def _conv_count_table(group: GroupSpec, terms: Sequence[tuple[int, np.ndarray]],
                      dtype=np.int64) -> np.ndarray:
    """Shift-and-add over the terms (c_i, element indices X_i), row-major.

    Entry y is the number of tuples x in X_1 x ... x X_k with sum c_i*x_i = y,
    exact in int64; with dtype bool it marks the sumset c_1*X_1 + ... +
    c_k*X_k instead (+= on bools is a logical or).  Each element shifts the
    whole table once, so the sum of |X_i| * order is checked against
    `config.SHIFT_ENTRY_CAP` before anything is allocated.  A shift by s
    along an axis of length n moves [0, n - s) to [s, n) and [n - s, n) to
    [0, s), so one element is 2^rank slice-adds into the next table.
    """
    work = group.order * sum(len(idx) for _, idx in terms)
    if work > config.SHIFT_ENTRY_CAP:
        raise ValueError(f"shift-and-add work of {work} entries exceeds the cap "
                         f"{config.SHIFT_ENTRY_CAP}")
    shape = group.moduli
    acc = np.zeros(shape, dtype=dtype)
    acc.flat[0] = 1
    for c, idx in terms:
        nxt = np.zeros_like(acc)
        for a in group.indices_to_coords(idx).tolist():
            ranges = [((slice(s, n), slice(0, n - s)), (slice(0, s), slice(n - s, n)))
                      for s, n in ((c * ai % ni, ni) for ai, ni in zip(a, shape))]
            for parts in itertools.product(*ranges):
                dst, src = zip(*parts)
                nxt[dst] += acc[src]
        acc = nxt
    return acc.reshape(group.order)


def _set_partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _injective_by_partitions(group: GroupSpec, eq: Equation, idx: np.ndarray) -> np.ndarray:
    """Inclusion-exclusion over set partitions of the coordinates, with weight
    prod_blocks (-1)^(b-1) (b-1)!, so no partial sum passes sum |weight| *
    |A|^blocks = |A|(|A|+1)...(|A|+k-1).  Its B(k) tables (B the Bell number)
    shift at most B(k)*k*|G|*|A| entries, checked before the first table.
    """
    n, k = idx.size, eq.k
    bell = [1]                         # rows of the Bell triangle; B(k) ends row k
    for _ in range(k - 1):
        bell = list(itertools.accumulate(bell, initial=bell[-1]))
    work = bell[-1] * k * group.order * n
    if work > config.SHIFT_ENTRY_CAP:
        raise ValueError(f"injective count of up to {work} shifted entries exceeds "
                         f"the cap {config.SHIFT_ENTRY_CAP}")
    total = np.zeros(group.order, dtype=np.int64)
    for part in _set_partitions(tuple(range(k))):
        merged = [sum(eq.coeffs[i] for i in block) for block in part]
        mu = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part)
        kept = [c for c in merged if c != 0]
        table = _conv_count_table(group, [(c, idx) for c in kept])
        total += mu * n ** (len(merged) - len(kept)) * table
    return total


# ---------------------------------------------------------------------------
# Fourier counting
# ---------------------------------------------------------------------------


def dft(values: np.ndarray) -> np.ndarray:
    """Normalized transform fhat(xi) = (1/p) * sum_x f(x) e(-x*xi/p).

    Implemented with an FFT; identical (up to rounding) to the direct O(p^2)
    sum, which the test suite keeps as an oracle.  `config.DFT_CAP` bounds
    the length.
    """
    values = np.asarray(values)
    p = values.shape[0]
    if p > config.DFT_CAP:
        raise ValueError(f"transform length {p} exceeds cap {config.DFT_CAP}")
    return np.fft.fft(values) / p


def idft(table: np.ndarray) -> np.ndarray:
    """Inverse of dft: f(x) = sum_xi fhat(xi) e(x*xi/p)."""
    table = np.asarray(table)
    return np.fft.ifft(table) * table.shape[0]


def prime_field_order(group: GroupSpec) -> int:
    """p for the group Z_p with p prime and at most `config.DFT_CAP`.

    Every Fourier entry point (here and in bohr) calls it before it reads a
    bitmap, so an input over the cap is refused before any work starts.
    """
    if group.rank != 1 or not is_prime(group.moduli[0]):
        raise ValueError(f"expected a set over a prime field, got {group.literal}")
    p = group.moduli[0]
    if p > config.DFT_CAP:
        raise ValueError(f"p = {p} exceeds the transform cap {config.DFT_CAP}")
    return p


# Percival (Math. Comp. 72, 2003; Brent & Zimmermann, Modern Computer Arithmetic,
# 2010, sec. 3.3): a float64 product of vectors x and y through
# transforms of length L = 2^n is off from x*y by at most eta(L)*|x|_2*|y|_2 in the
# Euclidean norm, so in every entry.  A product is rounded only when that bound is
# at most _ROUND_MARGIN, half of the 1/2 that rounding needs.
_ROUND_MARGIN = 0.25
_EPS = Fraction(1, 1 << 53)            # unit roundoff of float64
_TWIDDLE_ERR = Fraction(1, 1 << 52)    # beta: assumed error of numpy's twiddle factors
_SQRT5_UP = Fraction(2237, 1000)       # > sqrt(5)


@functools.lru_cache(maxsize=None)
def _fft_error(L: int) -> float:
    """eta(L) = (1+eps)^3n (1+eps*sqrt5)^(3n+1) (1+beta)^3n - 1, n = log2 L, rounded up."""
    n = L.bit_length() - 1
    eta = ((1 + _EPS) ** (3 * n) * (1 + _EPS * _SQRT5_UP) ** (3 * n + 1)
           * (1 + _TWIDDLE_ERR) ** (3 * n) - 1)
    return math.nextafter(float(eta), math.inf)


def _norm2(limb: np.ndarray) -> float:
    # a float64 sum of n rounded squares, in any order, is within (n + 2) * 2^-53 of
    # its value (relative); (n + 8) * 2^-52 also covers the few float operations of
    # the bound test
    f = limb.astype(np.float64)
    return float(f @ f) * (1 + (f.size + 8) * 2.0 ** -52)


def _limbs(d: np.ndarray, b: int) -> list[tuple[int, np.ndarray, float]]:
    """Nonzero limbs (i, limb, upper bound on |limb|_2^2) of d = sum 2^(b*i) limb_i.

    Each limb holds b bits of |d| with the sign of d; d itself is the one limb
    when |d| fits b bits.
    """
    mag = np.abs(d)
    top = int(mag.max()).bit_length()
    if top <= b:
        parts = [(0, d)]
    else:
        sign = np.sign(d)
        parts = [(i, sign * ((mag >> (b * i)) & ((1 << b) - 1))) for i in range(-(-top // b))]
    return [(i, limb, _norm2(limb)) for i, limb in parts if limb.any()]


def _spectrum(limb: np.ndarray, L: int) -> np.ndarray:
    # rfft pads to length L in its own row buffer: no length-L float array is built
    return np.fft.rfft(limb.astype(np.float64), L)


def _centred(t: np.ndarray, p: int) -> tuple[int, int, np.ndarray]:
    """(mu, sum(t - mu), t - mu) with mu = round(sum(t) / p), all in integers."""
    s = int(t.sum())
    mu = (2 * s + p) // (2 * p)
    return mu, s - p * mu, t - mu


def _cyclic_product(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Exact x * y over Z_p for nonnegative integer tables (y may be x itself).

    With x = mx + dx and y = my + dy centred by their integer means, x * y =
    p*mx*my + mx*sum(dy) + my*sum(dx) + dx * dy; only dx * dy goes through
    floats, as a linear convolution at the power of two L >= 2p - 1, whose
    entries y and y + p fold onto y.  It is rounded once eta(L)*|dx|*|dy| <=
    1/4 for the widest limbs: dx and dy are cut into b-bit limbs, b falling,
    until that holds (it does at b = 1 for p <= 1/(4 eta)), and each pair of
    limbs is one rounded product.  Entries add up mod 2^64, which gives the
    result wherever it fits int64.
    """
    L = 1 << (2 * p - 2).bit_length()
    eta = _fft_error(L)
    same = y is x
    ops = [_centred(x, p)] if same else [_centred(x, p), _centred(y, p)]
    (mx, sx, _), (my, sy, _) = ops[0], ops[-1]
    out = np.full(p, (p * mx * my + mx * sy + my * sx) % (1 << 64), dtype=np.uint64)
    bits = max(1, *(int(np.abs(d).max()).bit_length() for *_, d in ops))
    for b in sorted({-(-bits // m) for m in range(1, bits + 1)}, reverse=True):
        split = [_limbs(d, b) for *_, d in ops]
        widest = [max((n2 for *_, n2 in limbs), default=0.0) for limbs in split]
        if eta * eta * widest[0] * widest[-1] <= _ROUND_MARGIN ** 2:
            break
    else:
        raise AssertionError(f"no limb width bounds the float error at p = {p}")
    del ops
    xs = [(i, _spectrum(limb, L)) for i, limb, _ in split[0]]
    ys = xs if same else [(j, _spectrum(limb, L)) for j, limb, _ in split[-1]]
    del split
    while xs:
        i, fx = xs.pop()
        row = [(i, fx), *xs] if same else list(ys)
        if not xs and not same:
            ys.clear()
        while row:
            j, fy = row.pop()
            # the last pair of the row is the last use of fx: multiply in place
            prod = np.multiply(fx, fy, out=fx if not row else None)
            del fy
            w = np.fft.irfft(prod, L)
            del prod
            np.rint(w, out=w)
            t = w[:p].astype(np.int64)
            t[:p - 1] += w[p:2 * p - 1].astype(np.int64)
            del w
            t = t.view(np.uint64)
            scale = (2 if same and j != i else 1) << (b * (i + j))
            if scale != 1:
                t *= np.uint64(scale % (1 << 64))
            out += t
        del fx
    return out.view(np.int64)


def _product_table(coeffs: tuple[int, ...], idx: np.ndarray, p: int) -> np.ndarray:
    """Count table of sum c*x_i over the residues c, each x_i in the indices idx.

    A repeated residue is squared: the table of 2H + R is the square of H's
    table times R's, and R's distinct residues split in halves; a leaf is the
    indicator of c*A.
    """
    if len(coeffs) == 1:
        leaf = np.zeros(p, dtype=np.int8)
        leaf[coeffs[0] * idx % p] = 1
        return leaf
    counts = Counter(coeffs)
    half = tuple(c for c, n in counts.items() for _ in range(n // 2))
    rest = tuple(c for c, n in counts.items() if n % 2)
    if not half:
        mid = len(rest) // 2
        return _cyclic_product(_product_table(rest[:mid], idx, p),
                               _product_table(rest[mid:], idx, p), p)
    h = _product_table(half, idx, p)
    sq = _cyclic_product(h, h, p)
    del h
    return _cyclic_product(sq, _product_table(rest, idx, p), p) if rest else sq


def count_solutions_dft_all(eq: Equation, A: ElementSet) -> np.ndarray:
    """All-targets solution count over F_p by exact Fourier convolution.

    Entry y counts the tuples of A^k with sum c_i*x_i = y mod p.  The table
    is a tree of cyclic convolutions over Z_p, one leaf 1_{cA} per distinct
    c mod p, each product taken through numpy's real FFT at a power-of-two
    length L >= 2p - 1 and rounded only under Percival's bound
    eta(L)*|dx|_2*|dy|_2 <= 1/4 on the centred operands, with eta(L) =
    (1+eps)^3n (1+eps*sqrt5)^(3n+1) (1+beta)^3n - 1, n = log2 L, eps = 2^-53
    and beta = 2^-52.  The bound assumes that numpy's power-of-two transforms
    err no more than the radix-2 FFT of that analysis and that their twiddle
    factors are within beta of exact.  Operands that fail it are split into
    limbs until every limb product meets it, and means, sums and limb
    weights are combined in integers, so every entry is exact.

    Raises ValueError before any work when |A|^(k-1), a bound on N(y) over
    F_p, passes int64, when the group is not a prime field within
    `config.DFT_CAP`, or when p does not exceed every |c_i|.
    """
    if A.count ** (eq.k - 1) > np.iinfo(np.int64).max:
        raise ValueError(f"count bound {A.count}^{eq.k - 1} exceeds int64")
    p = prime_field_order(A.group)
    if p <= eq.max_abs_coeff:
        raise ValueError(f"modulus {p} must exceed the largest coefficient magnitude "
                         f"{eq.max_abs_coeff}")
    return _product_table(tuple(sorted(c % p for c in eq.coeffs)), A.indices(), p)
