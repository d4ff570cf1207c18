"""Conservative/dissipative verdicts with re-checkable certificates, exact
Hellinger-type integral products, the Zimmer-nonamenability test against the
Kesten norm, and Monte Carlo estimates of the Radon-Nikodym cocycle."""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

# numpy is imported in the functions that use it (see the package docstring)

from .cocycles import MAX_EXTENT, BoundedValue, _window, norm_sq
from .exact import _U, Record, parse_fraction
from .groups import FreeGroup, Word, format_element, inv, is_identity, word_length
from .marginals import ActionSpec, SpecError, substream_rng

__all__ = [
    "CriterionVerdict",
    "kappa0",
    "auto_kappa",
    "criterion_partial_sums",
    "classify_conservativity",
    "verify_certificate",
    "integral_products",
    "hellinger_product",
    "negsq_product",
    "kesten_norm",
    "nonamenability_check",
    "mc_omega",
]


@functools.cache
def kappa0(delta) -> Fraction:
    """Conservativeness threshold delta^-2 + delta^-1 (1-delta)^-2, computed
    once per delta."""
    delta = parse_fraction(delta)
    if not (0 < delta <= Fraction(1, 2)):
        raise SpecError(f"delta must lie in (0, 1/2], got {delta}")
    return 1 / delta**2 + 1 / (delta * (1 - delta) ** 2)


def auto_kappa(delta) -> int:
    """Smallest integer strictly above kappa0(delta)."""
    k0 = kappa0(delta)
    k = int(k0) + 1
    return k if k > k0 else k + 1


class CriterionVerdict(Record):
    _fields = ("verdict", "kappa", "evidence")

    def __init__(self, verdict: str, kappa: Optional[float] = None,
                 evidence: Optional[dict] = None):
        # verdict: Conservative | Dissipative | Inconclusive
        self._set(verdict=verdict, kappa=kappa,
                  evidence={} if evidence is None else evidence)


# --- partial sums ------------------------------------------------------------

def _block_weights(spec: ActionSpec, kappa: float, radius: int) -> np.ndarray:
    """T[k, l, i, j]: the sum over the blocks of length l that start in key i
    and end in state j of exp(-kappa ||c_b||^2), taken at the upper end of
    the norm's bracket for k = 0 and at the (nonnegative) lower end for k = 1.

    A block is a descending pair x^e y^-f (e, f >= 1, x != y) or a single
    syllable x^e. Keys and states are 2(x - 1) + s: for a start key, s = 1
    when the block's first syllable is positive; for an end state, s = 1
    when the block is a single positive syllable. The integers are the
    rank-1 case, whose element x^e is the int e.
    """
    import numpy as np

    free = isinstance(spec.group, FreeGroup)
    rank = spec.group.rank if free else 1
    weights = np.zeros((2, radius + 1, 2 * rank, 2 * rank))

    def add(syls, key, state):
        g = Word._trusted(rank, syls) if free else syls[0][1]
        nv = norm_sq(spec, g, tol=1e-4)
        length = sum(abs(e) for _, e in syls)
        # a block's norm is nonnegative, so each factor lies in [0, 1]
        weights[0, length, key, state] += math.exp(-kappa * nv.upper)
        weights[1, length, key, state] += math.exp(-kappa * max(nv.lower, 0.0))

    for x in range(1, rank + 1):
        for e in range(1, radius + 1):
            add(((x, e),), 2 * x - 1, 2 * x - 1)
            add(((x, -e),), 2 * x - 2, 2 * x - 2)
        for y in range(1, rank + 1):
            if y != x:
                for e in range(1, radius):
                    for f in range(1, radius - e + 1):
                        add(((x, e), (y, -f)), 2 * x - 1, 2 * y - 2)
    return weights


def criterion_partial_sums(spec: ActionSpec, kappa: float, radius: int):
    """Cumulative brackets of sum_{|g| <= n} exp(-kappa ||c_g||^2).

    A reduced word splits in exactly one way into blocks: its descending
    pairs x^e y^-f (e, f >= 1) and its other syllables, one each (a positive
    syllable can only open such a pair and a negative one only close it).
    ||c_g||^2 is the sum of its blocks' norms (see `MarginalFamily`), so
    every term is a product of block factors, and the sphere sums follow
    from a recursion over the last block (`_block_weights`). S_n[j] sums the
    words of length n whose last block ends in state j, and
        S_n = sum_{l=1..n} I_{n-l} T_l,   I_0 = 1,   I_m = S_m A  (m >= 1),
    where A[j, i] admits a block with start key i after state j: another
    generator, and no negative single syllable after a positive one (the
    two would form a pair). Only words of one or two syllables reach
    `norm_sq`: at most 2rR + r(r-1)R^2 calls on the free group of rank r at
    radius R (54 on F2 at R = 6, whose ball has 1457 words).
    """
    import numpy as np

    if not 0 < kappa < math.inf:
        raise SpecError(f"kappa must be positive and finite, got {kappa}")
    weights = _block_weights(spec, kappa, radius)
    states = weights.shape[-1]
    gen = np.arange(states) // 2
    positive = np.arange(states) % 2 == 1
    admits = ((gen[:, None] != gen[None, :])
              & ~(positive[:, None] & ~positive[None, :])).astype(float)
    into = np.zeros((2, radius + 1, states))
    into[:, 0] = 1.0
    rows = [{"radius": 0, "lower": 1.0, "upper": 1.0}]
    lo_cum = hi_cum = 1.0
    for n in range(1, radius + 1):
        sphere = np.einsum("kli,klij->kj", into[:, n - 1::-1], weights[:, 1:n + 1])
        into[:, n] = sphere @ admits
        lo_cum += float(sphere[0].sum())
        hi_cum += float(sphere[1].sum())
        rows.append({"radius": n, "lower": lo_cum, "upper": hi_cum})
    return rows


# --- classification ----------------------------------------------------------

def classify_conservativity(spec: ActionSpec, kappa=None) -> CriterionVerdict:
    """Verdict with a machine-checkable certificate.

    Dissipative needs a summable sphere-weighted majorant of
    exp(-||c||^2 / 2); Conservative needs a divergent minorant of
    exp(-kappa ||c||^2) for some kappa above the threshold kappa0(delta).
    """
    k0 = float(kappa0(spec.delta))
    try:
        kap = float(kappa if kappa is not None else auto_kappa(spec.delta))
    except OverflowError:
        kap = math.inf
    if not 0 < kap < math.inf:
        raise SpecError(f"kappa must be positive and finite, got {kap}")
    found = spec.family.certificate(spec.group, spec.multiplicity, kap, k0)
    if found is None:
        return _inconclusive(spec, kap)
    return CriterionVerdict(*found)


def _inconclusive(spec: ActionSpec, kap: float) -> CriterionVerdict:
    radius = 6 if isinstance(spec.group, FreeGroup) else 60
    try:
        rows = criterion_partial_sums(spec, kap, radius)
    except SpecError:
        rows = []
    return CriterionVerdict(
        "Inconclusive",
        kap,
        {"partial_sums": rows, "note": "no certificate at this radius"},
    )


def verify_certificate(spec: ActionSpec, verdict: CriterionVerdict) -> bool:
    """Re-derive the certificate from the spec at the verdict's kappa and
    compare: a verdict the family does not certify, or evidence it does not
    produce, is rejected. Inconclusive verdicts carry no certificate."""
    if verdict.verdict == "Inconclusive" or verdict.kappa is None:
        return False
    found = spec.family.certificate(spec.group, spec.multiplicity, verdict.kappa,
                                    float(kappa0(spec.delta)))
    return found is not None and CriterionVerdict(*found) == verdict


# --- integral products -------------------------------------------------------

# verify_bounds tests exp(-HELLINGER_TAIL ||c_g||^2) as a lower bound on the
# affinity. To leading order it holds only where p(1-p) >= 5/24, which
# explicit-z leaves; `_hellinger_tail` is the proven factor of the tail.
HELLINGER_TAIL = 0.6


def _hellinger_tail(delta: float, tau: float) -> float:
    """A kappa with -log A(p, q) <= kappa (p - q)^2 on every coordinate
    outside a window whose cocycle mass outside is tau, for masses p, q in
    [delta, 1 - delta]; inf where the bound below gives none.

    Proof. With d = p - q, H = 1 - A = d^2/2 (1/(sqrt p + sqrt q)^2 +
    1/(sqrt(1-p) + sqrt(1-q))^2) (see `integral_products`), and (sqrt x +
    sqrt y)^2 >= 4 min(x, y), so H <= d^2/8 (1/s + 1/t) with s = min(p, q),
    t = min(1-p, 1-q), both >= delta and s + t = sigma = 1 - |d|; on that
    segment st >= delta (sigma - delta), so H <= c d^2 with c = sigma /
    (8 delta (sigma - delta)), which decreases in sigma. Outside the window
    d^2 <= tau, so |d| <= d* = min(sqrt tau, 1 - 2 delta) and c <= c* at
    sigma = 1 - d*. Then -log A = -log(1 - H) <= H/(1 - H) <= c*/(1 - H*)
    d^2 with H* = c* d*^2 < 1. As tau -> 0 this tends to 1/(8 delta (1 -
    delta)), the sup of -log A / d^2 near the diagonal at p = delta. It is
    rounded up by a relative 2^-40 for the few roundings here.
    """
    d = min(math.sqrt(tau), 1.0 - 2.0 * delta)
    sigma = 1.0 - d
    c = sigma / (8.0 * delta * (sigma - delta))
    h = c * d * d
    return c / (1.0 - h) * (1.0 + 2.0**-40) if h < 1.0 else math.inf


def integral_products(spec: ActionSpec, g, tol: float = 1e-6) -> tuple:
    """(integral of sqrt(omega(g, .)), integral of omega(g, .)^-2), each one
    log-space sum over the float pairs (p, q) = (F(h), F(gh)) of the window of
    c_{g^-1}, whose extent grows until the cocycle mass tau outside is <= tol
    or it reaches MAX_EXTENT. Per coordinate, with d = p - q, the m factors are
    A = sqrt(pq) + sqrt((1-p)(1-q)) = 1 - H and N = p^3/q^2 + (1-p)^3/(1-q)^2:
        H = d^2/2 (1/(sqrt p + sqrt q)^2 + 1/(sqrt(1-p) + sqrt(1-q))^2),
        N - 1 = d^2 ((p + 2q)/q^2 + ((1-p) + 2(1-q))/(1-q)^2),
    sums of nonnegative terms. The factors outside, in
    [exp(-_hellinger_tail tau), 1] and [1, exp(kappa0 tau)], shift the log ends.

    Rounding, for the window's floats (u = 2^-53, gamma_k = ku/(1-ku)): p, q,
    1-p, 1-q >= 2^-36 (checked), so +, -, *, /, sqrt err by u relative, and
    numpy's log1p and exp are taken to err by 2 ulp = 4u (numpy's own accuracy
    tests hold them to 1). (1) H and N - 1 carry 11 roundings, a sqrt halving
    its argument's: gamma_11 relative, say t. (2) For x = N - 1,
    log1p(x(1+t)) - log1p(x) = log1p(xt/(1+x)) and x/(1+x) <= log1p(x); for
    log A = log1p(-H) the move is log1p(-Ht/A), H <= -log A and A >= a =
    min(p, q) + min(1-p, 1-q) over the window. So, with log1p's own 4u, each
    summed log is within e of itself, relative, e <= 1.001u(11/a + 4) (a = 1
    for N). (3) np.sum is numpy's pairwise sum: up to 128 terms in 8
    accumulators (<= 15 additions each), a 3-level tree and <= 7 more;
    longer arrays halved at a multiple of 8, in <= bit_length(n) levels. So a
    term meets <= k = 26 + bit_length(n) additions and, the terms sharing one
    sign, the sum is within ((1+e)(1+gamma_k) - 1)|T| of the exact T. (4) For
    x = fl(m sum), |x - mT| <= r = 1.1u(11/a + k + 5)|x|, the 1.1 covering
    second order and the rounding of r and a. (5) The ends x -+ r + shift -+
    pad are formed within 4.2us, s = |x| + r + |shift| + 1 (the float kappa0
    included), and exp's 4u is a 5u move of its argument, so pad = 16us
    covers both. exp is relative only on normal floats: a lower end below
    them becomes 0, an upper end at least 2^-1021, and a lower end that
    overflows the largest float, with the upper inf (an omega^-2 product past
    the float range, null in reports).
    """
    window = _product_window(spec, g, tol)
    return _hellinger(spec, window), _negsq(spec, window)


def hellinger_product(spec: ActionSpec, g, tol: float = 1e-6) -> BoundedValue:
    """The integral of sqrt(omega(g, .)); see `integral_products`."""
    return _hellinger(spec, _product_window(spec, g, tol))


def negsq_product(spec: ActionSpec, g, tol: float = 1e-6) -> BoundedValue:
    """The integral of omega(g, .)^-2; see `integral_products`."""
    return _negsq(spec, _product_window(spec, g, tol))


def _product_window(spec: ActionSpec, g, tol: float):
    """The window of `integral_products` as float arrays
    (p, q, 1 - p, 1 - q, (p - q)^2), with a = min(p, q) + min(1-p, 1-q) over
    it and the cocycle mass tau outside, or None if g is the identity."""
    if not 0 < tol < math.inf:
        raise SpecError(f"tol must be positive and finite, got {tol}")
    if is_identity(g):
        return None
    import numpy as np

    # the extent is fixed from the tail alone, so the window is built once
    gi, m = inv(g), spec.multiplicity
    extent = 4096
    while (tail := spec.family.tail(gi, extent) * m) > tol and extent < MAX_EXTENT:
        extent *= 4
    p, q = _window(spec, gi, extent)
    low = min(p.min(initial=0.5), q.min(initial=0.5))
    high = 1.0 - max(p.max(initial=0.5), q.max(initial=0.5))
    if min(low, high) < 2.0**-36:
        raise SpecError("window masses within 2^-36 of 0 or 1")
    return p, q, 1.0 - p, 1.0 - q, np.square(p - q), low + high, tail


def _hellinger(spec: ActionSpec, window) -> BoundedValue:
    if window is None:
        return BoundedValue.from_exact(1)
    import numpy as np

    p, q, p1, q1, d2, a, tail = window
    h = 0.5 * (d2 / np.square(np.sqrt(p) + np.sqrt(q))
               + d2 / np.square(np.sqrt(p1) + np.sqrt(q1)))
    kappa = _hellinger_tail(float(spec.delta), tail) if tail > 0.0 else 0.0
    return _log_bracket(spec, np.log1p(-h), a, -kappa * tail)


def _negsq(spec: ActionSpec, window) -> BoundedValue:
    if window is None:
        return BoundedValue.from_exact(1)
    import numpy as np

    p, q, p1, q1, d2, _, tail = window
    n1 = d2 * ((p + 2.0 * q) / np.square(q) + (p1 + 2.0 * q1) / np.square(q1))
    return _log_bracket(spec, np.log1p(n1), 1.0, float(kappa0(spec.delta)) * tail)


def _log_bracket(spec: ActionSpec, logs, a: float, shift: float) -> BoundedValue:
    """The bracket of exp(m·sum(logs) + s) over s between 0 and `shift`,
    padded by the rounding radius proved in `integral_products`."""
    import numpy as np

    x = spec.multiplicity * float(np.sum(logs))
    k = 26 + logs.size.bit_length()
    r = 1.1 * _U * (11.0 / a + k + 5) * abs(x)
    # a shift of -inf (no proven tail factor) makes the lower end 0 alone
    pad = 16.0 * _U * (abs(x) + r + (abs(shift) if shift > -math.inf else 0.0) + 1.0)
    with np.errstate(over="ignore"):
        lo, hi = np.exp([x - r + min(shift, 0.0) - pad,
                         x + r + max(shift, 0.0) + pad]).tolist()
    lo = 0.0 if lo < 2.0**-1022 else min(lo, math.nextafter(math.inf, 0.0))
    return BoundedValue.from_bracket(lo, max(hi, 2.0**-1021))


# --- nonamenability ----------------------------------------------------------

def kesten_norm(rank: int) -> float:
    """Operator norm of the sum of the 2n generator unitaries: 2 sqrt(2n-1)."""
    if rank < 2:
        raise SpecError("Kesten norm applies to free groups of rank >= 2")
    return 2.0 * math.sqrt(2.0 * rank - 1.0)


def nonamenability_check(spec: ActionSpec) -> dict:
    """Lower end of the Hellinger sum over the symmetric generators against
    the Kesten norm."""
    if not isinstance(spec.group, FreeGroup):
        raise SpecError("nonamenability check requires a free group")
    rank = spec.group.rank
    per_gen = {}
    total_lo = 0.0
    for g in (Word(rank, ((i, e),)) for i in range(1, rank + 1) for e in (1, -1)):
        hv = hellinger_product(spec, g)
        per_gen[format_element(g)] = {"value": hv.value, "err": hv.err}
        total_lo += hv.lower
    threshold = kesten_norm(rank)
    return {
        "sum_lower": total_lo,
        "kesten_norm": threshold,
        "nonamenable": total_lo > threshold,
        "per_generator": per_gen,
    }


# --- Monte Carlo -------------------------------------------------------------

def _mc_coords(spec: ActionSpec, g, radius: int):
    if spec.family.on_ball and radius < word_length(g):
        raise SpecError("window too small to cover the cocycle support")
    return _window(spec, g, radius)


# The samples are drawn in chunks of rows whose uniforms plus per-sample
# vectors take about this many doubles (0.5 MiB), so the sampler's memory
# does not grow with the number of samples.
_MC_CHUNK_DOUBLES = 2**16

# Coordinates with the same float pair (p, q) that occur at least this many
# times in the window (a run) are drawn together, as one binomial count per
# sample. Measured on a 2-core host, on one thread, in chunks of 129 rows
# (500 single coordinates beside R runs): a per-coordinate draw (uniform,
# comparison, dot product) costs 3.4 ns per sample; a run's count (uniform,
# `_run_counts`, product) costs 45 ns per sample with 4 runs of 16 and 19 ns
# with 32, mostly a fixed cost per chunk. So runs of 16 cost 14% (4 runs) to
# 66% (32 runs) less than drawing their coordinates one by one, and runs of
# 8 from 55% more to 40% less. The threshold stays at 16 even so: another
# one regroups the coordinates and so redraws every report, which waits for
# the exact means of ROADMAP item 7.
_MC_RUN_MIN = 16


def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """P(N <= j) for N ~ Binomial(n, p) and j = 0, ..., n, as floats.

    The weights start at 1 at the mode and follow the ratio
    P(j+1)/P(j) = (n-j)/(j+1) · p/(1-p) outward, so none overflows (those far
    in the tails may underflow to 0); they are then normalised and summed,
    with a rounding error of a few n ulps (measured under 1e-15 for n up to
    4000). The entries are clipped to 1 and the last one is exactly 1, so
    that a uniform u in [0, 1) has searchsorted(cdf, u, "right") in 0..n.
    """
    import numpy as np

    j = np.arange(n, dtype=float)
    mode = min(int((n + 1) * p), n)
    w = np.ones(n + 1)
    odds = p / (1.0 - p)
    w[mode + 1:] = np.cumprod((n - j[mode:]) / (j[mode:] + 1.0) * odds)
    w[:mode] = np.cumprod(((j[:mode] + 1.0) / (n - j[:mode]) / odds)[::-1])[::-1]
    cdf = np.minimum(np.cumsum(w / w.sum()), 1.0)
    cdf[-1] = 1.0
    return cdf


def _count_tables(cdfs: list) -> tuple:
    """Exact inverse-CDF count tables for the runs' CDFs, built once per
    `mc_omega` call, as (scale, table, table_start, keys); see `_run_counts`.

    Run j's CDF c of L entries, at s_j in the runs' concatenation, gets K_j
    bins, the least power of two >= max(2L, F) with F = 2^floor(log2(2^12/R))
    over the call's R runs, and one int32 entry for each bin b = 0, ..., K_j
    (the last one takes the entries equal to 1). Its 4(K_j + 1) bytes are at
    most twice the CDF's 8L if K_j < 4L, and 4F + 4 otherwise; as RF <= 2^12,
    the tables take at most twice the CDFs' bytes plus 16 KiB. F gives a
    call with few runs fine bins, so that fewer of its uniforms fall in open
    bins (see `_run_counts`). With lo = #{c <= b/K_j} and
    hi = #{c < (b+1)/K_j}, a closed bin (lo = hi) holds lo and an open one
    -1 - s_j. `keys` holds every entry as the complex number B + cK_j·i, B
    the index of its bin in `table`, and takes twice the CDFs' bytes. Every
    value is exact: counts, bin indices, and c scaled by a power of two.
    numpy orders complex numbers by real part, then by imaginary part, so
    the keys are sorted.
    """
    import numpy as np

    sizes = [len(cdf) for cdf in cdfs]
    fine = 1 << max(0, (2**12 // max(len(cdfs), 1)).bit_length() - 1)
    bins = [max(1 << (2 * size - 1).bit_length(), fine) for size in sizes]
    table_start = np.cumsum([0] + [k + 1 for k in bins])
    key_start = np.cumsum([0] + sizes)
    tables, reals, imags = [np.zeros(0, np.int32)], [[]], [[]]
    for j, (cdf, k) in enumerate(zip(cdfs, bins)):
        edges = np.arange(k + 2) / k
        lo = np.searchsorted(cdf, edges[:-1], side="right")
        hi = np.searchsorted(cdf, edges[1:], side="left")
        tables.append(np.where(lo == hi, lo, -1 - key_start[j]).astype(np.int32))
        reals.append(table_start[j] + np.floor(cdf * k))
        imags.append(cdf * k)
    keys = np.empty(key_start[-1], complex)
    keys.real, keys.imag = np.concatenate(reals), np.concatenate(imags)
    return (np.array(bins, dtype=float)[:, None], np.concatenate(tables),
            table_start[:-1, None], keys)


def _run_counts(tables: tuple, u: np.ndarray, scaled: np.ndarray,
                idx: np.ndarray) -> np.ndarray:
    """searchsorted(cdf_j, u[j], "right") for every run j at once, as an
    int32 array shaped like u, whose row j holds uniforms in [0, 1) for run
    j. `tables` comes from `_count_tables`. `scaled` (float) and `idx`
    (intp) are C-ordered work arrays shaped like u that receive uK_j and
    the bins' indices in `table`; u is read in full first, so `idx` may
    share its memory. The counts are exact:
      - K_j is a power of two, so b = floor(uK_j) is exact, and
        b/K_j <= u < (b+1)/K_j;
      - so lo <= #{c <= u} <= hi in bin b, and a closed bin holds the count;
      - a uniform in an open bin is counted against the CDF itself: one
        searchsorted over the keys, for B + uK_j·i, gives s_j + #{c <= u}.
    The share of a run's uniforms in open bins is 1.9 and 1.7% on
    f2-dissipative's two runs of 128 and 129 at window 256 (K = 2048; 6.6
    and 5.9% at K = 512), 0.8% on folner-z's two runs of 20 (K = 2048; 19%
    at 64) and 5 to 12% on f2-dissipative's 30 runs at window 4096 (K of
    256 to 1024). The work is the same few numpy calls whatever the number
    of runs.
    """
    import numpy as np

    scale, table, table_start, keys = tables
    np.multiply(u, scale, out=scaled)
    np.copyto(idx, scaled, casting="unsafe")  # truncates: floor(uK_j)
    idx += table_start
    counts = table[idx]
    flat = counts.reshape(-1)
    todo = np.flatnonzero(flat < 0)
    if todo.size:
        query = np.empty(todo.size, complex)
        query.real, query.imag = idx.reshape(-1)[todo], scaled.reshape(-1)[todo]
        flat[todo] += np.searchsorted(keys, query, side="right") + 1
    return counts


def _mc_sums(gen, m: int, p_single, diff_single, base: float, tables: tuple,
             diff_runs, n: int) -> np.ndarray:
    """The sums of w, sqrt(w) and w^-2 (row 0) and of their squares (row 1)
    over n samples of omega, as a (2, 3) array, read from `gen` in order.

    `p_single` and `diff_single` (log r0 - log r1) belong to the k
    coordinates drawn one by one; `tables` (from `_count_tables`) and the
    (R x 1) column `diff_runs` to the R runs, each drawn as one binomial
    count per sample; `base` is log omega at the draw that takes log r1
    everywhere.

    The samples go in chunks of r rows. A chunk draws one (r x m·k) array of
    uniforms, a row per sample holding its m copies of the k coordinates,
    and then one (r x R) array with a uniform per run. A coordinate with
    uniform u takes log r0 if u < p and log r1 otherwise; a run takes the
    number of its CDF's entries at or below u, read from its count table
    (`_run_counts`) in the transposed (R x r) layout. Row 0 of `terms` holds
    log omega and row 1 + j run j's count times its log r0 - log r1; one
    np.add.reduce down the rows adds them to log omega in run order, one
    addition at a time, as numpy reduces a C-ordered block of two or more
    columns row by row (a single column it would sum pairwise, so the block
    is kept two wide). A chunk's arrays take about 2 MiB at most, whatever
    n; the tables are shared and grow with the window. Only numpy is called
    here, so that this can run on a worker thread.
    """
    import numpy as np

    cols, n_runs = m * len(diff_single), len(diff_runs)
    p_all, diff_all = np.tile(p_single, m), np.tile(diff_single, m)
    rows = max(1, _MC_CHUNK_DOUBLES // (max(cols, n_runs) + 8))
    buf = np.empty(min(rows, n) * max(cols, n_runs))
    # at least two columns: numpy reduces a single column pairwise
    terms = np.zeros((n_runs + 1, max(min(rows, n), 2)))
    sums = np.zeros((2, 3))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            r = min(rows, n - lo)
            u = buf[:r * cols].reshape(r, cols)
            gen.random(out=u)
            # u becomes the 0.0/1.0 indicator of u < p, in place
            np.less(u, p_all, out=u, casting="unsafe")
            # BLAS gemv, whatever k; np.matmul gives the same bits but does
            # not call BLAS when k = 1
            logw = np.dot(u, diff_all, out=terms[0, :r])
            logw += base
            if n_runs:
                u = buf[:r * n_runs].reshape(r, n_runs)
                gen.random(out=u)
                runs = terms[1:, :r]
                idx = buf[:r * n_runs].view(np.intp).reshape(n_runs, r)
                np.multiply(_run_counts(tables, u.T, runs, idx), diff_runs, out=runs)
            # w, sqrt(w) and w^-2 per sample, allocated once the counts'
            # temporaries are freed and freed before the next chunk's; row 0
            # first takes log w
            stats = np.empty((3, max(r, 2)))
            np.add.reduce(terms[:, :max(r, 2)], axis=0, out=stats[0])
            a = stats[:, :r]
            np.exp(a[0], out=a[0])
            np.sqrt(a[0], out=a[1])
            np.power(a[0], -2.0, out=a[2])
            # each row is summed pairwise, as a 1-d array would be
            sums[0] += a.sum(axis=1)
            sums[1] += np.square(a, out=a).sum(axis=1)
            del stats, a
    return sums


def mc_omega(spec: ActionSpec, g, radius: int, samples: int, seed: int) -> dict:
    """Monte Carlo estimates of omega, sqrt(omega) and omega^-2 under mu.

    The coordinates are `cocycles._window(spec, g, radius)`: the pairs
    (F(h), F(g^-1 h)) over the window of c_g where they differ, as float
    arrays. The product is truncated to the window; for finitely supported
    families the window must cover the support. Deterministic given the
    seed, which must be a nonnegative int.

    Coordinates that share their float pair (p, q) with at least
    `_MC_RUN_MIN` - 1 others form a run. A run of n coordinates is drawn as
    one count N ~ Binomial(m·n, p), by inverse CDF from one uniform, and adds
    N·(log r0 - log r1) + m·n·log r1 to log omega: the same law as n·m
    Bernoulli draws, at one draw per sample whatever n. The count is read
    from a table built once per call (`_count_tables`): K a power of two
    makes the uniform's bin exact, the table brackets the count in each bin,
    and the uniforms in the bins where the bracket is open are counted
    against the CDF itself, so N equals searchsorted(cdf, u, "right") for
    every uniform. K is at least 2(mn + 1) and, over R runs, at least
    2^floor(log2(2^12/R)), so the tables take at most twice the CDFs' bytes
    plus 16 KiB. The other k coordinates are drawn one uniform each, in
    window order.

    The samples are split into two fixed halves, the first taking the odd
    one. Half i reads its own PCG64 stream, `substream_rng(seed,
    f"{g}|{radius}|{i}")`, in order (see `_mc_sums`); a worker thread draws
    half 1 while the calling thread draws half 0, and their sums are added
    half 0 first, so the report depends only on the seed. An estimate that
    overflows is returned as inf or nan.
    """
    import numpy as np

    if samples < 10**3:
        raise SpecError("need at least 1000 samples")
    if seed < 0:
        raise SpecError(f"seed must be nonnegative, got {seed}")
    if radius < 0:
        raise SpecError(f"window must be nonnegative, got {radius}")
    if is_identity(g):
        return {
            "mean_omega": 1.0, "se_omega": 0.0,
            "mean_sqrt_omega": 1.0, "se_sqrt_omega": 0.0,
            "mean_negsq_omega": 1.0, "se_negsq_omega": 0.0,
            "n_coordinates": 0, "truncation_note": "identity element",
        }
    p0, q = _mc_coords(spec, g, radius)
    m = spec.multiplicity
    log_r0 = np.log(q / p0)
    log_r1 = np.log((1.0 - q) / (1.0 - p0))
    # sum_i log r_i(u_i) = sum_i [u_i < p0_i] (log_r0 - log_r1)_i + sum_i log_r1_i
    log_diff = log_r0 - log_r1
    # runs in increasing order of (p, q): numpy orders complex numbers by
    # real part, then by imaginary part
    pairs, first, inverse, counts = np.unique(
        p0 + 1j * q, return_index=True, return_inverse=True, return_counts=True)
    grouped = counts >= _MC_RUN_MIN
    run_p, run_first = pairs.real[grouped], first[grouped]
    run_coords = m * counts[grouped]
    tables = _count_tables([_binomial_cdf(mn, p) for p, mn
                            in zip(run_p.tolist(), run_coords.tolist())])
    diff_runs = log_diff[run_first, None]
    single = ~grouped[inverse]
    p_single, diff_single = p0[single], log_diff[single]
    # log r1 summed over the single coordinates, then over the runs in order
    base = m * log_r1[single].sum() + sum((run_coords * log_r1[run_first]).tolist())
    args = (m, p_single, diff_single, base, tables, diff_runs)
    gens = [substream_rng(seed, f"{format_element(g)}|{radius}|{i}") for i in (0, 1)]
    # imported here, not at the top: it would add about 5 ms to every CLI
    # start, and only the sampler needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        half1 = pool.submit(_mc_sums, gens[1], *args, samples // 2)
        half0 = _mc_sums(gens[0], *args, samples - samples // 2)
        sums, sqsums = half0 + half1.result()
    with np.errstate(over="ignore", invalid="ignore"):
        means = sums / samples
        var = np.maximum(sqsums / samples - means**2, 0.0)
        ses = np.sqrt(var / samples)
    note = ("window covers support" if spec.family.finite
            else f"product truncated to {len(p0)} coordinates")
    return {
        "mean_omega": float(means[0]), "se_omega": float(ses[0]),
        "mean_sqrt_omega": float(means[1]), "se_sqrt_omega": float(ses[1]),
        "mean_negsq_omega": float(means[2]), "se_negsq_omega": float(ses[2]),
        "n_coordinates": len(p0), "truncation_note": note,
    }
