"""Conservative/dissipative verdicts with re-checkable certificates, exact
Hellinger-type integral products, the Zimmer-nonamenability test against the
Kesten norm, and Monte Carlo estimates of the Radon-Nikodym cocycle."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# numpy is imported in the functions that use it (see the package docstring)

from .cocycles import BoundedValue, _window, affinity_pairs, norm_sq
from .exact import parse_fraction
from .groups import FreeGroup, Word, format_element, inv, is_identity, word_length
from .marginals import ActionSpec, SpecError, substream_rng

__all__ = [
    "CriterionVerdict",
    "kappa0",
    "auto_kappa",
    "criterion_partial_sums",
    "classify_conservativity",
    "verify_certificate",
    "witness_partial_sum",
    "integral_products",
    "hellinger_product",
    "negsq_product",
    "kesten_norm",
    "nonamenability_check",
    "mc_omega",
]


def kappa0(delta) -> Fraction:
    """Conservativeness threshold delta^-2 + delta^-1 (1-delta)^-2."""
    delta = parse_fraction(delta)
    if not (0 < delta <= Fraction(1, 2)):
        raise SpecError(f"delta must lie in (0, 1/2], got {delta}")
    return 1 / delta**2 + 1 / (delta * (1 - delta) ** 2)


def auto_kappa(delta) -> int:
    """Smallest integer strictly above kappa0(delta)."""
    k0 = kappa0(delta)
    k = int(k0) + 1
    return k if k > k0 else k + 1


@dataclass(frozen=True)
class CriterionVerdict:
    verdict: str  # Conservative | Dissipative | Inconclusive
    kappa: Optional[float] = None
    evidence: dict = field(default_factory=dict)


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

def witness_partial_sum(fam, kappa: float, m: int, levels: int,
                        n_terms: int) -> float:
    """Partial sum of exp(-kappa ||c_g||^2) over the witness subfamily of a
    WSplit family with subgroup length <= levels and inner exponents <= n_terms."""
    log_q, log_const = fam.witness_log_q(kappa, m, n_terms)
    return sum(math.exp(log_const + k * log_q) for k in range(1, levels + 1))


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

# exp(-HELLINGER_TAIL tau) is taken as the lower bound on the affinity of a
# cocycle mass tau, here and in verify_bounds against ||c_g||^2. To leading
# order it holds only where p(1-p) >= 5/24, which explicit-z leaves.
HELLINGER_TAIL = 0.6


def integral_products(spec: ActionSpec, g, tol: float = 1e-6) -> tuple:
    """(integral of sqrt(omega(g, .)), integral of omega(g, .)^-2), from one
    pass over the pairs of `affinity_pairs`.

    The per-coordinate factors are the affinity sqrt(pq) + sqrt((1-p)(1-q))
    and p^3/q^2 + (1-p)^3/(1-q)^2. With tau bounding the cocycle mass left
    outside the window, the truncated tails are bracketed by
    [exp(-HELLINGER_TAIL tau), 1] and [1, exp(kappa0 tau)]; the window's
    extent grows until tau <= tol or it reaches 2^20.
    """
    if is_identity(g):
        one = BoundedValue.from_exact(1)
        return one, one
    # the extent is fixed from the tail alone, so the window is built once
    gi, m = inv(g), spec.multiplicity
    extent = 4096
    while spec.family.tail(gi, extent) * m > tol and extent < 2**20:
        extent *= 4
    pairs, tail = affinity_pairs(spec, g, extent)
    hell = negsq = 1.0
    for p, q in pairs:
        hell *= math.sqrt(p * q) + math.sqrt((1.0 - p) * (1.0 - q))
        negsq *= p**3 / q**2 + (1.0 - p) ** 3 / (1.0 - q) ** 2
    hell = hell ** m
    lo = hell * math.exp(-HELLINGER_TAIL * tail)
    slack = 1e-12 * hell
    sqrt_omega = BoundedValue.from_bracket(max(lo - slack, 0.0), hell + slack)
    try:
        negsq = negsq ** m
        hi = negsq * math.exp(float(kappa0(spec.delta)) * tail)
    except OverflowError:
        negsq = hi = math.inf
    if hi == math.inf:
        # Each factor is >= 1 by Jensen's inequality, so a product that
        # overflowed is at least the float maximum, up to rounding.
        lo = min(negsq, sys.float_info.max) * (1.0 - 1e-12)
        return sqrt_omega, BoundedValue.from_bracket(lo, math.inf)
    slack = 1e-12 * hi
    return sqrt_omega, BoundedValue.from_bracket(max(negsq - slack, 0.0), hi + slack)


def hellinger_product(spec: ActionSpec, g, tol: float = 1e-6) -> BoundedValue:
    """The integral of sqrt(omega(g, .)); see `integral_products`."""
    return integral_products(spec, g, tol)[0]


def negsq_product(spec: ActionSpec, g, tol: float = 1e-6) -> BoundedValue:
    """The integral of omega(g, .)^-2; see `integral_products`."""
    return integral_products(spec, g, tol)[1]


# --- nonamenability ----------------------------------------------------------

def kesten_norm(rank: int) -> float:
    """Operator norm of the sum of the 2n generator unitaries: 2 sqrt(2n-1)."""
    if rank < 2:
        raise SpecError("Kesten norm applies to free groups of rank >= 2")
    return 2.0 * math.sqrt(2.0 * rank - 1.0)


def nonamenability_check(spec: ActionSpec, generators=None) -> dict:
    if not isinstance(spec.group, FreeGroup):
        raise SpecError("nonamenability check requires a free group")
    rank = spec.group.rank
    if generators is None:
        generators = []
        for i in range(1, rank + 1):
            generators.append(Word(rank, ((i, 1),)))
            generators.append(Word(rank, ((i, -1),)))
    else:
        gens = set(generators)
        if any(inv(g) not in gens for g in gens):
            raise SpecError("generator set must be symmetric")
    per_gen = {}
    total_lo = 0.0
    for g in generators:
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
# sample. Measured on a 2-core host: an inverse-CDF count costs 25 to 50 ns per
# run and sample, a per-coordinate draw 3.5 to 5 ns. Beside 500 single
# coordinates, grouping runs of 8 or 12 took -2% to +4% of the time and runs
# of 16 or 24 -2% to -9%; folner-z's window 4096 (two runs of 12) took +5%.
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


def _mc_sums(gen, m: int, p_single, diff_single, log_r1_sum: float, runs: list,
             n: int) -> np.ndarray:
    """The sums of w, sqrt(w) and w^-2 (row 0) and of their squares (row 1)
    over n samples of omega, as a (2, 3) array, read from `gen` in order.

    `p_single`, `diff_single` (log r0 - log r1) and `log_r1_sum` belong to the
    k coordinates drawn one by one; `runs` holds a (cdf, log r0 - log r1,
    m·n·log r1) triple for each run of n coordinates, drawn as one
    Binomial(m·n, p) count per sample.

    The samples go in chunks of r rows. A chunk draws one (r x m·k) array of
    uniforms, a row per sample holding its m copies of the k coordinates,
    and then one (r x R) array with a uniform per run (R = len(runs)). A
    coordinate with uniform u takes log r0 if u < p and log r1 otherwise; a
    run takes the count searchsorted(cdf, u, "right"). Only numpy is called
    here, so that this can run on a worker thread.
    """
    import numpy as np

    cols, n_runs = m * len(diff_single), len(runs)
    p_all, diff_all = np.tile(p_single, m), np.tile(diff_single, m)
    base = m * log_r1_sum + sum(const for _, _, const in runs)
    rows = max(1, _MC_CHUNK_DOUBLES // (max(cols, n_runs) + 8))
    buf = np.empty(min(rows, n) * max(cols, n_runs))
    sums = np.zeros((2, 3))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            r = min(rows, n - lo)
            u = buf[:r * cols].reshape(r, cols)
            gen.random(out=u)
            # u becomes the 0.0/1.0 indicator of u < p, in place
            np.less(u, p_all, out=u, casting="unsafe")
            logw = u @ diff_all + base
            if n_runs:
                u = buf[:r * n_runs].reshape(r, n_runs)
                gen.random(out=u)
                for j, (cdf, diff, _) in enumerate(runs):
                    logw += np.searchsorted(cdf, u[:, j], side="right") * diff
            w = np.exp(logw)
            for i, a in enumerate((w, np.sqrt(w), w**-2)):
                sums[0, i] += a.sum()
                sums[1, i] += (a * a).sum()
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
    Bernoulli draws, at one draw per sample whatever n. The other k
    coordinates are drawn one uniform each, in window order.

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
    # runs in increasing order of (p, q)
    pairs, first, inverse, counts = np.unique(
        np.stack([p0, q], axis=1), axis=0,
        return_index=True, return_inverse=True, return_counts=True)
    grouped = counts >= _MC_RUN_MIN
    runs = [(_binomial_cdf(m * n, p), log_diff[i], m * n * log_r1[i])
            for (p, _), i, n in zip(pairs[grouped], first[grouped],
                                    counts[grouped].tolist())]
    single = ~grouped[inverse.reshape(-1)]
    p_single, diff_single = p0[single], log_diff[single]
    log_r1_sum = log_r1[single].sum()
    gens = [substream_rng(seed, f"{format_element(g)}|{radius}|{i}") for i in (0, 1)]
    # imported here, not at the top: it would add about 5 ms to every CLI
    # start, and only the sampler needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        half1 = pool.submit(_mc_sums, gens[1], m, p_single, diff_single, log_r1_sum,
                            runs, samples // 2)
        half0 = _mc_sums(gens[0], m, p_single, diff_single, log_r1_sum, runs,
                         samples - samples // 2)
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
