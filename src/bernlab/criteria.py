"""Conservative/dissipative verdicts with re-checkable certificates, exact
Hellinger-type integral products, the Zimmer-nonamenability test against the
Kesten norm, and Monte Carlo estimates of the Radon-Nikodym cocycle."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import groups
from .cocycles import BoundedValue, affinity_pairs, norm_sq, value_pairs
from .exact import parse_fraction
from .groups import FreeGroup, Word, format_element, inv, word_length
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

def criterion_partial_sums(spec: ActionSpec, kappa: float, radius: int):
    """Cumulative brackets of sum_{|g| <= n} exp(-kappa ||c_g||^2)."""
    if kappa <= 0:
        raise SpecError("kappa must be positive")
    rows = []
    lo_cum = hi_cum = 0.0
    for n in range(radius + 1):
        for g in groups.sphere(spec.group, n):
            nv = norm_sq(spec, g, tol=1e-4)
            lo_cum += math.exp(-kappa * nv.upper)
            hi_cum += math.exp(-kappa * max(nv.lower, 0.0))
        rows.append({"radius": n, "lower": lo_cum, "upper": hi_cum})
    return rows


# --- classification ----------------------------------------------------------

def witness_partial_sum(fam, kappa: float, m: int, levels: int,
                        n_terms: int) -> float:
    """Partial sum of exp(-kappa ||c_g||^2) over the witness subfamily of a
    WSplit family with subgroup length <= levels and inner exponents <= n_terms."""
    q, const = fam.witness_q(kappa, m, n_terms)
    total = 0.0
    for k in range(1, levels + 1):
        total += const * q**k
    return total


def classify_conservativity(spec: ActionSpec, kappa=None) -> CriterionVerdict:
    """Verdict with a machine-checkable certificate.

    Dissipative needs a summable sphere-weighted majorant of
    exp(-||c||^2 / 2); Conservative needs a divergent minorant of
    exp(-kappa ||c||^2) for some kappa above the threshold kappa0(delta).
    """
    k0 = float(kappa0(spec.delta))
    kap = float(kappa) if kappa is not None else float(auto_kappa(spec.delta))
    found = spec.family.certificate(spec.multiplicity, kap, k0)
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
    found = spec.family.certificate(spec.multiplicity, verdict.kappa,
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
    if word_length(g) == 0:
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
    pairs = [(float(p), float(q)) for _, p, q in value_pairs(spec, inv(g), radius)]
    p, q = np.array(pairs, dtype=float).reshape(-1, 2).T
    return p, q / p, (1.0 - q) / (1.0 - p)


def mc_omega(spec: ActionSpec, g, radius: int, samples: int, seed: int) -> dict:
    """Monte Carlo estimates of omega, sqrt(omega) and omega^-2 under mu.

    The product is truncated to the window; for finitely supported families
    the window must cover the support. Deterministic given the seed.
    """
    if samples < 10**3:
        raise SpecError("need at least 1000 samples")
    if word_length(g) == 0:
        return {
            "mean_omega": 1.0, "se_omega": 0.0,
            "mean_sqrt_omega": 1.0, "se_sqrt_omega": 0.0,
            "mean_negsq_omega": 1.0, "se_negsq_omega": 0.0,
            "n_coordinates": 0, "truncation_note": "identity element",
        }
    p0, lr0, lr1 = _mc_coords(spec, g, radius)
    m = spec.multiplicity
    log_r0 = np.log(lr0)
    log_r1 = np.log(lr1)
    # sum_i log r_i(u_i) = sum_i [u_i < p0_i] (log_r0 - log_r1)_i + sum_i log_r1_i
    log_diff = log_r0 - log_r1
    log_r1_sum = log_r1.sum()
    rng = substream_rng(seed, f"{format_element(g)}|{radius}")
    sums = np.zeros(3)
    sqsums = np.zeros(3)
    block = max(1, min(samples, 2 * 10**6 // max(len(p0), 1)))
    done = 0
    while done < samples:
        n = min(block, samples - done)
        logw = np.zeros(n)
        for _ in range(m):
            u = rng.random((n, len(p0)))
            logw += (u < p0).astype(float) @ log_diff + log_r1_sum
        w = np.exp(logw)
        for idx, arr in enumerate((w, np.sqrt(w), w**-2)):
            sums[idx] += arr.sum()
            sqsums[idx] += (arr * arr).sum()
        done += n
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

