"""Conservative/dissipative verdicts with re-checkable certificates, exact
Hellinger-type integral products, the Zimmer-nonamenability test against the
Kesten norm, and Monte Carlo estimates of the Radon-Nikodym cocycle."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import groups
from .cocycles import BoundedValue, affinity_pairs, norm_sq, value_pairs
from .exact import parse_fraction
from .groups import FreeGroup, Word, format_element, inv, word_length
from .marginals import ActionSpec, SpecError, sample_window

__all__ = [
    "CriterionVerdict",
    "RNSample",
    "kappa0",
    "auto_kappa",
    "criterion_partial_sums",
    "classify_conservativity",
    "verify_certificate",
    "witness_partial_sum",
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


def verify_certificate(verdict: CriterionVerdict) -> bool:
    """Re-check a stored certificate from its own data."""
    ev = verdict.evidence
    if verdict.verdict == "Dissipative":
        if ev.get("certificate") == "geometric":
            rho, beta, head = ev["rho"], ev["beta"], ev["head"]
            return 0.0 < rho < 1.0 and head + beta * rho / (1.0 - rho) < math.inf
        if ev.get("certificate") == "integral-test":
            return ev["exponent"] > 1.0 and ev["tail_bound"] < math.inf
        return False
    if verdict.verdict == "Conservative":
        if "q" in ev:
            return ev["q"] >= 1.0
        if "exponent" in ev:
            return ev["exponent"] <= 1.0 or "log" in ev["minorant"]
        return "minorant" in ev
    return False


# --- integral products -------------------------------------------------------

def _adaptive_pairs(spec, g, tol):
    extent = 4096
    while True:
        pairs, tail = affinity_pairs(spec, g, extent)
        if tail <= tol or extent >= 2**20:
            return pairs, tail
        extent *= 4


def hellinger_product(spec: ActionSpec, g, tol: float = 1e-6) -> BoundedValue:
    """Product of per-coordinate affinities sqrt(pq) + sqrt((1-p)(1-q)),
    i.e. the integral of sqrt(omega(g, .)).

    The truncated tail is bracketed by [exp(-(3/5) tau), 1] where tau bounds
    the cocycle mass left outside the window.
    """
    if word_length(g) == 0:
        return BoundedValue.from_exact(1)
    pairs, tail = _adaptive_pairs(spec, g, tol)
    head = 1.0
    for p, q in pairs:
        head *= math.sqrt(p * q) + math.sqrt((1.0 - p) * (1.0 - q))
    head = head ** spec.multiplicity
    lo = head * math.exp(-0.6 * tail)
    slack = 1e-12 * head
    return BoundedValue.from_bracket(max(lo - slack, 0.0), head + slack)


def negsq_product(spec: ActionSpec, g, tol: float = 1e-6) -> BoundedValue:
    """Product of per-coordinate factors p^3/q^2 + (1-p)^3/(1-q)^2, i.e. the
    integral of omega(g, .)^-2; the tail is bracketed by [1, exp(kappa0 tau)]."""
    if word_length(g) == 0:
        return BoundedValue.from_exact(1)
    pairs, tail = _adaptive_pairs(spec, g, tol)
    head = 1.0
    for p, q in pairs:
        head *= p**3 / q**2 + (1.0 - p) ** 3 / (1.0 - q) ** 2
    head = head ** spec.multiplicity
    k0 = float(kappa0(spec.delta))
    hi = head * math.exp(k0 * tail)
    slack = 1e-12 * hi
    return BoundedValue.from_bracket(max(head - slack, 0.0), hi + slack)


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

@dataclass(frozen=True)
class RNSample:
    g: object
    window: tuple
    configuration: tuple
    omega: float
    truncation_note: str


def _mc_rng(seed: int, g, radius: int) -> np.random.Generator:
    digest = hashlib.sha256(
        f"{format_element(g)}|{radius}".encode()
    ).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), key]))


def _mc_coords(spec: ActionSpec, g, radius: int):
    if spec.family.on_ball and radius < word_length(g):
        raise SpecError("window too small to cover the cocycle support")
    p0, r0, r1 = [], [], []
    coords = []
    for h, p, q in value_pairs(spec, inv(g), radius):
        p, q = float(p), float(q)
        if p == q:
            continue
        coords.append(h)
        p0.append(p)
        r0.append(q / p)
        r1.append((1.0 - q) / (1.0 - p))
    return coords, np.array(p0), np.array(r0), np.array(r1)


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
    coords, p0, lr0, lr1 = _mc_coords(spec, g, radius)
    m = spec.multiplicity
    log_r0 = np.log(lr0)
    log_r1 = np.log(lr1)
    rng = _mc_rng(seed, g, radius)
    sums = np.zeros(3)
    sqsums = np.zeros(3)
    block = max(1, min(samples, 2 * 10**6 // max(len(coords), 1)))
    done = 0
    while done < samples:
        n = min(block, samples - done)
        logw = np.zeros(n)
        for _ in range(m):
            u = rng.random((n, len(coords)))
            logw += np.where(u < p0, log_r0, log_r1).sum(axis=1)
        w = np.exp(logw)
        for idx, arr in enumerate((w, np.sqrt(w), w**-2)):
            sums[idx] += arr.sum()
            sqsums[idx] += (arr * arr).sum()
        done += n
    means = sums / samples
    var = np.maximum(sqsums / samples - means**2, 0.0)
    ses = np.sqrt(var / samples)
    note = ("window covers support" if spec.family.finite
            else f"product truncated to {len(coords)} coordinates")
    return {
        "mean_omega": float(means[0]), "se_omega": float(ses[0]),
        "mean_sqrt_omega": float(means[1]), "se_sqrt_omega": float(ses[1]),
        "mean_negsq_omega": float(means[2]), "se_negsq_omega": float(ses[2]),
        "n_coordinates": len(coords), "truncation_note": note,
    }


def rn_sample(spec: ActionSpec, g, radius: int, seed: int) -> RNSample:
    """One configuration over the support window with its truncated omega."""
    coords, p0, r0, r1 = _mc_coords(spec, g, radius)
    config = sample_window(spec, coords, seed)
    omega = 1.0
    for h, ratio0, ratio1 in zip(coords, r0, r1):
        omega *= ratio0 if config[h] == 0 else ratio1
    omega = omega ** spec.multiplicity
    return RNSample(
        g=g,
        window=tuple(coords),
        configuration=tuple(config[h] for h in coords),
        omega=omega,
        truncation_note=f"truncated to {len(coords)} coordinates",
    )
