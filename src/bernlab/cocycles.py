"""Cocycle coefficients c_g(i) = F(i) - F(g^{-1} i) and certified norms.

norm_sq uses the family's closed form (exact rational where the cocycle is
finitely supported, certified truncation otherwise); norm_sq_bruteforce is an
independent pointwise oracle over explicit index windows.
"""
from __future__ import annotations

from .exact import BoundedValue
from .groups import Element, inv, mul, word_length
from .marginals import ActionSpec, SpecError, f_value

__all__ = [
    "BoundedValue",
    "cocycle_coeff",
    "norm_sq",
    "norm_sq_bruteforce",
    "support_elements",
    "value_pairs",
    "affinity_pairs",
]


def cocycle_coeff(spec: ActionSpec, g: Element, h: Element):
    """c_g(h); exact rational whenever the family is rational-valued."""
    a = f_value(spec, h)
    b = f_value(spec, mul(inv(g), h))
    return a - b


def norm_sq(spec: ActionSpec, g: Element, tol: float = 1e-6) -> BoundedValue:
    """||c_g||_2^2, multiplied by the diagonal-power multiplicity."""
    if tol <= 0:
        raise SpecError("tol must be positive")
    if word_length(g) == 0:
        return BoundedValue.from_exact(0)
    m = spec.multiplicity
    return spec.family.norm_sq(g, tol / max(m, 1)).scaled(m)


def support_elements(spec: ActionSpec, g: Element, extent: int):
    """Index points where c_g can be nonzero, each yielded once.

    extent controls the truncation depth for infinitely supported families.
    """
    if word_length(g) == 0:
        return
    yield from spec.family.support(g, extent)


def norm_sq_bruteforce(spec: ActionSpec, g: Element, radius: int) -> BoundedValue:
    """Pointwise oracle: sums c_g(h)^2 over an explicit window and attaches
    the family tail bound."""
    if word_length(g) == 0:
        return BoundedValue.from_exact(0)
    if radius < word_length(g):
        raise SpecError("radius must cover the word length")
    m = spec.multiplicity
    fam = spec.family
    if fam.on_ball:
        return BoundedValue.from_exact(fam.ball_norm_sq(g, radius)).scaled(m)
    total = 0.0
    for h in support_elements(spec, g, radius):
        d = float(cocycle_coeff(spec, g, h))
        total += d * d
    return BoundedValue.from_truncation(total, fam.tail(g, radius)).scaled(m)


def value_pairs(spec: ActionSpec, g: Element, extent: int):
    """(h, F(h), F(g h)) for every h in the window of c_{g^-1} where the two
    values differ: the coordinates where omega(g, .) is not 1."""
    for h in support_elements(spec, inv(g), extent):
        p, q = f_value(spec, h), f_value(spec, mul(g, h))
        if p != q:
            yield h, p, q


def affinity_pairs(spec: ActionSpec, g: Element, extent: int = 4096):
    """Pairs (F(i), F(g i)) over the coordinates where they differ, plus a
    bound on the cocycle mass left outside the window.

    The pairs drive the per-coordinate Hellinger and negative-square products;
    the tail bound turns their truncation into a certificate.
    """
    pairs = [(float(p), float(q)) for _, p, q in value_pairs(spec, g, extent)]
    tail = spec.family.tail(inv(g), extent)
    pairs.sort(key=lambda pq: abs(pq[0] - pq[1]), reverse=True)
    return pairs, tail * spec.multiplicity
