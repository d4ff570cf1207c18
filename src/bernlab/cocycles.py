"""Cocycle coefficients c_g(i) = F(i) - F(g^{-1} i) and certified norms.

norm_sq uses the family's closed form (exact rational where the cocycle is
finitely supported, certified truncation otherwise); norm_sq_bruteforce is an
independent oracle that sums c_g over explicit index windows. It reads a
window as float arrays (`_window`), from the family's `window_values` where it
has one and from `value_pairs` otherwise.
"""
from __future__ import annotations

import math

# numpy is imported in the functions that use it (see the package docstring)

from .exact import BoundedValue
from .groups import Element, inv, is_identity, mul, word_length
from .marginals import ActionSpec, SpecError, f_value

__all__ = [
    "MAX_EXTENT",
    "BoundedValue",
    "norm_sq",
    "norm_sq_bruteforce",
    "support_elements",
    "value_pairs",
    "affinity_pairs",
]


# largest window extent; a window's arrays and tables grow with its extent
# (about 10^6 pairs for g = a on f2-dissipative at 2^20)
MAX_EXTENT = 2**20


def norm_sq(spec: ActionSpec, g: Element, tol: float = 1e-6) -> BoundedValue:
    """||c_g||_2^2, multiplied by the diagonal-power multiplicity."""
    if not 0 < tol < math.inf:
        raise SpecError(f"tol must be positive and finite, got {tol}")
    if is_identity(g):
        return BoundedValue.from_exact(0)
    m = spec.multiplicity
    return spec.family.norm_sq(g, tol / max(m, 1)).scaled(m)


def support_elements(spec: ActionSpec, g: Element, extent: int):
    """Index points where c_g can be nonzero, each yielded once.

    extent controls the truncation depth for infinitely supported families.
    """
    if is_identity(g):
        return
    yield from spec.family.support(g, extent)


def norm_sq_bruteforce(spec: ActionSpec, g: Element, radius: int) -> BoundedValue:
    """Oracle: sums c_g(h)^2 over an explicit window and attaches the family
    tail bound."""
    if is_identity(g):
        return BoundedValue.from_exact(0)
    if radius < word_length(g):
        raise SpecError("radius must cover the word length")
    m = spec.multiplicity
    fam = spec.family
    if fam.on_ball:
        return BoundedValue.from_exact(fam.ball_norm_sq(g, radius)).scaled(m)
    # below the exact ball sum, which needs no numpy
    import numpy as np

    p, q = _window(spec, g, radius)
    # square the differences in place, in _window's own arrays
    d = np.subtract(p, q, out=p)
    d *= d
    total = float(np.sum(d))
    return BoundedValue.from_truncation(total, fam.tail(g, radius)).scaled(m)


def value_pairs(spec: ActionSpec, g: Element, extent: int):
    """(h, F(h), F(g h)) for every h in the window of c_{g^-1} where the two
    values differ: the coordinates where omega(g, .) is not 1."""
    for h in support_elements(spec, inv(g), extent):
        p, q = f_value(spec, h), f_value(spec, mul(g, h))
        if p != q:
            yield h, p, q


def _window(spec: ActionSpec, g: Element, extent: int):
    """Float arrays (F(h), F(g^-1 h)) over the h in support(g, extent) where
    the two values differ, in window order; both are new arrays that the
    caller may overwrite. An extent above MAX_EXTENT is refused before
    anything is allocated."""
    if extent > MAX_EXTENT:
        raise SpecError(f"window extent {extent} exceeds 2^20")
    import numpy as np

    window = spec.family.window_values(g, extent)
    if window is None:
        pairs = [(float(p), float(q)) for _, p, q in value_pairs(spec, inv(g), extent)]
        return np.array(pairs, dtype=float).reshape(-1, 2).T
    p, q = window
    differ = p != q
    return p[differ], q[differ]


def affinity_pairs(spec: ActionSpec, g: Element, extent: int):
    """Pairs (F(i), F(g i)) over the coordinates where they differ, sorted by
    |F(i) - F(g i)| descending (ties in window order), plus a bound on the
    cocycle mass left outside the window.

    These are the coordinates of `criteria.integral_products`, which reads
    them as the unsorted arrays of `_window(spec, inv(g), extent)`; the list
    serves tests and the benchmark's layer trace.
    """
    import numpy as np

    gi = inv(g)
    p, q = _window(spec, gi, extent)
    order = np.argsort(-np.abs(p - q), kind="stable")
    pairs = list(zip(p[order].tolist(), q[order].tolist()))
    return pairs, spec.family.tail(gi, extent) * spec.multiplicity
