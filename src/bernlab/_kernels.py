"""Hot numeric kernels, vectorized with numpy."""
from __future__ import annotations

# numpy is imported in the functions that use it (see the package docstring)

__all__ = ["zseq_norm_head", "segment_square_sum"]


def zseq_norm_head(a: np.ndarray, k: int, J: int) -> float:
    """Head of a translate-difference square sum for a decreasing sequence.

    Returns sum_{j<k} a[j]^2 + sum_{j<J} (a[j] - a[j+k])^2; needs len(a) >= J+k.
    The sums are numpy reductions, not BLAS dot products: with more than one
    BLAS thread, `np.dot` at this size is sometimes milliseconds slower.
    """
    import numpy as np

    head = float(np.einsum("i,i->", a[:k], a[:k]))
    d = a[:J] - a[k : J + k]
    return head + float(np.einsum("i,i->", d, d))


def segment_square_sum(u: np.ndarray, s: np.ndarray, L: np.ndarray) -> float:
    """Sum of (u_i + s_i * j)^2 over j = 0..L_i-1, accumulated over segments.

    A segment's sum is L m^2 + s^2 L (L^2 - 1)/12, with m = u + s (L - 1)/2
    its mean: L times the squared mean plus the spread of s j about it. Both
    terms are nonnegative, so no segment loses digits to cancellation.
    """
    import numpy as np

    L = L.astype(np.float64)
    m = u + s * (0.5 * (L - 1.0))
    return float(np.sum(L * m * m + s * s * (L * (L * L - 1.0) / 12.0)))
