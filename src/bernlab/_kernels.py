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
    """Sum of (u_i + s_i * j)^2 over j = 0..L_i-1, accumulated over segments."""
    import numpy as np

    L = L.astype(np.float64)
    t1 = L * u * u
    t2 = s * u * L * (L - 1.0)
    t3 = s * s * (L - 1.0) * L * (2.0 * L - 1.0) / 6.0
    return float(np.sum(t1 + t2 + t3))
