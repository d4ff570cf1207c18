"""Bounded oscillating implementing function on Z with fast cocycle growth.

The function H concatenates triangular bumps of half-width a_n = ceil(delta n^2)
with disjoint adjacent supports, H(n) = 0 for n <= 0. The induced coboundary
family gamma_k(n) = H(n) - H(n-k) has square norm at least D |k|^{3/2} once
delta = min(1, 1/(144 D^2)).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _kernels
from .exact import parse_fraction

__all__ = ["BumpCocycle"]


class BumpCocycle:
    """Evaluator for H and certified bounds on the gamma_k square norms."""

    def __init__(self, D):
        D = parse_fraction(D)
        if D <= 0:
            raise ValueError(f"D must be positive, got {D}")
        self.D = D
        self.delta = min(Fraction(1), 1 / (144 * D * D))
        # integer prefix arrays, grown on demand
        self._a = np.array([1], dtype=np.int64)
        self._b = np.array([0, 2], dtype=np.int64)
        self._gamma_cache: dict = {}

    def ensure_bumps(self, N: int) -> None:
        """Materialize a_n and b_n for all n < N (b has N+1 entries)."""
        cur = len(self._a)
        if N <= cur:
            return
        n = np.arange(cur, N, dtype=np.int64)
        p, q = self.delta.numerator, self.delta.denominator
        a_new = (p * n * n + q - 1) // q
        a = np.concatenate([self._a, a_new])
        b = np.concatenate([[0], np.cumsum(2 * a)])
        self._a, self._b = a, b

    @property
    def n_bumps(self) -> int:
        return len(self._a)

    def _cover(self, pos: int) -> None:
        """Materialize bumps, doubling their number, until b[-1] > pos."""
        while self._b[-1] <= pos:
            self.ensure_bumps(2 * self.n_bumps)

    def h_exact(self, n: int) -> Fraction:
        if n <= 0:
            return Fraction(0)
        self._cover(n)
        i = int(np.searchsorted(self._b, n, side="right")) - 1
        a, off = int(self._a[i]), n - int(self._b[i])
        return Fraction(off, a) if off <= a else Fraction(2 * a - off, a)

    def h_float(self, m: np.ndarray) -> np.ndarray:
        """Vectorized H, materializing bumps past max(m) as needed."""
        m = np.asarray(m, dtype=np.int64)
        if m.size:
            self._cover(int(m.max()))
        i = np.searchsorted(self._b, m, side="right") - 1
        i = np.clip(i, 0, len(self._a) - 1)
        a = self._a[i].astype(np.float64)
        off = (m - self._b[i]).astype(np.float64)
        up = off / a
        down = (2.0 * a - off) / a
        h = np.where(off <= a, up, down)
        return np.where((m <= 0) | (off < 0), 0.0, h)

    def bump_index_at(self, pos: int) -> int:
        """Index of the bump whose support contains the position pos >= 0."""
        self._cover(pos)
        return max(int(np.searchsorted(self._b, pos, side="right")) - 1, 0)

    def tail_bound(self, k: int, M: int) -> float:
        """Upper bound on the gamma_k mass carried by bumps with index >= M.

        Per bump at most 2 a_n + k positions, each difference at most k/a_n.
        """
        k = abs(int(k))
        if k == 0:
            return 0.0
        M = max(M, 2)
        delta = float(self.delta)
        # switch to the integral bound once a_n = ceil(delta n^2) > 1
        M2 = max(M, int(math.ceil(1.0 / math.sqrt(delta))) + 1)
        self.ensure_bumps(M2)
        a = self._a[M:M2].astype(np.float64)
        explicit = float(np.sum((2.0 * a + k) * (k / a) ** 2)) if M2 > M else 0.0
        analytic = 2.0 * k * k / (delta * (M2 - 1)) + k**3 / (
            3.0 * delta * delta * (M2 - 1) ** 3
        )
        return explicit + analytic

    def default_bumps(self, k: int) -> int:
        k = abs(k)
        n0 = math.isqrt(int(math.ceil(2 * k / self.delta))) + 1
        return max(64, 4 * n0)

    def gamma_norm_sq_bounds(self, k: int, n_bumps: int | None = None):
        """Certified (lower, upper) bracket for sum_n (H(n) - H(n-k))^2.

        The lower bound is a plain partial sum (every term is nonnegative);
        the upper bound adds a slope-based tail over the discarded bumps and
        is deliberately loose.
        """
        k = abs(int(k))
        if k == 0:
            return 0.0, 0.0
        N = n_bumps if n_bumps is not None else self.default_bumps(k)
        cached = self._gamma_cache.get((k, N))
        if cached is not None:
            return cached
        self.ensure_bumps(N)
        b, a = self._b[: N + 1], self._a[:N]
        end = int(b[N])
        # merged breakpoints of H(m) and H(m-k); d is linear between them
        pts = np.concatenate([b, b[:-1] + a, b + k, b[:-1] + a + k])
        pts = np.unique(np.clip(pts, 1, end))
        if pts[0] != 1:
            pts = np.concatenate([[1], pts])
        if pts[-1] != end:
            pts = np.concatenate([pts, [end]])
        X = pts[:-1]
        L = (pts[1:] - X).astype(np.int64)
        d0 = self.h_float(X) - self.h_float(X - k)
        d1 = self.h_float(np.minimum(X + 1, end - 1)) - self.h_float(
            np.minimum(X + 1, end - 1) - k
        )
        s = np.where(L > 1, d1 - d0, 0.0)
        partial = _kernels.segment_square_sum(d0, s, L)
        tail = self.tail_bound(k, N - 1)
        slack = 1e-9 * (1.0 + partial)
        out = (max(0.0, partial - slack), partial + tail + slack)
        self._gamma_cache[(k, N)] = out
        return out
