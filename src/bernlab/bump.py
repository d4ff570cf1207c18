"""Bounded oscillating implementing function on Z with fast cocycle growth.

The function H concatenates triangular bumps of half-width a_n = ceil(delta n^2)
with disjoint adjacent supports, H(n) = 0 for n <= 0. The induced coboundary
family gamma_k(n) = H(n) - H(n-k) has square norm at least D |k|^{3/2} once
delta = min(1, 1/(144 D^2)).
"""
from __future__ import annotations

import math
from fractions import Fraction

# numpy is imported in the functions that use it (see the package docstring)

from . import _kernels
from .exact import SpecError, parse_fraction

__all__ = ["BumpCocycle"]

# Most bumps one instance materializes: a^(2^20) at D = 36 needs 2.5 million.
# Past it the arrays would take gigabytes.
_MAX_BUMPS = 2**22


class BumpCocycle:
    """Evaluator for H and certified bounds on the gamma_k square norms."""

    def __init__(self, D):
        D = parse_fraction(D)
        if D <= 0:
            raise ValueError(f"D must be positive, got {D}")
        self.D = D
        self.delta = min(Fraction(1), 1 / (144 * D * D))
        # int64 prefix arrays a and b, made by the first ensure_bumps and
        # grown on demand
        self._a = self._b = None
        self._gamma_cache: dict = {}
        self._h_cache: dict = {}

    def ensure_bumps(self, N: int) -> None:
        """Materialize a_n and b_n for all n < N (b has N+1 entries).

        Raises SpecError, before allocating, when N is past the bump budget
        or the int64 arithmetic would wrap: the largest numerator
        p (N-1)^2 + q - 1 of a_n = ceil(p n^2 / q), delta = p/q, and
        b_N <= 2 N a_(N-1) (a never decreases) must stay below 2^63."""
        import numpy as np

        if self._a is None:
            # a_0 = 1: the first bump spans [0, 2)
            self._a = np.array([1], dtype=np.int64)
            self._b = np.array([0, 2], dtype=np.int64)
        cur = len(self._a)
        if N <= cur:
            return
        if N > _MAX_BUMPS:
            raise SpecError(f"the bump cocycle with D = {self.D} needs {N} "
                            f"bumps here, past the budget of {_MAX_BUMPS}")
        p, q = self.delta.numerator, self.delta.denominator
        top = p * (N - 1) ** 2 + q - 1
        if top >= 2**63 or 2 * N * (top // q) >= 2**63:
            raise SpecError(f"the bump cocycle with D = {self.D} (delta = "
                            f"{self.delta}) overflows 64-bit integers by "
                            f"bump {N - 1}")
        n = np.arange(cur, N, dtype=np.int64)
        a_new = (p * n * n + q - 1) // q
        a = np.concatenate([self._a, a_new])
        b = np.concatenate([[0], np.cumsum(2 * a)])
        self._a, self._b = a, b

    def _cover(self, pos: int) -> None:
        """Materialize bumps, doubling their number, until b[-1] > pos."""
        self.ensure_bumps(1)
        while self._b[-1] <= pos:
            self.ensure_bumps(2 * len(self._a))

    def h_exact(self, n: int) -> Fraction:
        """Exact H(n), memoized per instance."""
        h = self._h_cache.get(n)
        if h is None:
            if n <= 0:
                h = Fraction(0)
            else:
                i = self.bump_index_at(n)
                a, off = int(self._a[i]), n - int(self._b[i])
                h = Fraction(off, a) if off <= a else Fraction(2 * a - off, a)
            self._h_cache[n] = h
        return h

    def h_float(self, m: np.ndarray) -> np.ndarray:
        """Vectorized H, materializing bumps past max(m) as needed."""
        import numpy as np

        m = np.asarray(m, dtype=np.int64)
        self._cover(int(m.max(initial=0)))
        i = np.searchsorted(self._b, m, side="right") - 1
        return self._h_in(m, np.clip(i, 0, len(self._a) - 1))

    def _h_in(self, m: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Float H(m) given the index i of a bump whose span [b_i, b_{i+1})
        holds m, or i = 0 where m <= 0."""
        import numpy as np

        a = self._a[i].astype(np.float64)
        off = (m - self._b[i]).astype(np.float64)
        # off/a rising, (2a - off)/a falling; both numerators are exact
        h = np.minimum(off, 2.0 * a - off) / a
        return np.where(m <= 0, 0.0, h)

    def bump_index_at(self, pos: int) -> int:
        """Index of the bump whose support contains the position pos >= 0."""
        import numpy as np

        self._cover(pos)
        return max(int(np.searchsorted(self._b, pos, side="right")) - 1, 0)

    def tail_bound(self, k: int, M: int) -> float:
        """Upper bound on the gamma_k mass carried by bumps with index >= M.

        Per bump at most 2 a_n + k positions, each difference at most k/a_n.
        """
        import numpy as np

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

    def gamma_norm_sq_bounds(self, k: int):
        """Certified (lower, upper) bracket for sum_n (H(n) - H(n-k))^2.

        The lower bound is the partial sum G_N = sum_{1 <= m < b_N} (H(m) -
        H(m-k))^2 over the first N = `default_bumps(k)` bumps (every term is
        nonnegative); the upper bound adds `tail_bound(k, N - 1)` over the
        discarded bumps and is deliberately loose. Memoized per instance by |k|.

        Each m in [1, b_N) lies in one bump span [b_n, b_n + 2a), a = a_n, at
        offset j = m - b_n, where H(m) = min(j, 2a - j)/a. Let n_k be the first
        n >= 1 with a' = a_{n-1} >= k. From n_k on a >= a' >= k, because a_n =
        ceil(delta n^2) never decreases, and the bump's share of G_N is
        f_k(a', a), summed over four regions of j:
          j < k:          m - k = b_{n-1} + 2a' - (k - j) falls in the
                          predecessor at or past its peak (a' >= k - j), so
                          H(m) - H(m-k) = j/a - (k-j)/a'; summed, the squares
                          give (k-1)k(2k-1)/(6a^2) - k(k^2-1)/(3aa')
                          + k(k+1)(2k+1)/(6a'^2);
          k <= j <= a:    both rising, difference k/a, a - k + 1 times;
          a < j < a+k:    H(m) falls and H(m-k) still rises (j - k < a): with
                          i = j - a, the difference is (k - 2i)/a, and
                          sum_{1<=i<k} (k-2i)^2 = k(k-1)(k-2)/3;
          a+k <= j < 2a:  both falling, difference -k/a, a - k times.
        So
            f_k(a', a) = [(k-1)k(2k-1)/6 + (2a-2k+1)k^2 + k(k-1)(k-2)/3]/a^2
                         - k(k^2-1)/(3aa') + k(k+1)(2k+1)/(6a'^2),
        with integer numerators. G_N is the narrow head G_{n_k}, by
        `_breakpoint_sum`, plus f_k(a_{n-1}, a_n) over n_k <= n < N as one
        array sum. No part of a float f_k is more than a few times f_k (the
        j < k squares alone give about k^3/(6a'^2)), so each term is good to a
        few u, and a sum of fewer than 10^7 of them stays far inside the 1e-9
        slack.
        """
        k = abs(int(k))
        if k == 0:
            return 0.0, 0.0
        cached = self._gamma_cache.get(k)
        if cached is not None:
            return cached
        N = self.default_bumps(k)
        partial = self._partial_sum(k, N)
        tail = self.tail_bound(k, N - 1)
        slack = 1e-9 * (1.0 + partial)
        out = (max(0.0, partial - slack), partial + tail + slack)
        self._gamma_cache[k] = out
        return out

    def _partial_sum(self, k: int, N: int) -> float:
        """G_N for k >= 1: the head G_{n_k} by `_breakpoint_sum` and the
        bumps n_k <= n < N by f_k (see `gamma_norm_sq_bounds`)."""
        import numpy as np

        self.ensure_bumps(N)
        # a is nondecreasing, so n_k - 1 is the first index with a >= k
        n_k = min(int(np.searchsorted(self._a[:N], k)) + 1, N)
        partial = self._breakpoint_sum(k, n_k)
        if n_k < N:
            a = self._a[n_k - 1 : N].astype(np.float64)
            prev, cur = a[:-1], a[1:]
            c_cur = ((k - 1) * k * (2 * k - 1) // 6 + (1 - 2 * k) * k * k
                     + k * (k - 1) * (k - 2) // 3)
            c_mix = k * (k * k - 1) // 3
            c_prev = k * (k + 1) * (2 * k + 1) // 6
            f = ((c_cur + 2.0 * k * k * cur) / (cur * cur) - c_mix / (cur * prev)
                 + c_prev / (prev * prev))
            partial += float(np.sum(f))
        return partial

    def _breakpoint_sum(self, k: int, N: int) -> float:
        """sum_{1 <= m < b_N} (H(m) - H(m-k))^2, closed-form per linear piece.

        The breakpoints of H(m) (bump starts and peaks) and of H(m - k) are
        two sorted runs, merged in linear time with no np.unique, and between
        merged points the difference is linear. The merge also counts the
        breakpoints below each point, which gives its bump and that of the
        point minus k without a search.
        """
        import numpy as np

        b, a = self._b[: N + 1], self._a[:N]
        end = int(b[N])
        # breakpoints of H, strictly increasing: P'_0 = b_0 = 0, b_0 + a_0 = 1,
        # b_1, b_1 + a_1, ..., b_N = end; P'_p starts or peaks bump p // 2
        P = np.empty(2 * N + 1, dtype=np.int64)
        P[0::2] = b
        P[1::2] = b[:-1] + a
        # H(m - k) breaks at Q_q = P'_q + k. A stable argsort of the sorted
        # runs P'[1:] and Q is one linear merge (timsort); d = H(m) - H(m - k)
        # is linear between the merged points, which run from 1 to end.
        Q = P[: np.searchsorted(P, end - k, side="right")] + k
        both = np.concatenate([P[1:], Q])
        order = np.argsort(both, kind="stable")
        pts = both[order]
        # at sorted position t, c points of P'[1:] and t + 1 - c of Q are
        # <= pts[t]; the last copy of each point counts its duplicates too
        t = np.arange(len(pts))
        c = np.where(order < 2 * N, order + 1, t + 2 * N - order)
        last = np.append(pts[1:] != pts[:-1], True)
        pts, c, t = pts[last], c[last], t[last]
        X = pts[:-1]
        L = pts[1:] - X
        # so P'_c is the last breakpoint <= X, and Q_(t-c) the last <= X, or
        # none where t - c = -1 (then X < k); X and X + 1 lie in one bump span
        # wherever L > 1, as do X - k and X + 1 - k
        i = c[:-1] // 2
        j = np.maximum((t - c)[:-1] // 2, 0)
        d0 = self._h_in(X, i) - self._h_in(X - k, j)
        d1 = self._h_in(X + 1, i) - self._h_in(X + 1 - k, j)
        s = np.where(L > 1, d1 - d0, 0.0)
        return _kernels.segment_square_sum(d0, s, L)
