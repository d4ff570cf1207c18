"""Slow-growth cocycle on Z built from disjoint interval Folner sets.

Enumerates Z as g_0 = 0, g_1 = 1, g_2 = -1, g_3 = 2, ... and places one
interval A_n per index n >= 1, with amplitude eps_n on A_n. Interval lengths
are chosen so that both selection conditions from the construction hold:

  sum_{n<=k} eps_n^2 <= phi(g_k)^2 / 2
  eps_n^2 |g_k A_n (sym diff) A_n| / |A_n| <= eps_k^2 2^{-n}   for 1 <= k <= n

which together force ||c_{g_k}||_2 <= phi(g_k). Interval positions grow like
2^n and are kept as exact Python ints.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right

# numpy is imported in the functions that use it (see the package docstring)

from .exact import SpecError

__all__ = ["FolnerCocycle", "build_folner", "enum_z"]


def enum_z(k: int) -> int:
    """The k-th element of the enumeration 0, 1, -1, 2, -2, ..."""
    if k < 0:
        raise ValueError("enumeration index must be >= 0")
    if k == 0:
        return 0
    half = (k + 1) // 2
    return half if k % 2 == 1 else -half


class FolnerCocycle:
    def __init__(self, phi, horizon: int, delta: float):
        """Choose eps_n and the interval lengths L_n = |A_n| for n <= horizon.

        The second condition asks, for every k <= n, that
            L_n >= fl(fl(fl(2 |g_k| 2^n) * fl(eps_n^2 / eps_k^2)) * (1 + 1e-9))
        rounded up, and at least 2; the float slack covers the rounding. The
        bound peaks at k = n, so L_n is that one term, bit for bit:
        - eps_n^2 is nonincreasing, since eps_n^2 = min(eps_{n-1}^2, ...);
          so eps_n^2 / eps_k^2 <= 1 and fl(eps_n^2 / eps_k^2) <= 1.0, which is
          fl(eps_n^2 / eps_n^2);
        - |g_k| = ceil(k/2) is nondecreasing, so 2 |g_k| 2^n <= 2 |g_n| 2^n;
        - int-to-float conversion, float multiplication of nonnegative
          numbers and ceil are monotone;
        and at k = n the factor fl(eps_n^2 / eps_n^2) is exactly 1.0, so the
        bound is fl(fl(2 |g_n| 2^n) * (1 + 1e-9)).
        conditions_report re-checks every pair (k, n) from the stored data.
        """
        self.phi = phi
        self.horizon = horizon
        self.delta = delta
        self.gap = 4 * horizon + 4

        phi_sq = [0.0] + [phi(k) ** 2 for k in range(1, horizon + 1)]
        cap = (0.999 * delta) ** 2
        eps_sq = [0.0]
        for n in range(1, horizon + 1):
            inc = (phi_sq[n] - phi_sq[n - 1]) / 2.0
            if inc <= 0 and n == 1:
                raise ValueError("phi is not proper over the requested horizon")
            prev = eps_sq[-1] if n > 1 else cap
            eps_sq.append(min(prev, max(inc, 0.0), cap))
            if eps_sq[-1] <= 0:
                raise ValueError("phi increments vanish; cannot choose eps_n > 0")
        self.eps_sq = eps_sq  # index 1..horizon

        self.lengths = [0]  # index 0 unused
        for n in range(1, horizon + 1):
            try:
                bound = float(2 * abs(enum_z(n)) << n) * (1 + 1e-9)
                self.lengths.append(max(2, math.ceil(bound)))
            except OverflowError:
                raise SpecError(f"horizon {horizon} is too large: the length of "
                                f"A_{n} overflows a float") from None

        self.starts = []
        pos = self.gap
        for n in range(1, horizon + 1):
            self.starts.append(pos)
            pos += self.lengths[n] + self.gap

        self.values = [0.0] + [
            math.sqrt(eps_sq[n]) / math.sqrt(float(self.lengths[n]))
            for n in range(1, horizon + 1)
        ]

    def f(self, k: int) -> float:
        """F(k) = eps_n / sqrt(|A_n|) on A_n, 0 off the intervals."""
        i = bisect_right(self.starts, k) - 1
        if i < 0:
            return 0.0
        n = i + 1
        return self.values[n] if k < self.starts[i] + self.lengths[n] else 0.0

    def f_zones(self, zones) -> np.ndarray:
        """F over the ranges lo <= m < hi of the sorted, disjoint `zones`,
        concatenated in order: a float array equal to f point by point.

        The positions pass 2^63, so the intervals are clipped to each zone in
        Python ints, and the array is built from the run lengths of its
        constant pieces."""
        import numpy as np

        starts, lengths, values = self.starts, self.lengths, self.values
        runs, run_values = [], []
        for lo, hi in zones:
            m = lo  # start of the part of the zone not yet covered
            i = max(bisect_right(starts, lo) - 1, 0)
            while i < self.horizon and starts[i] < hi:
                a, b = max(starts[i], lo), min(starts[i] + lengths[i + 1], hi)
                if a < b:
                    runs += (a - m, b - a)
                    run_values += (0.0, values[i + 1])
                    m = b
                i += 1
            runs.append(hi - m)
            run_values.append(0.0)
        return np.repeat(np.array(run_values), np.array(runs, dtype=np.int64))

    @functools.cached_property
    def _lengths_eps_sq(self):
        """L_n and eps_n^2 for n = 1..horizon as float arrays, made once, by
        the first norm_sq_closed."""
        import numpy as np

        return (np.array(self.lengths[1:], dtype=float),
                np.array(self.eps_sq[1:], dtype=float))

    def norm_sq_closed(self, s: int) -> float:
        """||c_s||_2^2 via the interval boundary zones, exact for |s| <= gap.

        Sums 2 min(s, L_n) eps_n^2 / L_n over n with the operations of the
        sequential loop, in its order: np.cumsum adds left to right (np.sum
        would add pairwise)."""
        import numpy as np

        s = abs(s)
        if s > self.gap:
            raise SpecError(f"shift {s} exceeds the interval gap {self.gap}; "
                            f"the closed form needs |g| <= {self.gap}")
        L, eps_sq = self._lengths_eps_sq
        terms = 2.0 * np.minimum(float(s), L) * eps_sq / L
        return float(np.cumsum(terms)[-1])

    def support_zones(self, s: int):
        """Positions where F(m) - F(m - s) can be nonzero, as (lo, hi) pairs."""
        s = abs(s)
        if s == 0:
            return
        raw = []
        for n in range(1, self.horizon + 1):
            x, L = self.starts[n - 1], self.lengths[n]
            if L <= 2 * s:
                raw.append((x - s, x + L + s))
            else:
                raw.append((x - s, x + s))
                raw.append((x + L - s, x + L + s))
        # zones overlap within an interval for large s and across intervals
        # once 2s exceeds the gap; merge so every position appears once
        raw.sort()
        lo, hi = raw[0]
        for a, b in raw[1:]:
            if a <= hi:
                hi = max(hi, b)
            else:
                yield (lo, hi)
                lo, hi = a, b
        yield (lo, hi)

    def conditions_report(self) -> dict:
        """Re-check both selection conditions from the stored data."""
        sum_ok, sym_ok = [], []
        acc = 0.0
        for k in range(1, self.horizon + 1):
            acc += self.eps_sq[k]
            sum_ok.append(acc <= self.phi(k) ** 2 / 2.0 + 1e-12)
        for n in range(1, self.horizon + 1):
            ok = True
            for k in range(1, n + 1):
                s = abs(enum_z(k))
                lhs = self.eps_sq[n] * 2.0 * min(s, self.lengths[n]) / self.lengths[n]
                if lhs > self.eps_sq[k] * 2.0 ** (-n) * (1 + 1e-9):
                    ok = False
            sym_ok.append(ok)
        return {
            "sum_condition": all(sum_ok),
            "symmetric_difference_condition": all(sym_ok),
            "per_index_sum": sum_ok,
            "per_index_symdiff": sym_ok,
        }


def build_folner(phi, horizon: int = 256, delta: float = 0.5) -> FolnerCocycle:
    """phi maps the enumeration index k >= 1 to phi(g_k) > 0."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return FolnerCocycle(phi, horizon, delta)
