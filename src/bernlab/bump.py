"""Bounded oscillating implementing function on Z with fast cocycle growth.

The function H concatenates triangular bumps of half-width a_n = ceil(delta n^2)
with disjoint adjacent supports, H(n) = 0 for n <= 0. The induced coboundary
family gamma_k(n) = H(n) - H(n-k) has square norm at least D |k|^{3/2} once
delta = min(1, 1/(144 D^2)).
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from fractions import Fraction

# numpy is imported in the functions that use it (see the package docstring)

from . import _kernels
from .exact import _U, SpecError, convex_sum, parse_fraction

__all__ = ["BumpCocycle"]

# Most bumps one instance materializes. The gamma_k brackets need only the
# narrow head (442,368 bumps for a^(2^20) at D = 36); H is tabled up to the
# largest position asked for. Past it the arrays would take gigabytes.
_MAX_BUMPS = 2**22
# Most f_k terms one gamma_norm_sq_bounds call sums past the narrow head
# (about 0.2 s on a 2-core host); past them the bracket is returned as wide
# as it got
_MAX_TERMS = 2**24
# the f_k pass makes a_n from n this many bumps at a time
_CHUNK = 2**15
# relative rounding radius of a partial sum G_N (see gamma_norm_sq_bounds)
_RHO = 256 * _U


class _GammaMemo:
    """What `BumpCocycle.gamma_norm_sq_bounds` keeps per |k|."""

    def __init__(self, n_k: int, head: float):
        self.n_k, self.head = n_k, head  # G_{n_k}
        self.chunks = []  # chunk j sums f_k over n_k + j C <= n < n_k + (j+1) C
        self.answers = {}  # tol -> (lo, hi)


class BumpCocycle:
    """Evaluator for H and certified bounds on the gamma_k square norms."""

    def __init__(self, D):
        D = parse_fraction(D)
        if D <= 0:
            raise ValueError(f"D must be positive, got {D}")
        self.D = D
        self.delta = min(Fraction(1), 1 / (144 * D * D))
        # the bump table, grown in place by ensure_bumps: a_0 = 1, so the
        # first bump spans [0, 2). The scalar lookups read it as Python ints,
        # without numpy; the numpy readers through `_tables`.
        self._a, self._b = array("q", (1,)), array("q", (0, 2))
        # |k| -> _GammaMemo
        self._gamma_cache: dict = {}
        self._h_cache: dict = {}

    def ensure_bumps(self, N: int) -> None:
        """Materialize a_n and b_n for all n < N (b has N+1 entries).

        Raises SpecError, before allocating, when N is past the bump budget
        or the int64 arithmetic would wrap: the largest numerator
        p (N-1)^2 + q - 1 of a_n = ceil(p n^2 / q), delta = p/q, and
        b_N <= 2 N a_(N-1) (a never decreases) must stay below 2^63."""
        a, b = self._a, self._b
        if N <= len(a):
            return
        self._check_bumps(N)
        p, q = self.delta.numerator, self.delta.denominator
        end = b[-1]
        for n in range(len(a), N):
            a_n = (p * n * n + q - 1) // q
            end += 2 * a_n
            a.append(a_n)
            b.append(end)

    def _tables(self):
        """int64 numpy views of a and b. A view pins the tables' buffers, so
        take it after growing them and do not keep it."""
        import numpy as np

        return np.frombuffer(self._a, np.int64), np.frombuffer(self._b, np.int64)

    def _check_bumps(self, N: int) -> None:
        """Raise SpecError unless N bumps fit the budget and int64 (see
        `ensure_bumps`)."""
        if N > _MAX_BUMPS:
            raise SpecError(f"the bump cocycle with D = {self.D} needs {N} "
                            f"bumps here, past the budget of {_MAX_BUMPS}")
        p, q = self.delta.numerator, self.delta.denominator
        top = p * (N - 1) ** 2 + q - 1
        if top >= 2**63 or 2 * N * (top // q) >= 2**63:
            raise SpecError(self._wraps(N - 1))

    def _wraps(self, n: int) -> str:
        return (f"the bump cocycle with D = {self.D} (delta = {self.delta}) "
                f"overflows 64-bit integers by bump {n}")

    def _cover(self, pos: int) -> None:
        """Materialize bumps, doubling their number up to the budget, until
        b_N > pos.

        A position that the budget cannot cover is refused before anything
        is allocated. As a_0 = 1 and a_n < delta n^2 + 1,
            b_N < 2 + sum_{1 <= n < N} 2 (delta n^2 + 1)
                = delta (N-1) N (2N-1) / 3 + 2N,
        so the position needs at least the first N at which that bound
        passes it."""
        b = self._b
        if b[-1] > pos:
            return
        p, q = self.delta.numerator, self.delta.denominator

        def below(N):  # 3q times the bound on b_N is at most 3q pos
            return p * (N - 1) * N * (2 * N - 1) + 6 * q * N <= 3 * q * pos

        if below(_MAX_BUMPS):
            lo, hi = _MAX_BUMPS, 2 * _MAX_BUMPS
            while below(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if below(mid) else (lo, mid)
            raise SpecError(f"position {pos} of the bump cocycle with D = "
                            f"{self.D} needs at least {hi} bumps, past the "
                            f"budget of {_MAX_BUMPS}")
        while b[-1] <= pos:
            N = len(b) - 1
            if N >= _MAX_BUMPS:
                raise SpecError(f"position {pos} of the bump cocycle with D = "
                                f"{self.D} needs more than {_MAX_BUMPS} bumps, "
                                f"the budget")
            self.ensure_bumps(min(2 * N, _MAX_BUMPS))

    def h_exact(self, n: int) -> Fraction:
        """Exact H(n), memoized per instance, without numpy."""
        h = self._h_cache.get(n)
        if h is None:
            if n <= 0:
                h = Fraction(0)
            else:
                i = self.bump_index_at(n)
                a, off = self._a[i], n - self._b[i]
                h = Fraction(off, a) if off <= a else Fraction(2 * a - off, a)
            self._h_cache[n] = h
        return h

    def h_float(self, m: np.ndarray) -> np.ndarray:
        """Vectorized H, materializing bumps past max(m) as needed."""
        import numpy as np

        m = np.asarray(m, dtype=np.int64)
        self._cover(int(m.max(initial=0)))
        a, b = self._tables()
        i = np.clip(np.searchsorted(b, m, side="right") - 1, 0, len(a) - 1)
        # the integer numerator over a_i: one rounding
        return self._num(m, i) / a[i].astype(float)

    def _num(self, m: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The integer numerator of H(m) = _num(m, i) / a_i, given the index
        i of a bump whose span [b_i, b_{i+1}) holds m, or i = 0 where m <= 0:
        the offset up the bump's rising side or down its falling side, 0
        where m <= 0."""
        import numpy as np

        a, b = self._tables()
        off = m - b[i]
        return np.where(m <= 0, 0, np.minimum(off, 2 * a[i] - off))

    def bump_index_at(self, pos: int) -> int:
        """Index of the bump whose support contains the position pos >= 0,
        looked up without numpy."""
        self._cover(pos)
        return max(bisect_right(self._b, pos) - 1, 0)

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
        a = self._tables()[0][M:M2].astype(np.float64)
        explicit = float(np.sum((2.0 * a + k) * (k / a) ** 2)) if M2 > M else 0.0
        analytic = 2.0 * k * k / (delta * (M2 - 1)) + k**3 / (
            3.0 * delta * delta * (M2 - 1) ** 3
        )
        return explicit + analytic

    def _head_end(self, k: int) -> int:
        """n_k for k >= 1: one past the first index n with a_n >= k.

        a_0 = 1, and for n >= 1 a_n = ceil(p n^2 / q) >= k exactly when
        p n^2 > (k - 1) q, that is when n^2 > floor((k - 1) q / p)."""
        if k <= 1:
            return 1
        p, q = self.delta.numerator, self.delta.denominator
        return math.isqrt((k - 1) * q // p) + 2

    def gamma_norm_sq_bounds(self, k: int, tol: float = math.inf):
        """Certified (lower, upper) bracket for Gamma_k = sum_n (H(n) -
        H(n-k))^2, with (upper - lower)/2 <= tol unless the work budget runs
        out first. Without a tol it costs about one chunk of f_k terms.

        The bracket depends on k and tol alone, not on earlier calls. Per |k|
        the instance keeps the head, the sum of every chunk of f_k terms
        summed so far and the bracket of each tol, so a repeated request, or
        one that needs no more chunks than are summed, sums nothing new, and
        a tighter one only the chunks past the last.

        The f_k form. Each m >= 1 lies in one bump span [b_n, b_n + 2a),
        a = a_n, at offset j = m - b_n, where H(m) = min(j, 2a - j)/a. Let n_k
        be the first n >= 1 with a' = a_{n-1} >= k. From n_k on a >= a' >= k,
        because a_n = ceil(delta n^2) never decreases, and bump n adds
        f_k(a', a), summed over four regions of j:
          j < k:          m - k = b_{n-1} + 2a' - (k - j) falls in the
                          predecessor at or past its peak (a' >= k - j), so
                          H(m) - H(m-k) = j/a - (k-j)/a', a line in j whose
                          k values have mean -w/(2aa'), w = k(a - a') + a + a',
                          and spread (a + a')/(aa') per step: the squares sum
                          to [3k w^2 + k(k^2-1)(a + a')^2] / (12 (aa')^2);
          k <= j <= a:    both rising, difference k/a, a - k + 1 times;
          a < j < a+k:    H(m) falls and H(m-k) still rises (j - k < a): with
                          i = j - a, the difference is (k - 2i)/a, and
                          sum_{1<=i<k} (k-2i)^2 = k(k-1)(k-2)/3;
          a+k <= j < 2a:  both falling, difference -k/a, a - k times.
        So, with every part nonnegative,
            f_k(a', a) = [k^2 (2(a-k) + 1) + k(k-1)(k-2)/3] / a^2
                         + [3k w^2 + k(k^2-1)(a + a')^2] / (12 (aa')^2),
        equal to C/a^2 + 2k^2/a - c_m/(aa') + c_p/a'^2 with C = -(8k^3 + 3k^2 -
        5k)/6 < 0, c_m = k(k^2-1)/3 and c_p = k(k+1)(2k+1)/6.

        The bracket. The partial sum G_N over the bumps n < N is the narrow
        head G_{n_k}, by `_head_sum`, plus f_k(a_{n-1}, a_n) for n_k <= n
        < N, with a_n made from n in chunks of _CHUNK, and N = n_k + j _CHUNK.
        The rest R_N = sum_{n >= N} f_k is bracketed by `_remainder`. j starts
        where delta N^2 >= 4k and grows until the width meets tol, to at most
        _MAX_TERMS terms.

        Rounding. Every float a_n, a - a', a + a' and a - k here is an exact
        integer below 2^53. Each part of a float f_k is a sum or product of
        nonnegative floats, and counting roundings (a constant of k rounded
        once, the square of a rounded w twice its error plus one) gives f_k
        within 13u, u = 2^-53. np.sum is numpy's pairwise sum: up to 128 terms
        in 8 accumulators (<= 15 additions each), a 3-level tree and <= 7
        more; longer arrays halved at a multiple of 8, in <= bit_length(n)
        levels. So a term meets <= 26 + bit_length(n) additions, 42 for a
        chunk, and a chunk's nonnegative terms sum to within 13u + 42u,
        second order included in the bound below. math.fsum adds the chunks
        with one rounding. The head's segments are within 91u, each chunk's
        sum of them within 91u + 51u, and their math.fsum within 143u (see
        `_head_sum`). Adding the head to the chunks adds u of the total. So
        G_N is within 144u G_N of the exact partial sum; _RHO = 256u covers
        that and the three additions that form each end, and _remainder's
        radius covers the float tail bounds.
        """
        k = abs(int(k))
        if k == 0:
            return 0.0, 0.0
        memo = self._gamma_cache.get(k)
        if memo is None:
            n_k = self._head_end(k)
            memo = self._gamma_cache[k] = _GammaMemo(n_k, self._head_sum(k, n_k))
        out = memo.answers.get(tol)
        if out is None:
            out = memo.answers[tol] = self._answer(k, memo, tol)
        return out

    def _answer(self, k: int, memo: _GammaMemo, tol: float):
        """The bracket for (k, tol), from the first chunk count j that meets
        tol in a search that depends on k and tol alone."""
        p, q = self.delta.numerator, self.delta.denominator
        size, cap = _CHUNK, max(1, _MAX_TERMS // _CHUNK)
        # delta N^2 >= 4k from here on, so the remainder's bounds are
        # already within a few percent of each other
        j = -(-(2 * math.isqrt(k * q // p) + 4 - memo.n_k) // size)
        j = min(max(j, 1), cap)
        lo, hi = self._chunk_bracket(k, memo, j)
        while hi - lo > 2 * tol and j < cap:
            # the width asked for, less the rounding of the partial sum:
            # Gamma_k <= hi, so G_N <= (1 + _RHO) hi for every N
            want = max(1.98 * tol - 2.02 * _RHO * hi, 2.02 * _RHO * hi)
            N = self._tail_start(k, memo.n_k + j * size, want,
                                 memo.n_k + cap * size)
            j2 = min(-(-(N - memo.n_k) // size), cap)
            if j2 <= j:
                break
            j = j2
            lo, hi = self._chunk_bracket(k, memo, j)
        return lo, hi

    def _chunk_bracket(self, k: int, memo: _GammaMemo, j: int):
        """The bracket of Gamma_k from the partial sum G_N, N = n_k + j
        _CHUNK, and the two-sided remainder past it, padded by the rounding
        radius (see `gamma_norm_sq_bounds`). Each f_k is nonnegative, so the
        remainder's lower end is clipped at 0."""
        start = memo.n_k + len(memo.chunks) * _CHUNK
        N = memo.n_k + j * _CHUNK
        memo.chunks += self._pass_sums(k, start, N)
        G = memo.head + math.fsum(memo.chunks[:j])
        r_lo, r_hi, r = self._remainder(k, N)
        pad = _RHO * G + r
        return G + max(r_lo, 0.0) - pad, G + r_hi + pad

    def _tail_start(self, k: int, N: int, want: float, cap: int) -> int:
        """The first N2 >= N (in a geometric search) at which the remainder
        bracket, padding included, is at most `want` wide, or cap."""
        d = float(self.delta)
        # the width is about 2k^2 / (3 delta^2 N^3)
        N2 = max(N, math.ceil((2.0 * k * k / (3.0 * d * d * want)) ** (1 / 3)))
        while N2 < cap:
            r_lo, r_hi, r = self._remainder(k, N2)
            width = r_hi - max(r_lo, 0.0) + 2.0 * r
            if width <= want:
                break
            N2 = math.ceil(N2 * max(1.01, (width / want) ** (1 / 3)))
        return min(N2, cap)

    def _remainder(self, k: int, N: int):
        """(lo, hi, r): R_N = sum_{n >= N} f_k(a_{n-1}, a_n) lies in [lo, hi]
        for N >= max(n_k, 2), each end computed within r.

        Proof. With A = delta n^2 and A' = delta (n-1)^2, a_n is in [A, A+1)
        and a_{n-1} in [A', A'+1). In the form C/a^2 + 2k^2/a - c_m/(aa') +
        c_p/a'^2 (see `gamma_norm_sq_bounds`) each term is monotone in a and
        in a', so f_k lies between its values at the ends of the box; and
        1/(x+1) >= 1/x - 1/x^2, 1/(x+1)^2 >= 1/x^2 - 2/x^3 and 1/((1+t)(1+s))
        >= 1 - t - s (x, t, s > 0) give
            f_k <= C/A^2 + 2|C|/A^3 + 2k^2/A - c_m/(AA') + c_m/(A^2 A')
                   + c_m/(AA'^2) + c_p/A'^2,
            f_k >= C/A^2 + 2k^2/A - 2k^2/A^2 - c_m/(AA') + c_p/A'^2
                   - 2c_p/A'^3.
        In n these are multiples of (n - s)^-p, s in {0, 1}, and of
        (n(n-1))^-2 = ((n - 1/2)^2 - 1/4)^-2, which lies between (n - 1/2)^-4
        and (n - 1/2)^-4 + (8/9)(n - 1/2)^-6 for n >= 3/2; the corrections
        (A^2 A')^-1 and (AA'^2)^-1 are at most delta^-3 (n-1)^-6. Each
        (x - s)^-p is convex and decreasing on x > s, so `convex_sum` puts
        its sum over n >= N between the trapezoid bound int_N^inf +
        (N - s)^-p / 2 and the midpoint bound int_{N-1/2}^inf, where
        int_x^inf = (x - s)^(1-p)/(p-1).
        Every term takes its own side: a positive term the upper sum in hi
        and the lower in lo, a negative one the other way round. The width is
        about 2k^2 / (3 delta^2 N^3). Each float term is within 21u of its
        value (a rounded constant, delta and its powers, (N - s)^p and two
        divisions), so r = 64u times the sum of their sizes covers them and
        the sums.
        """
        d = float(self.delta)
        c = float(k * (8 * k * k + 3 * k - 5) // 6)  # -C
        c_m = float(k * (k * k - 1) // 3)
        c_p = float(k * (k + 1) * (2 * k + 1) // 6)
        k2 = float(2 * k * k)
        d2, d3 = d * d, d * d * d

        def bounds(s, p):  # (trapezoid, midpoint) bounds on sum_{n >= N} (n - s)^-p
            return convex_sum(lambda x: 1.0 / (x - s) ** p,
                              lambda x, y, upper: 1.0 / ((p - 1) * (x - s) ** (p - 1)),
                              N)[:2]

        def mid(s, p):
            return bounds(s, p)[1]

        def trap(s, p):
            return bounds(s, p)[0]

        hi_terms = (k2 / d * mid(0, 2), 2.0 * c / d3 * mid(0, 6),
                    c_p / d2 * mid(1, 4), 2.0 * c_m / d3 * mid(1, 6),
                    -c / d2 * trap(0, 4), -c_m / d2 * trap(0.5, 4))
        lo_terms = (k2 / d * trap(0, 2), c_p / d2 * trap(1, 4),
                    -(c + k2) / d2 * mid(0, 4),
                    -c_m / d2 * (mid(0.5, 4) + 8.0 / 9.0 * mid(0.5, 6)),
                    -2.0 * c_p / d3 * mid(1, 6))
        size = sum(map(abs, hi_terms)) + sum(map(abs, lo_terms))
        return math.fsum(lo_terms), math.fsum(hi_terms), 64.0 * _U * size

    def _pass_sums(self, k: int, n0: int, n1: int) -> list:
        """The sums of f_k(a_{n-1}, a_n) over n_k <= n0 <= n < n1, one per
        chunk of _CHUNK bumps, with a_n made from n: no table grows."""
        import numpy as np

        if n1 <= n0:
            return []
        p, q = self.delta.numerator, self.delta.denominator
        if p * (n1 - 1) ** 2 + q - 1 >= 2**63:
            raise SpecError(self._wraps(n1 - 1))
        kf, k2 = float(k), float(k * k)
        c3 = float(k * (k - 1) * (k - 2) // 3)
        c_w, c_s = float(3 * k), float(k * (k * k - 1))
        # every chunk reuses the same arrays, each op writing in place
        size = min(_CHUNK, n1 - n0)
        step = np.arange(size + 1, dtype=np.int64)
        ints, a_all = np.empty(size + 1, dtype=np.int64), np.empty(size + 1)
        s, w, f, t = (np.empty(size) for _ in range(4))
        sums = []
        for lo in range(n0, n1, _CHUNK):
            m = min(_CHUNK, n1 - lo)
            # a_n for lo - 1 <= n < lo + m: a_0 = 1, and ceil(p n^2 / q) >= 1
            # for n >= 1
            nn = np.add(step[:m + 1], lo - 1, out=ints[:m + 1])
            np.multiply(nn, nn, out=nn)
            np.multiply(nn, p, out=nn)
            np.add(nn, q - 1, out=nn)
            np.floor_divide(nn, q, out=nn)
            np.maximum(nn, 1, out=nn)
            a_all[:m + 1] = nn
            ap, a = a_all[:m], a_all[1:m + 1]
            s_, w_, f_, t_ = s[:m], w[:m], f[:m], t[:m]
            # f = (k^2 (2(a - k) + 1) + c3) / a^2
            np.subtract(a, kf, out=f_)
            np.multiply(f_, 2.0, out=f_)
            np.add(f_, 1.0, out=f_)
            np.multiply(f_, k2, out=f_)
            np.add(f_, c3, out=f_)
            np.divide(f_, np.multiply(a, a, out=t_), out=f_)
            # plus (3k w^2 + k(k^2 - 1) s^2) / (12 (a a')^2), s = a + a' and
            # w = k (a - a') + s
            np.add(a, ap, out=s_)
            np.subtract(a, ap, out=w_)
            np.multiply(w_, kf, out=w_)
            np.add(w_, s_, out=w_)
            np.multiply(w_, w_, out=w_)
            np.multiply(w_, c_w, out=w_)
            np.multiply(s_, s_, out=s_)
            np.multiply(s_, c_s, out=s_)
            np.add(w_, s_, out=w_)
            np.multiply(a, ap, out=t_)
            np.multiply(t_, t_, out=t_)
            np.multiply(t_, 12.0, out=t_)
            np.divide(w_, t_, out=w_)
            np.add(f_, w_, out=f_)
            sums.append(float(np.sum(f_)))
        return sums

    def _head_sum(self, k: int, N: int) -> float:
        """sum_{1 <= m < b_N} (H(m) - H(m-k))^2, closed-form per linear piece,
        summed chunk by chunk of _CHUNK bumps.

        A chunk lo <= n < hi spans the positions [b_lo, b_hi), from 1 on. Its
        own breakpoints of H (bump starts and peaks) and those of H(m - k)
        that land in its span are two sorted runs, merged by one stable sort
        (timsort, linear on two runs) and freed of duplicates. Between merged
        points d = H(m) - H(m - k) is linear, and the bumps of each point and
        of the point minus k are found by a search in b.

        Rounding. With H(m) = p/a and H(m - k) = p'/a', a segment's first
        difference is n0/(aa') and its step S/(aa'), with n0 = p a' - p' a and
        S integers, exact in int64 while a < 2^31 (|n0| <= 2aa'); each float
        quotient is within 3u. `segment_square_sum` forms L m^2 + s^2 L (L^2 -
        1)/12: m = u + s (L-1)/2 is within 5u(|m| + sigma), sigma = |s| L,
        which moves L m^2 by at most 15u L m^2 + 5u L sigma^2, and L sigma^2 is
        at most 16 times the second term for L >= 2 (s = 0 when L = 1). With
        the roundings that form the two terms and their sum, a segment is
        within 91u. A chunk's segments are those of the whole head in its
        span, at most 4N + 1 < 2^25 of them, so its pairwise sum adds 26 + 25
        more (see `gamma_norm_sq_bounds`), and math.fsum of the chunk sums
        one rounding.
        """
        import numpy as np

        self.ensure_bumps(N)
        if self._a[N - 1] >= 2**31:
            raise SpecError(f"gamma_{k} of the bump cocycle with D = {self.D} "
                            f"needs bumps of half-width {self._a[N - 1]} in its "
                            f"head, past the 2^31 its sums are exact to")
        a_all, b_all = self._tables()

        def breakpoints(first, stop):  # b_first, b_first + a_first, ..., b_stop
            P = np.empty(2 * (stop - first) + 1, dtype=np.int64)
            P[0::2] = b_all[first:stop + 1]
            P[1::2] = b_all[first:stop] + a_all[first:stop]
            return P

        sums = []
        for lo in range(0, N, _CHUNK):
            hi = min(lo + _CHUNK, N)
            start, end = max(b_all[lo], 1), b_all[hi]
            # H(m - k) breaks at the breakpoints of H plus k: those in
            # [start, end] are breakpoints of the bumps from the one holding
            # start - k to the last starting by end - k
            Q = breakpoints(max(np.searchsorted(b_all, start - k, "right") - 1, 0),
                            np.searchsorted(b_all, end - k, "right"))
            Q = Q[np.searchsorted(Q, start - k):np.searchsorted(Q, end - k, "right")]
            # the first chunk's own run starts at b_0 + a_0 = 1, not at b_0
            pts = np.concatenate([breakpoints(lo, hi)[int(lo == 0):], Q + k])
            pts.sort(kind="stable")
            pts = pts[np.append(True, pts[1:] != pts[:-1])]
            X = pts[:-1]
            L = pts[1:] - X
            # X and X + 1 lie in one bump span wherever L > 1, as do X - k
            # and X + 1 - k
            i = np.maximum(np.searchsorted(b_all, X, "right") - 1, 0)
            j = np.maximum(np.searchsorted(b_all, X - k, "right") - 1, 0)
            ai, aj = a_all[i], a_all[j]
            n0 = self._num(X, i) * aj - self._num(X - k, j) * ai
            n1 = self._num(X + 1, i) * aj - self._num(X + 1 - k, j) * ai
            den = (ai * aj).astype(np.float64)
            s = np.where(L > 1, n1 - n0, 0) / den
            sums.append(_kernels.segment_square_sum(n0 / den, s, L))
        return math.fsum(sums)
