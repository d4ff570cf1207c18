"""Exact scalar helpers shared across modules.

Rationals travel as `fractions.Fraction`; quantities of the form log(r) with
r rational are kept multiplicatively as `LogValue` so that equality and
modular reduction stay exact. Reals known only to within an error radius
travel as `BoundedValue`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

__all__ = ["BoundedValue", "LogValue", "SpecError", "convex_sum", "parse_fraction",
           "format_fraction"]

# relative allowance for float rounding in a certified float sum
_FLOAT_SLACK = 1e-12
_U = 2.0**-53  # unit roundoff of a float


class SpecError(ValueError):
    """Invalid input: a malformed or inadmissible spec, measure or argument."""


def parse_fraction(text) -> Fraction:
    """Parse "p/q" (or an int/float/Fraction passthrough) into a Fraction."""
    if isinstance(text, Fraction):
        return text
    try:
        if isinstance(text, int):
            return Fraction(text)
        if isinstance(text, float):
            return Fraction(text).limit_denominator(10**12)
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SpecError(f"not a rational number: {text!r}") from exc


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def convex_sum(phi, integral, N, M=math.inf, ulps: float = 0.0):
    """(lo, hi, r): lo <= sum_{N <= n < M} phi(n) <= hi over the integers n,
    for a phi that is convex and decreasing on [N - 1/2, M - 1/2] (M = inf
    allowed, where phi tends to 0 and is integrable), each end computed
    within r of its real value.

    `phi(x)` is phi at x, and `integral(x, y, upper)` a lower bound on
    int_x^y phi (an upper bound when `upper` is true; the same number for a
    closed form). Each is a float within a relative `ulps` u, u = 2^-53, of
    the real number it stands for.

    Proof. A convex phi lies below its chord on [n, n+1], so int_n^(n+1) phi
    <= (phi(n) + phi(n+1))/2 (the trapezoid rule), and above its tangent at
    n, so phi(n) <= int_(n-1/2)^(n+1/2) phi (the midpoint rule). Summed over
    N <= n < M, with phi(M) = 0 when M = inf,
        int_N^M phi + (phi(N) - phi(M))/2 <= sum <= int_(N-1/2)^(M-1/2) phi.
    lo is the left side from the lower bound on its integral, hi the right
    side from the upper bound on its integral. The width is about
    (phi'(M) - phi'(N))/8.

    Rounding. Halving a float is exact, and phi(N) - phi(M) and the sum with
    the integral round once each, so lo is within (ulps + 2)(1 + 2u) u times
    |int| + phi(N) + phi(M) of its real value, and hi within ulps u |int|;
    r takes (ulps + 3)u times the sum of all four sizes.
    """
    low = integral(N, M, False)
    p_n = phi(N)
    if M == math.inf:
        p_m, lo = 0.0, low + p_n / 2
    else:
        p_m = phi(M)
        lo = low + (p_n - p_m) / 2
    high = integral(N - 0.5, M - 0.5, True)
    return lo, high, (ulps + 3.0) * _U * (abs(low) + abs(high) + abs(p_n) + abs(p_m))


@dataclass(frozen=True, order=False)
class LogValue:
    """log(arg) for a positive rational arg, stored exactly."""

    arg: Fraction

    def __post_init__(self):
        if self.arg <= 0:
            raise ValueError(f"LogValue argument must be positive, got {self.arg}")
        object.__setattr__(self, "arg", Fraction(self.arg))

    def __float__(self) -> float:
        # math.log(Fraction) loses precision for huge numerators; split the log
        return math.log(self.arg.numerator) - math.log(self.arg.denominator)

    def __repr__(self):
        return f"log({format_fraction(self.arg)})"


@dataclass(frozen=True)
class BoundedValue:
    """A real number known to lie in [value - err, value + err]."""

    value: float
    err: float
    exact: Optional[Fraction] = None
    # the lower end of a bracket [lo, inf], where value and err are inf and
    # value - err would be nan
    _lo: Optional[float] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error radius must be nonnegative")

    @classmethod
    def from_exact(cls, q) -> "BoundedValue":
        q = Fraction(q)
        return cls(float(q), 0.0, q)

    @classmethod
    def from_bracket(cls, lo: float, hi: float) -> "BoundedValue":
        """The interval [lo, hi] as a midpoint and a radius.

        The midpoint rounds, so the radius is its larger distance to an end,
        widened by ulps until lower <= lo and upper >= hi (at most one ulp
        on 10^5 random brackets in [0, 10]). Widening (hi - lo)/2 instead can
        take more than 10^4 ulp steps when a narrow bracket straddles a power
        of two.
        """
        mid = (lo + hi) / 2.0
        if math.isinf(mid) and math.isfinite(lo) and math.isfinite(hi):
            mid = lo / 2.0 + hi / 2.0  # lo + hi overflowed
        if hi == math.inf:
            out = cls(mid, (hi - lo) / 2.0)
            object.__setattr__(out, "_lo", lo)
            return out
        err = max(mid - lo, hi - mid)
        while mid - err > lo or mid + err < hi:
            err = math.nextafter(err, math.inf)
        return cls(mid, err)

    @classmethod
    def from_truncation(cls, head: float, tail: float) -> "BoundedValue":
        """A nonnegative float sum `head` plus a remainder in [0, tail]."""
        return cls(head + tail / 2.0, tail / 2.0 + _FLOAT_SLACK * (1.0 + head))

    @property
    def lower(self) -> float:
        return self.value - self.err if self._lo is None else self._lo

    @property
    def upper(self) -> float:
        return self.value + self.err

    def scaled(self, m) -> "BoundedValue":
        if m == 1:
            return self
        exact = None if self.exact is None else self.exact * m
        return BoundedValue(self.value * float(m), self.err * float(m), exact)
