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

__all__ = ["BoundedValue", "LogValue", "SpecError", "parse_fraction",
           "format_fraction"]

# relative allowance for float rounding in a certified float sum
_FLOAT_SLACK = 1e-12


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
        out = cls((lo + hi) / 2.0, (hi - lo) / 2.0)
        if hi == math.inf:
            object.__setattr__(out, "_lo", lo)
        return out

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
        exact = None if self.exact is None else self.exact * m
        return BoundedValue(self.value * float(m), self.err * float(m), exact)
