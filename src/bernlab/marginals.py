"""Action descriptions: group, marginal family, multiplicity, and builders.

An ActionSpec fixes a shift action on a product of two-point base measures
F(i) delta_0 + (1 - F(i)) delta_1 indexed by the group, through a function F
assigning the marginal mass of 0 to each index. Families are declarative and
immutable, and each family class carries everything that depends on it: F,
the support and norm of the cocycle c_g(h) = F(h) - F(g^{-1} h), its tail
outside a window, a conservativity certificate and the JSON form.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Optional

# numpy, bump and folner are imported in the functions that use them (see the
# package docstring)

from . import _kernels
from .exact import (
    _U,
    BoundedValue,
    LogValue,
    SpecError,
    convex_sum,
    format_fraction,
    parse_fraction,
)
from .groups import (
    Element,
    FreeGroup,
    Group,
    Integers,
    Word,
    ball,
    format_element,
    inv,
    mul,
    word_length,
)

__all__ = [
    "BaseMeasure",
    "DecreasingSequence",
    "MarginalFamily",
    "ZSequence",
    "WSplit",
    "FreeProductW",
    "FolnerInduced",
    "SpecialCocycle",
    "ActionSpec",
    "SpecError",
    "f_value",
    "measures_from_lambda",
    "measures_from_ab",
    "measures_from_atomic_eta",
    "spec_to_json",
    "spec_from_json",
]


@dataclass(frozen=True)
class BaseMeasure:
    """Probability vector on a finite base space of size >= 2, with exact
    rational masses (each read by `parse_fraction`)."""

    probs: tuple

    def __post_init__(self):
        if len(self.probs) < 2:
            raise SpecError("base space must have at least 2 points")
        probs = tuple(parse_fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        for p in probs:
            if not (0 < p < 1):
                raise SpecError(f"marginal mass {p} outside (0,1)")
        if sum(probs) != 1:
            raise SpecError(f"masses sum to {sum(probs)}, expected 1")

    def t_values(self, other: "BaseMeasure") -> tuple:
        if len(self.probs) != len(other.probs):
            raise SpecError("measures live on different base sizes")
        return tuple(q / p for p, q in zip(self.probs, other.probs))


def _frac_str(q) -> str:
    return format_fraction(Fraction(q))


def _spec_int(value) -> int:
    """An integer field of a spec: an int or an integer string, not a bool or
    a float with a fractional part, which int() would take as 1 or truncate."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise SpecError(f"not an integer: {value!r}")
    return int(value)


# most doubles the arrays of one ZSequence norm hold at once (32 MB): the
# head takes at most 4 J of them, so J <= _MAX_VALUES // 5, and a quadrature
# of an inv_sqrt_log tail at most 64 blocks of _MAX_PANELS + 1 points
_MAX_VALUES = 2**22
_MAX_PANELS = 2**11
_PANELS = 32  # panels per block of an inv_sqrt_log quadrature, at first
# relative error, in units of u, of the floats the ZSequence tail brackets
# are made of (see `ZSequence.tail`)
_ULPS = 128.0


def _gamma(n: int) -> float:
    """n u / (1 - n u): the relative error of a float sum or dot product of n
    nonnegative terms, in any order (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3-4)."""
    return n * _U / (1.0 - n * _U)


def _float_up(q: Fraction) -> float:
    """The least float >= q."""
    x = float(q)
    return math.nextafter(x, math.inf) if Fraction(x) < q else x


def _log_diff(y, k, xp=math):
    """g(y) - g(y + k) for g(y) = (y ln y)^-1/2, y > 1, without the
    cancellation of a difference of nearby floats; y may be an array, with
    xp = numpy. With h(y) = y ln y and z = y + k, over the common denominator,
        h(y)^-1/2 - h(z)^-1/2 = (h(z) - h(y)) / (sqrt(h(y) h(z)) (sqrt(h(y)) + sqrt(h(z)))),
    and h(z) - h(y) = k ln z + y log1p(k / y) is a sum of two positive terms."""
    z = y + k
    lz = xp.log(z)
    ry, rz = xp.sqrt(y * xp.log(y)), xp.sqrt(z * lz)
    return (k * lz + y * xp.log1p(k / y)) / (ry * rz * (ry + rz))


def _log_far(y: float, k: int) -> float:
    """Upper bound on int_y^inf (g(t) - g(t + k))^2 dt, g(t) = (t ln t)^-1/2,
    y > 1: the difference is at most k |g'(t)| (g' increases), g'(t)^2 =
    (L + 1)^2 / (4 t^3 L^3) with L = ln t, and (L + 1)^2 / L^3 decreases in
    L, so the integral is at most k^2 (L + 1)^2 / (8 y^2 L^3) at L = ln y."""
    L = math.log(y)
    return k * k * (L + 1.0) ** 2 / (8.0 * y * y * L**3)


@dataclass(frozen=True)
class DecreasingSequence:
    """a_0 >= a_1 >= ... > 0 given by a closed form or an explicit list.

    A closed form is a function a(x) of a real x >= -1/2 with a_j = a(j):
    c (x + 1)^-1/2 (inv_sqrt, c = scale) or g(x + n0) with g(y) =
    (y ln y)^-1/2 (inv_sqrt_log).
    """

    kind: str  # inv_sqrt | inv_sqrt_log | explicit
    scale: Optional[Fraction] = None
    n0: int = 2
    explicit: tuple = ()
    _c: float = field(default=0.0, init=False, compare=False, repr=False)  # float(scale)

    def __post_init__(self):
        if self.kind == "inv_sqrt":
            if self.scale is None or self.scale <= 0:
                raise SpecError(f"inv_sqrt needs scale > 0, got {self.scale}")
            object.__setattr__(self, "_c", float(self.scale))
        elif self.kind == "inv_sqrt_log":
            if not 2 <= self.n0 <= 2**32:
                raise SpecError(f"inv_sqrt_log needs 2 <= n0 <= 2^32, got {self.n0}")
        elif self.kind == "explicit":
            vals = self.explicit
            if not vals:
                raise SpecError("explicit sequence needs at least one value")
            if min(vals) <= 0:
                raise SpecError("explicit sequence values must be positive")
            if any(x < y for x, y in zip(vals, vals[1:])):
                raise SpecError("explicit sequence values must be nonincreasing")
        else:
            raise SpecError(f"unknown sequence kind {self.kind!r}")

    def a(self, j: int) -> float:
        if j < 0:
            raise SpecError("sequence index must be >= 0")
        if self.kind == "inv_sqrt":
            return self._c / math.sqrt(j + 1)
        if self.kind == "inv_sqrt_log":
            x = j + self.n0
            return 1.0 / math.sqrt(x * math.log(x))
        return float(self.explicit[min(j, len(self.explicit) - 1)])

    def values(self, J: int, start: int = 0) -> np.ndarray:
        """a_start, ..., a_(start+J-1) as a float array, computed in place."""
        import numpy as np

        if self.kind == "explicit":
            idx = np.minimum(np.arange(J) + start, len(self.explicit) - 1)
            return np.array([float(self.explicit[i]) for i in idx])
        x = np.arange(start, start + J, dtype=np.float64)
        if self.kind == "inv_sqrt":
            x += 1.0
            return np.divide(self._c, np.sqrt(x, out=x), out=x)
        x += self.n0
        t = np.log(x)
        np.multiply(x, t, out=t)
        return np.divide(1.0, np.sqrt(t, out=t), out=t)

    def _sq(self, x: float) -> float:
        """a(x)^2 at a real x >= -1/2 of a closed form."""
        if self.kind == "inv_sqrt":
            return self._c * self._c / (x + 1.0)
        y = x + self.n0
        return 1.0 / (y * math.log(y))

    def _sq_integral(self, x: float, y: float, upper: bool = False) -> float:
        """int_x^y a(t)^2 dt for -1/2 <= x <= y < inf, without cancellation:
        c^2 ln((y + 1)/(x + 1)) for inv_sqrt, and ln ln(y + n0) - ln ln(x + n0)
        for inv_sqrt_log, as d/dt ln ln t = 1/(t ln t). `upper` is ignored:
        the closed form is both bounds of `convex_sum`."""
        if self.kind == "inv_sqrt":
            return self._c * self._c * math.log1p((y - x) / (x + 1.0))
        X = x + self.n0
        return math.log1p(math.log1p((y - x) / X) / math.log(X))

    def _diff(self, x: float, k: int) -> float:
        """a(x) - a(x + k) at a real x >= -1/2 of a closed form, without the
        cancellation of a difference of nearby floats."""
        if self.kind == "inv_sqrt":
            # c (u^-1/2 - v^-1/2) = c d / sqrt(uv), d = sqrt(v) - sqrt(u)
            ru, rv = math.sqrt(x + 1.0), math.sqrt(x + 1.0 + k)
            return self._c * (k / (ru + rv)) / (ru * rv)
        return _log_diff(x + self.n0, k)

    def _diff_integral(self, x: float, k: int, upper: bool, panels: int) -> float:
        """A lower bound on I(x) = int_x^inf (a(t) - a(t + k))^2 dt (an upper
        bound when `upper`); see `ZSequence.tail` for the proofs.

        inv_sqrt: the closed form 2 c^2 log1p(d^2 / (4 sqrt(uv))), u = x + 1,
        v = u + k, d = k / (sqrt(u) + sqrt(v)), for both bounds.

        inv_sqrt_log: in y = t + n0, the midpoint (lower) or trapezoid (upper)
        rule with `panels` panels (a power of 2) on each block [y0 2^i,
        y0 2^(i+1)], y0 = x + n0, i < B, and for the upper bound the far tail
        `_log_far` past y0 2^B; B is the least with that far tail at most
        I_hat / (4 panels^2), where I_hat >= I(x) is the smaller of
        _log_far(y0) and int_y0^(y0+k) g^2 + _log_far(y0 + k).
        """
        if k == 0:
            return 0.0
        if self.kind == "inv_sqrt":
            u = x + 1.0
            ru, rv = math.sqrt(u), math.sqrt(u + k)
            d = k / (ru + rv)
            return 2.0 * self._c * self._c * math.log1p(d * d / (4.0 * ru * rv))
        import numpy as np

        y0 = x + self.n0
        i_hat = min(_log_far(y0, k),
                    math.log1p(math.log1p(k / y0) / math.log(y0)) + _log_far(y0 + k, k))
        limit = i_hat / (4.0 * panels * panels)
        B, top = 0, y0
        while _log_far(top, k) > limit and B < 64:
            B, top = B + 1, 2.0 * top
        start = y0 * np.exp2(np.arange(B))[:, None]  # exact: powers of 2
        h = start / panels  # exact: panels is a power of 2
        if upper:
            w = np.full(panels + 1, 1.0)
            w[0] = w[-1] = 0.5
            y = start + h * np.arange(panels + 1.0)
        else:
            w = 1.0
            y = start + h * (np.arange(panels) + 0.5)
        d = _log_diff(y, k, np)
        total = math.fsum((d * d * (h * w)).ravel().tolist())
        return total + _log_far(top, k) if upper else total

    def to_json(self) -> dict:
        if self.kind == "inv_sqrt":
            return {"kind": self.kind, "scale": _frac_str(self.scale)}
        if self.kind == "inv_sqrt_log":
            return {"kind": self.kind, "n0": self.n0}
        return {"kind": self.kind, "values": [_frac_str(v) for v in self.explicit]}

    @classmethod
    def from_json(cls, data: dict) -> "DecreasingSequence":
        kind = data["kind"]
        if kind == "inv_sqrt":
            return cls(kind, scale=parse_fraction(data["scale"]))
        if kind == "inv_sqrt_log":
            return cls(kind, n0=_spec_int(data["n0"]))
        if kind == "explicit":
            return cls(kind, explicit=tuple(parse_fraction(v) for v in data["values"]))
        return cls(kind)  # rejected as unknown


# --- marginal families -------------------------------------------------------

def _geometric(rate: float, m: int):
    """Dissipative verdict data when ||c_g||^2 >= rate |g|: the sphere-weighted
    series of exp(-m ||c_g||^2 / 2) is geometric with ratio 3 exp(-m rate / 2)."""
    rho = 3.0 * math.exp(-0.5 * m * rate)
    if rho >= 1.0:
        return None
    return ("Dissipative", 0.5, {"certificate": "geometric", "rho": rho,
                                 "beta": 4.0 / 3.0, "head": 1.0, "rate": rate,
                                 "power": m})


class MarginalFamily:
    """Base of the marginal families: one subclass per construction.

    A family is registered under its JSON `kind` in `_FAMILIES`. Norms and
    tails are for one copy; the callers in `cocycles` scale them by the
    multiplicity of the diagonal power.

    Every family's norm is additive over blocks: split a reduced word into
    its descending adjacent pairs x^e y^f (e >= 1, f <= -1) and its other
    syllables, one block each; then ||c_g||^2 is the sum of the blocks'
    ||c_b||^2. On the free group this is proved in `_SyllableFamily`; on
    the integers every k != 0 is one syllable. `criteria.criterion_partial_sums`
    rests on this: it evaluates `norm_sq` on blocks only.
    """

    kind: ClassVar[str]
    # support(g, extent) yields all of supp c_g whatever the extent: tail() is 0
    finite: ClassVar[bool] = False
    # F is rational and c_g vanishes off the ball of radius |g|, so the oracle
    # sums c_g exactly over a ball
    on_ball: ClassVar[bool] = False

    def to_json(self) -> dict:
        """The family's JSON object, with its `kind` first."""
        raise NotImplementedError

    @classmethod
    def from_json(cls, data: dict) -> "MarginalFamily":
        """Inverse of `to_json`; a missing field raises KeyError."""
        raise NotImplementedError

    def validate(self, group: Group):
        """Raise SpecError unless the family lives on `group`; return the
        (name, mass) pairs that must lie in [delta, 1 - delta]."""
        raise NotImplementedError

    def f(self, g: Element):
        """F(g), the mass of 0 at index g."""
        raise NotImplementedError

    def support(self, g: Element, extent: int):
        """Yield, once each, the points of the window of `extent` where c_g
        can be nonzero, and possibly some where it is 0; `extent` truncates
        infinite supports, and `tail` bounds the mass past it."""
        raise NotImplementedError

    def window_values(self, g: Element, extent: int):
        """(F(h), F(g^-1 h)) as float arrays over support(g, extent), in the
        order it yields the points; None, the default, makes the cocycles
        module read the window from `value_pairs`."""
        return None

    def norm_sq(self, g: Element, tol: float) -> BoundedValue:
        """||c_g||_2^2 of one copy, to within `tol` where it is truncated."""
        raise NotImplementedError

    def tail(self, g: Element, extent: int) -> float:
        """Bound on the mass of c_g outside support(g, extent)."""
        if self.finite:
            return 0.0
        raise NotImplementedError

    def certificate(self, group: Group, m: int, kappa: float, k0: float):
        """(verdict, kappa, evidence) of the m-fold power on `group`, where
        this family has a certificate at kappa against the threshold k0,
        else None."""
        return None


class _SyllableFamily(MarginalFamily):
    """Free-group families whose F depends on the last syllable only: F is
    `base` at the identity and base + psi_x(e) on a reduced word w x^e with w
    not ending in x, where psi_x(e) = 0 for e <= 0.

    A subclass gives `base`, the exact `psi(x, e)` and `gamma(x, e)`, a
    bracket (lo, hi) of Gamma_x(e) = sum_m (psi_x(m) - psi_x(m - e))^2, exact
    (lo == hi) where c_g is `finite`. For a reduced g = x_1^e_1 ... x_n^e_n,
        ||c_g||^2 = sum_j Gamma_{x_j}(e_j)
                    - 2 sum_j psi_{x_j}(e_j) psi_{x_(j+1)}(-e_(j+1)),
    and a cross term is nonzero only for a descending pair (e_j >= 1 > e_(j+1)).

    Proof. Let phi = F - base and (g.u)(h) = u(g^-1 h), so that c_g = phi -
    g.phi and c_(gh) = c_g + g.c_h. For h = w x^m with w nontrivial and not
    ending in x, x^-e h ends in the same syllable as h (w's last where m = 0),
    so c_(x^e) lives on the axis <x>, with c_(x^e)(x^m) = psi_x(m) - psi_x(m - e)
    and square norm Gamma_x(e). With the prefixes p_j = x_1^e_1 ... x_j^e_j,
    c_g is the sum of the u_j = p_(j-1).c_(x_j^e_j), each on the line
    p_(j-1)<x_j>. A common point p_(i-1) x_i^m = p_(j-1) x_j^k (i < j) makes
    x_i^(e_i - m) x_(i+1)^e_(i+1) ... x_(j-1)^e_(j-1) x_j^-k trivial, which the
    reduced middle syllables forbid for j > i + 1; for j = i + 1 it needs
    m = e_i and k = 0, the point p_i. So ||c_g||^2 = sum_j ||u_j||^2 +
    2 sum_j u_j(p_j) u_(j+1)(p_j), where u_j(p_j) = psi_{x_j}(e_j) and
    u_(j+1)(p_j) = -psi_{x_(j+1)}(-e_(j+1)), as psi(0) = 0. Each cross term
    stays inside its pair's block: the block additivity of `MarginalFamily`.
    """

    # F by last syllable and the cross term by descending pair ((x, e),
    # (y, k)), cached: each takes a few values over a ball, and a cache hit
    # costs a twentieth of one Fraction operation
    @functools.cached_property
    def _f_of(self):
        return functools.cache(lambda s: self.base + self.psi(*s))

    @functools.cached_property
    def _cross_of(self):
        return functools.cache(lambda p: -2 * self.psi(*p[0]) * self.psi(p[1][0], -p[1][1]))

    def f(self, g):
        return self._f_of(g.syls[-1]) if g.syls else self.base

    def norm_sq(self, g, tol):
        syls = g.syls
        cross = sum(self._cross_of(p) for p in zip(syls, syls[1:])
                    if p[0][1] > 0 > p[1][1])
        gammas = self._gammas(syls, tol)
        lo = sum((a for a, _ in gammas), cross)
        if self.finite:
            return BoundedValue.from_exact(lo)
        return BoundedValue.from_bracket(lo, sum((b for _, b in gammas), cross))

    def _gammas(self, syls, tol):
        """The Gamma brackets of the syllables."""
        return [self.gamma(*s) for s in syls]


class _BallFamily(_SyllableFamily):
    """Syllable families with psi_x(e) = psi_x(1) for every e >= 1: c_g
    vanishes off the ball of radius |g|, and Gamma_x(e) = |e| psi_x(1)^2, as
    exactly |e| integers m have one of m, m - e positive and one not.

    So the norm is linear in two syllable statistics of g: the length
    l_x(g) = sum of |e_j| over the syllables x_j = x, and the count d_xy(g)
    of descending pairs x^e y^f (e >= 1, f <= -1). With s_x = psi_x(1),
        ||c_g||^2 = sum_x l_x(g) s_x^2 - 2 sum_(x, y) d_xy(g) s_x s_y.
    Proof. In the `_SyllableFamily` formula, sum_j Gamma_{x_j}(e_j) =
    sum_j |e_j| s_{x_j}^2 groups by generator into sum_x l_x s_x^2; a
    descending pair has e_j >= 1 and -e_(j+1) >= 1, so its cross term
    -2 psi_{x_j}(e_j) psi_{x_(j+1)}(-e_(j+1)) is -2 s_{x_j} s_{x_(j+1)},
    and the cross terms group by (x, y) into the second sum.

    `norm_sq` reads (l, d) in integer arithmetic and keeps the exact norm
    per (l, d) on the instance: a ball of radius 8 in F_2 has 13,120 words
    but 168 keys."""

    finite = True
    on_ball = True

    def gamma(self, x, e):
        v = abs(e) * self.psi(x, 1) ** 2
        return v, v

    @functools.cached_property
    def _norm_of(self) -> dict:
        return {}

    def norm_sq(self, g, tol):
        r = g.rank
        # l_x at x - 1, then d_xy at r x + y - 1, for generators x, y = 1 .. r
        key = [0] * (r + r * r)
        after = 0  # x when the syllable before is a positive power of x, else 0
        for x, e in g.syls:
            if e > 0:
                key[x - 1] += e
                after = x
            else:
                key[x - 1] -= e
                if after:
                    key[r * after + x - 1] += 1
                after = 0
        key = tuple(key)
        out = self._norm_of.get(key)
        if out is None:
            s = [self.psi(x, 1) for x in range(1, r + 1)]
            total = sum((n * s[i] ** 2 for i, n in enumerate(key[:r])), Fraction(0))
            total -= 2 * sum(n * s[i // r] * s[i % r]
                             for i, n in enumerate(key[r:]) if n)
            out = self._norm_of[key] = BoundedValue.from_exact(total)
        return out

    def support(self, g, extent):
        yield from ball(FreeGroup(g.rank), word_length(g))

    def ball_norm_sq(self, g, radius: int) -> Fraction:
        """Exact sum of c_g(h)^2 over the ball of `radius`. Only the ball of
        radius min(radius, |g|) is enumerated: c_g vanishes off it."""
        gi = inv(g)
        total = Fraction(0)
        for h in ball(FreeGroup(g.rank), min(radius, word_length(g))):
            d = self.f(h) - self.f(mul(gi, h))
            total += d * d
        return total


@dataclass(frozen=True)
class ZSequence(MarginalFamily):
    """F(n) = lam + a_{n - n0} for n >= n0, lam otherwise."""

    lam: Fraction
    n0: int
    seq: DecreasingSequence
    _lam: float = field(default=0.0, init=False, compare=False, repr=False)  # float(lam)

    kind = "zsequence"

    def __post_init__(self):
        object.__setattr__(self, "_lam", float(self.lam))

    def to_json(self):
        return {"kind": self.kind, "lambda": _frac_str(self.lam), "n0": self.n0,
                "sequence": self.seq.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(parse_fraction(data["lambda"]), _spec_int(data["n0"]),
                   DecreasingSequence.from_json(data["sequence"]))

    def validate(self, group):
        if not isinstance(group, Integers):
            raise SpecError("ZSequence requires the integer group")
        return (("lambda", self.lam),
                ("lambda + a_0",
                 Fraction(self.lam) + Fraction(self.seq.a(0)).limit_denominator(10**9)))

    def f(self, n):
        if not isinstance(n, int):
            raise SpecError("ZSequence index must be an integer")
        if n < self.n0:
            return self._lam
        return self._lam + self.seq.a(n - self.n0)

    def support(self, k, extent):
        yield from range(self.n0 - max(-k, 0), self.n0 + extent + max(k, 0))

    def tail(self, k, extent):
        """Bound on sum_{j >= extent} (a_j - a_{j+k})^2, the mass of c_k
        outside support(k, extent): the upper end of `_tail_bracket`.

        An explicit sequence is constant from j = L-1 on: its tail is the
        finite sum over extent <= j < L-1, exact and rounded up.

        The closed forms. With a(x) as in `DecreasingSequence`, let D(x) =
        a(x) - a(x + k) and f = D^2, so the tail is sum_{j >= J} f(j).
        - f is convex and decreasing on x >= -1/2. Both closed forms have
          a > 0, a' < 0, a'' > 0 and a''' < 0 there (they are completely
          monotone; three derivatives are all the proof needs). Then D >= 0,
          D' = a'(x) - a'(x + k) <= 0 as a' increases, and D'' = a''(x) -
          a''(x + k) >= 0 as a'' decreases, so f' = 2 D D' <= 0 and f'' =
          2 D'^2 + 2 D D'' >= 0; the same argument makes a^2 convex and
          decreasing. inv_sqrt: the derivatives of c u^-1/2, u = x + 1, are
          -c/2 u^-3/2, 3c/4 u^-5/2 and -15c/8 u^-7/2. inv_sqrt_log: with h =
          y ln y, L = ln y and y = x + n0 >= 3/2,
              g' = -1/2 h^-3/2 (L + 1),
              g'' = h^-5/2 [3/4 (L + 1)^2 - L/2],
              g''' = h^-7/2 [-15/8 (L + 1)^3 + 11/4 L (L + 1) - L/2];
          3/4 L^2 + L + 3/4 has no real root, and (L + 1)^2 >= 4L gives
          15/8 (L + 1)^3 >= 15/2 L (L + 1) > 11/4 L (L + 1) for L >= 0.
        - So `convex_sum` brackets the tail between I(J) + f(J)/2 and
          I(J - 1/2), with I(x) = int_x^inf f; the width is about -f'(J)/8,
          3 k^2 c^2 / (32 J^4) for inv_sqrt when J >> k.
        - inv_sqrt: int (u^-1/2 - v^-1/2)^2 dx, v = u + k, is ln u + ln v -
          4 ln(sqrt(u) + sqrt(v)) = 2 ln(sqrt(uv) / (sqrt(u) + sqrt(v))^2),
          which tends to 2 ln(1/4); and (sqrt(u) + sqrt(v))^2 = 4 sqrt(uv) +
          d^2 with d = sqrt(v) - sqrt(u) = k / (sqrt(u) + sqrt(v)). So
              I(x) = 2 c^2 log1p(d^2 / (4 sqrt(uv))),
          a form with no cancellation.
        - inv_sqrt_log: I has no closed form. On each block of
          `DecreasingSequence._diff_integral` f is convex, so on a panel of
          width w with ends l, r and midpoint m, w f(m) <= int <= w (f(l) +
          f(r))/2: the midpoint sum is a lower bound on I, and the trapezoid
          sum plus the far tail (`_log_far`) an upper bound. Their gap is
          about 0.9 I / panels^2. Every point y0 2^i (1 + t/panels) is a
          float: y0 is a half-integer below 2^33 (n0 <= 2^32, and J below
          2^20), panels at most 2^11, and 2 y0 (2 panels + 2t) < 2^53.

        Rounding. a(x), D (free of cancellation), a^2, the closed-form
        integrals and the far tail take at most 20 operations each, with
        libm's log, log1p and sqrt within an ulp; a quadrature point's D
        takes 16 operations, with numpy's log and log1p taken to be within 4
        ulps, so D^2 times its weight is within 72u and math.fsum adds u. So
        every float `convex_sum` is given is within _ULPS = 128 u of the
        bound it stands for, and its radius r covers the rest.
        """
        k = abs(k)
        if self.seq.kind == "explicit":
            return _float_up(self._explicit_diffs(k, extent))
        _, hi, r = self._tail_bracket(k, extent, _PANELS)
        return hi + r

    def _tail_bracket(self, k, J, panels):
        """(lo, hi, r) of sum_{j >= J} (a_j - a_{j+k})^2 for a closed form,
        k >= 0; `panels` is the quadrature's for inv_sqrt_log (see `tail`)."""
        if k == 0:
            return 0.0, 0.0, 0.0
        seq = self.seq
        return convex_sum(lambda x: seq._diff(x, k) ** 2,
                          lambda x, y, upper: seq._diff_integral(x, k, upper, panels),
                          J, ulps=_ULPS)

    def _explicit_diffs(self, k, start) -> Fraction:
        """sum_{start <= j < L-1} (a_j - a_{min(j+k, L-1)})^2 of an explicit
        sequence: the differences vanish from j = L-1 on."""
        a = self.seq.explicit
        last = len(a) - 1
        return sum(((a[j] - a[min(j + k, last)]) ** 2 for j in range(start, last)),
                   Fraction(0))

    def _rest(self, k, J, panels):
        """(lo, hi, r): the bracket of what the head of `norm_sq` leaves out
        at depth J, sum_{j >= J} (a_j - a_{j+k})^2 plus, for J < k,
        sum_{J <= j < k} a_j^2 (by `convex_sum` on the convex, decreasing
        a^2; see `tail`)."""
        lo, hi, r = self._tail_bracket(k, J, panels)
        if J < k:
            seq = self.seq
            s_lo, s_hi, s_r = convex_sum(seq._sq, seq._sq_integral, J, k, ulps=_ULPS)
            lo, hi, r = lo + s_lo, hi + s_hi, r + s_r
        return lo, hi, r

    def _depth(self, k, target):
        """(J, panels, rest): a depth J and panel count at which the bracket
        of `norm_sq` is at most target wide, and the bracket of `_rest` there.
        Its width is the rest's plus twice the head's rounding, gamma_(2J+8)
        times the norm and more (`_head_rounding`), here with the norm
        bounded by 2 sum_{j<k} a_j^2: (a_j - a_(j+k))^2 <= a_j^2 - a_(j+k)^2
        as 0 < a_(j+k) <= a_j, and those differences telescope. Where the
        work budget (J <= _MAX_VALUES // 5, panels <= _MAX_PANELS) runs out
        first, the narrowest bracket it found.

        The guess comes from the rest's leading terms: about 3 k^2 a^2 /
        (32 y^3) for y >> k and a^2 / (4 y) for y << k, y the closed form's
        argument, and for inv_sqrt_log the quadrature's 0.9 I / panels^2 with
        I about k^2 a^2 / (8 y). While the rest's width w exceeds both target
        and the rounding, J grows by (w / target)^(1/p), p = 4 or 2 as the
        width falls like J^-4 (inv_sqrt, J >> k) or at least like J^-2. Past
        the budget's J, or once the rounding, which grows with J, is what
        keeps the width above target, the panels of an inv_sqrt_log
        quadrature grow by (w / target)^(1/2), at least twofold. When neither
        can grow, J halves while the width falls."""
        seq = self.seq
        log_kind = seq.kind == "inv_sqrt_log"
        panels, cap = _PANELS, _MAX_VALUES // 5
        _, s_hi, s_r = convex_sum(seq._sq, seq._sq_integral, 0, k, ulps=_ULPS)
        norm = 2.0 * (s_hi + s_r)

        def width(J, panels):
            lo, hi, r = rest = self._rest(k, J, panels)
            return hi - lo + 2.0 * r, 2.0 * self._head_rounding(k, J, norm), rest

        c2 = seq._c ** 2
        if log_kind:  # a(y)^2 y = 1 / ln y, taken at y = n0 + k
            c2 = 1.0 / math.log(seq.n0 + k)
        y = min((3.0 * k * k * c2 / (32.0 * target)) ** 0.25, 0.5 * math.sqrt(c2 / target))
        if log_kind:
            y = max(y, k / panels * math.sqrt(0.3 * c2 / target))
        J = min(max(1, math.ceil(y)), cap)
        while True:
            w, rounding, rest = width(J, panels)
            if w + rounding <= target:
                return J, panels, rest
            if J < cap and w > max(target, rounding):
                p = 2.0 if log_kind or J < 2 * k else 4.0
                J = min(cap, math.ceil(1.05 * J * (w / target) ** (1.0 / p)))
            elif log_kind and panels < _MAX_PANELS:
                grow = 2 ** math.ceil(math.log2((w / target) ** 0.5))
                panels = min(_MAX_PANELS, panels * max(2, grow))
            else:
                break
        best = (w + rounding, J, rest)
        while J > 1:
            J //= 2
            w, rounding, rest = width(J, panels)
            if w + rounding >= best[0]:
                break
            best = (w + rounding, J, rest)
        return best[1], panels, best[2]

    def _head_rounding(self, k, J, total):
        """The float error of the head of `norm_sq` at depth J, where total
        >= head + the rest's upper end (see `norm_sq` for the proof)."""
        eta = 8.0 * _U
        return (_gamma(2 * J + 8) * total
                + 8.0 * eta * (min(k, J) + eta * J) * self.seq.a(0) ** 2)

    def norm_sq(self, k, tol):
        """||c_k||^2 = sum_{j<k} a_j^2 + sum_{j>=0} (a_j - a_{j+k})^2 for
        k >= 0 (c_-k is c_k reflected): the head sums both over j < J,
        `_rest` brackets the rest, and `_depth` picks J from the width,
        aimed at tol/4 (J grows like the width^-1/4 to ^-1/2, so aiming
        nearer tol saves little). The head reads a_0 ... a_(J-1) and
        a_k ... a_(k+J-1): O(J) values whatever k is. Past the work budget
        the narrowest bracket `_depth` found is returned, wider than tol."""
        k = abs(k)
        if self.seq.kind == "explicit":
            # a_j = a_(L-1) for j >= L: k - L equal squares past the list
            a, L = self.seq.explicit, len(self.seq.explicit)
            head = sum(a[j] ** 2 for j in range(min(k, L))) + max(k - L, 0) * a[-1] ** 2
            return BoundedValue.from_exact(head + self._explicit_diffs(k, 0))
        J, _, (lo, hi, r) = self._depth(k, tol / 4.0)
        m = min(k, J)
        if k <= J:
            a = self.seq.values(J + k)
        else:
            import numpy as np

            # a_0 ... a_(J-1), then a_k ... a_(k+J-1): the head below with m = J
            a = np.concatenate((self.seq.values(J), self.seq.values(J, k)))
        head = _kernels.zseq_norm_head(a, m, J)
        # Float error of head. values() gives each a_j within eta = 8u of the
        # real one (at most three roundings, or numpy's log within a few ulps
        # and three more). So the squares of the first m terms move by
        # <= 3 eta m a_0^2, and each difference by <= 2 eta a_j, which moves
        # the difference squares by <= 4 eta sum a_j (a_j - a_{j+k}) +
        # 4 eta^2 sum a_j^2 <= 4 eta m a_0^2 + 4 eta^2 J a_0^2, as
        # sum_{j<J} (a_j - a_{j+k}) <= sum_{j<m} a_j. Summing the J + m
        # squares, the subtraction and the final additions adds
        # gamma_{2J+8} (head + hi); r covers the rounding of the rest.
        rounding = self._head_rounding(k, J, head + hi) + r
        return BoundedValue.from_bracket(head + lo - rounding, head + hi + rounding)

    def certificate(self, group, m, kappa, k0):
        kind = self.seq.kind
        if kind == "inv_sqrt":
            sig2 = float(self.seq.scale) ** 2
            s = m * sig2 / 2.0
            if s > 1.0:
                tail = 2.0 ** (1.0 - s) / (s - 1.0) + 2.0 ** (-s)
                return ("Dissipative", 0.5, {
                    "certificate": "integral-test",
                    "exponent": s,
                    "term_bound": "(1+k)^-s",
                    "tail_bound": tail,
                    "power": m,
                })
            c = 2.0 * kappa * m * sig2
            if kappa > k0 and c <= 1.0:
                return ("Conservative", kappa, {
                    "witness": "logarithmic norm bound",
                    "minorant": f"exp(-{c:.6g}) * sum k^-{c:.6g}",
                    "constant": math.exp(-c),
                    "exponent": c,
                })
        elif kind == "inv_sqrt_log" and kappa > k0:
            n0 = self.seq.n0
            c = 2.0 * kappa * m
            if c == math.inf:
                # the constant would be 0 * inf: no certificate at this kappa
                return None
            try:
                constant = math.exp(-c * self.seq.a(0) ** 2) * math.log(n0) ** c
            except OverflowError:
                constant = None  # JSON has no infinity: reported as null
            return ("Conservative", kappa, {
                "witness": "iterated-logarithm norm bound",
                "minorant": f"C * sum (log(k+{n0}))^-{c:.6g}",
                "constant": constant,
                "exponent": c,
            })
        return None


def _log_one_minus_exp(log_y: float) -> float:
    """log(1 - exp(-y)) from log y, also where y leaves the float range."""
    if log_y < -700.0:
        return log_y  # 1 - exp(-y) = y (1 - y/2 + ...), and y < 1e-304
    return math.log(-math.expm1(-math.exp(min(log_y, 709.0))))


def _exp_or_none(log_v: float) -> Optional[float]:
    try:
        return math.exp(log_v)
    except OverflowError:
        return None  # JSON has no infinity: reported as null


def _zero_rate(kappa: float, generator: str):
    """Conservative evidence from a generator whose powers all have
    ||c||^2 = 0: every term of its cyclic subgroup equals 1."""
    return ("Conservative", kappa, {
        "witness": "zero-rate cyclic subgroup",
        "generator": generator,
        "minorant": "every power of the generator has ||c||^2 = 0; "
                    "the sum diverges at every kappa",
    })


@dataclass(frozen=True)
class WSplit(_BallFamily):
    """F = p_a on words ending in a positive power of a, p_b on words ending
    in a positive power of b, and p_w elsewhere (e included)."""

    p_a: Fraction
    p_b: Fraction
    p_w: Fraction

    kind = "wsplit"

    def to_json(self):
        return {"kind": self.kind, "p_a": _frac_str(self.p_a),
                "p_b": _frac_str(self.p_b), "p_w": _frac_str(self.p_w)}

    @classmethod
    def from_json(cls, data):
        return cls(parse_fraction(data["p_a"]), parse_fraction(data["p_b"]),
                   parse_fraction(data["p_w"]))

    def validate(self, group):
        if not isinstance(group, FreeGroup) or group.rank != 2:
            raise SpecError("WSplit requires the rank-2 free group")
        return (("p_a", self.p_a), ("p_b", self.p_b), ("p_w", self.p_w))

    @property
    def base(self):
        return self.p_w

    def psi(self, x, e):
        if e <= 0:
            return 0
        return (self.p_a if x == 1 else self.p_b) - self.p_w

    @property
    def rates(self):
        """(alpha, beta) = (p_a - p_w, p_w - p_b)."""
        return self.p_a - self.p_w, self.p_w - self.p_b

    def witness_log_q(self, kappa: float, m: int, n_terms: Optional[int] = None):
        """(log q, log const) of the two-generator witness subgroup family.

        Words (a^-1 b^{n_1} a b^{m_1}) ... (a^-1 b^{n_k} a b^{m_k}) have
        2k a-letters, sum(n_i + m_i) b-letters and k-1 descending pairs; summing
        the geometric series over the inner exponents leaves const * q^k with
            q = exp(-2 kappa m (alpha^2 + alpha beta + beta^2)) (1 - x^N)^2 / (1 - x)^2,
            const = exp(2 kappa m alpha beta),
        x = exp(-y), y = kappa m beta^2 and N = n_terms (x^N = 0 when None).
        Both are returned as logarithms, which stay finite where q or const
        leaves the float range. log y is taken from the Fraction beta, so a
        beta^2 below the float range still counts; beta must be nonzero.
        """
        alpha, beta = self.rates
        c = kappa * m
        log_y = (math.log(c) + 2.0 * (math.log(abs(beta.numerator))
                                      - math.log(beta.denominator)))
        log_q = -2.0 * c * float(alpha * alpha + alpha * beta + beta * beta) \
            - 2.0 * _log_one_minus_exp(log_y)
        if n_terms is not None:
            log_q += 2.0 * _log_one_minus_exp(log_y + math.log(n_terms))
        return log_q, 2.0 * c * float(alpha * beta)

    def certificate(self, group, m, kappa, k0):
        alpha, beta = self.rates
        if alpha == 0 and beta == 0:
            return ("Conservative", kappa, {
                "witness": "identity-cocycle",
                "minorant": "every term equals 1; the sum over balls diverges",
            })
        if alpha == 0 or beta == 0:
            # ||c_{x^n}||^2 = 0 for the generator x whose letters cost nothing
            return _zero_rate(kappa, "a" if alpha == 0 else "b")
        if alpha >= 0 and beta >= 0:
            rate = float(min(alpha * alpha, beta * beta))
        else:
            rate = float(min(alpha * alpha, beta * beta) - abs(alpha * beta))
        if rate > 0:
            found = _geometric(rate, m)
            if found is not None:
                return found
        if kappa > k0:
            log_q, log_const = self.witness_log_q(kappa, m)
            if log_q >= 0.0:
                return ("Conservative", kappa, {
                    "witness": "two-generator subgroup family",
                    "q": _exp_or_none(log_q),
                    "const": _exp_or_none(log_const),
                    "minorant": "sum_k const * q^k with q >= 1",
                })
        return None


@dataclass(frozen=True)
class FreeProductW(_BallFamily):
    """mu_g = mu1 on words ending in a strictly positive power of the
    distinguished generator, mu0 elsewhere. Both are two-point measures:
    F is the mass of point 0, which determines only a two-point measure."""

    mu0: BaseMeasure
    mu1: BaseMeasure
    distinguished: int = 1

    kind = "free_product_w"

    def to_json(self):
        return {"kind": self.kind, "mu0": [_frac_str(p) for p in self.mu0.probs],
                "mu1": [_frac_str(p) for p in self.mu1.probs],
                "distinguished": self.distinguished}

    @classmethod
    def from_json(cls, data):
        return cls(BaseMeasure(tuple(data["mu0"])), BaseMeasure(tuple(data["mu1"])),
                   _spec_int(data.get("distinguished", 1)))

    def validate(self, group):
        if not isinstance(group, FreeGroup):
            raise SpecError("FreeProductW requires a free group")
        if len(self.mu0.probs) != 2 or len(self.mu1.probs) != 2:
            raise SpecError("FreeProductW needs two-point measures mu0 and mu1")
        if not 1 <= self.distinguished <= group.rank:
            raise SpecError(f"distinguished generator {self.distinguished} "
                            f"outside 1..{group.rank}")
        return [("base mass", p) for mu in (self.mu0, self.mu1) for p in mu.probs]

    @property
    def base(self):
        return self.mu0.probs[0]

    def psi(self, x, e):
        if e <= 0 or x != self.distinguished:
            return 0
        return self.mu1.probs[0] - self.mu0.probs[0]

    def certificate(self, group, m, kappa, k0):
        if self.mu0 == self.mu1:
            return ("Conservative", kappa,
                    {"witness": "identity-cocycle", "minorant": "all terms equal 1"})
        if group.rank >= 2:
            # psi_y = 0 on every other generator y, so ||c_{y^n}||^2 = |n| psi_y(1)^2 = 0
            y = 2 if self.distinguished == 1 else 1
            return _zero_rate(kappa, format_element(Word(group.rank, ((y, 1),))))
        return None


@dataclass(frozen=True)
class FolnerInduced(MarginalFamily):
    """Marginal mu_k(0) = F(k) + offset for a Folner-interval cocycle on Z
    whose amplitudes stay below delta_f."""

    phi_kind: str  # log | sqrt_log
    phi_scale: Fraction
    horizon: int
    offset: Fraction
    delta_f: Fraction = Fraction(1, 2)
    cocycle: FolnerCocycle = field(init=False, compare=False, repr=False)

    kind = "folner"
    finite = True

    def __post_init__(self):
        from .folner import build_folner

        try:
            coc = build_folner(self.phi, horizon=self.horizon,
                               delta=float(self.delta_f))
        except ValueError as exc:  # SpecError included: keep its message
            raise SpecError(str(exc)) from exc
        object.__setattr__(self, "cocycle", coc)

    def phi(self, k: int) -> float:
        if self.phi_kind == "log":
            return math.log(1.0 + k)
        if self.phi_kind == "sqrt_log":
            return math.sqrt(float(self.phi_scale) * math.log(1.0 + k))
        raise SpecError(f"unknown phi kind {self.phi_kind!r}")

    def to_json(self):
        return {"kind": self.kind,
                "phi": {"kind": self.phi_kind, "scale": _frac_str(self.phi_scale)},
                "horizon": self.horizon, "offset": _frac_str(self.offset),
                "delta_f": _frac_str(self.delta_f)}

    @classmethod
    def from_json(cls, data):
        return make_folner_family(
            phi_kind=data["phi"]["kind"],
            phi_scale=data["phi"].get("scale", "1"),
            horizon=_spec_int(data["horizon"]),
            offset=data["offset"],
            delta_f=data.get("delta_f", "1/2"),
        )

    def validate(self, group):
        if not isinstance(group, Integers):
            raise SpecError("FolnerInduced requires the integer group")
        fmax = max(self.cocycle.values)
        return (("offset", self.offset),
                ("offset + max F",
                 Fraction(self.offset) + Fraction(fmax).limit_denominator(10**9)))

    def f(self, k):
        return float(self.offset) + self.cocycle.f(k)

    def support(self, k, extent):
        for lo, hi in self.cocycle.support_zones(k):
            yield from range(lo, hi)

    def window_values(self, k, extent):
        # support zone by zone; h - k runs over the zones shifted by -k
        zones = list(self.cocycle.support_zones(k))
        shifted = [(lo - k, hi - k) for lo, hi in zones]
        offset = float(self.offset)
        return (offset + self.cocycle.f_zones(zones),
                offset + self.cocycle.f_zones(shifted))

    def norm_sq(self, k, tol):
        return BoundedValue.from_truncation(self.cocycle.norm_sq_closed(k), 0.0)

    def certificate(self, group, m, kappa, k0):
        if self.phi_kind == "sqrt_log" and kappa > k0:
            c = kappa * m * float(self.phi_scale)
            if c <= 1.0:
                return ("Conservative", kappa, {
                    "witness": "construction norm bound",
                    "minorant": f"sum (1+k)^-{c:.6g}",
                    "exponent": c,
                })
        return None


def make_folner_family(
    phi_kind: str = "log",
    phi_scale=Fraction(1),
    horizon: int = 256,
    offset=Fraction(1, 2),
    delta_f=Fraction(1, 2),
) -> FolnerInduced:
    return FolnerInduced(phi_kind, parse_fraction(phi_scale), horizon,
                         parse_fraction(offset), parse_fraction(delta_f))


@functools.cache
def _bump_cocycle(D: Fraction) -> BumpCocycle:
    """One BumpCocycle per D, so that its memos of H and of the gamma_k
    brackets serve every SpecialCocycle with that D."""
    from .bump import BumpCocycle

    return BumpCocycle(D)


@dataclass(frozen=True)
class SpecialCocycle(_SyllableFamily):
    """psi_a = scale * H and psi_b = -scale * H, with the bounded oscillating
    H of `bump` (H(n) = 0 for n <= 0), so that Gamma_x(e) = scale^2 times the
    bracket of `BumpCocycle.gamma_norm_sq_bounds(e)`.

    `norm_sq(g, tol)` gives each of g's n syllables an equal share of tol,
    tol / 8 up to 8 syllables and tol / 8^r up to 8^r: it asks
    `gamma_norm_sq_bounds` for a half-width of that share over scale^2, so
    the norm's bracket is at most tol wide on each side unless a syllable's
    work budget runs out, and then the bracket reached is returned. The
    brackets are memoized per |e| in the `BumpCocycle` shared by every
    instance with this D, so a repeated request costs nothing."""

    D: Fraction
    base: Fraction
    scale: Fraction
    bc: BumpCocycle = field(init=False, compare=False, repr=False)
    _s2: float = field(init=False, compare=False, repr=False)

    kind = "special"

    def __post_init__(self):
        if self.D <= 0:
            raise SpecError(f"D must be positive, got {self.D}")
        object.__setattr__(self, "bc", _bump_cocycle(self.D))
        object.__setattr__(self, "_s2", float(self.scale) ** 2)

    def to_json(self):
        return {"kind": self.kind, "D": _frac_str(self.D),
                "base": _frac_str(self.base), "scale": _frac_str(self.scale)}

    @classmethod
    def from_json(cls, data):
        return cls(parse_fraction(data["D"]), parse_fraction(data["base"]),
                   parse_fraction(data["scale"]))

    def validate(self, group):
        if not isinstance(group, FreeGroup) or group.rank != 2:
            raise SpecError("SpecialCocycle requires the rank-2 free group")
        return (("base - scale", self.base - self.scale),
                ("base + scale", self.base + self.scale))

    def psi(self, x, e):
        h = self.scale * self.bc.h_exact(e)
        return h if x == 1 else -h

    def gamma(self, x, e, tol=math.inf):
        lo, hi = self.bc.gamma_norm_sq_bounds(e, tol / self._s2)
        return self._s2 * lo, self._s2 * hi

    def _gammas(self, syls, tol):
        # the share is tol / 8^r for the least 8^r >= n, so the words of up
        # to 8 syllables all ask for tol / 8: a syllable's bracket does not
        # depend on the word around it, and the norm's bracket is the sum of
        # its blocks' brackets (see `MarginalFamily`)
        parts = 8
        while parts < len(syls):
            parts *= 8
        return [self.gamma(x, e, tol / parts) for x, e in syls]

    def _runs(self, g, extent):
        """support(g, extent) as runs (stem, x, lo, hi, rest, t): the points
        stem x^m, lo <= m <= hi, where g^-1 stem x^m = rest x^(m + t), with
        stem and rest syllable tuples not ending in x.

        Off the identity, c_g lives on g's n syllable lines (see
        `_SyllableFamily`): line j is p_(j-1)<x_j>, with the point
        p_(j-1) x_j^m at m. On each, the runs keep |m| <= extent and
        |m - e_j| <= extent, the windows around p_(j-1) and p_j, clipped
        below at m = min(0, e_j): for lower m both p_(j-1) x_j^m and
        g^-1 p_(j-1) x_j^m = rest x_j^(m - e_j) end in a negative exponent,
        so F is base at both. The point m = 0, p_(j-1), is kept on line j - 1
        at m = e_(j-1), and the identity on the line of a: line 1, or a run
        of its own ahead of it when x_1 is b."""
        syls = g.syls
        inverse = tuple((y, -e) for y, e in reversed(syls))
        runs = []
        if not syls or syls[0][0] != 1:
            runs.append(((), 1, 0, 0, inverse, 0))
        for j, (x, c) in enumerate(syls):
            rest = inverse[:len(syls) - j - 1]
            low = min(0, c)
            (lo, hi), (lo2, hi2) = sorted((max(s - extent, low), s + extent)
                                          for s in (0, c))
            spans = [(lo, max(hi, hi2))] if lo2 <= hi + 1 else [(lo, hi), (lo2, hi2)]
            for lo, hi in spans:
                if lo <= 0 <= hi and (j or x != 1):
                    pieces = [(lo, -1), (1, hi)]
                else:
                    pieces = [(lo, hi)]
                runs.extend((syls[:j], x, a, b, rest, -c) for a, b in pieces if a <= b)
        return runs

    def support(self, g, extent):
        for stem, x, lo, hi, _, _ in self._runs(g, extent):
            for m in range(lo, hi + 1):
                yield Word(2, stem + ((x, m),) if m else stem)

    def window_values(self, g, extent):
        import numpy as np

        runs = self._runs(g, extent)
        # one table of H over 0..top serves every run, since H(n) = 0 for
        # n <= 0: top covers each index and each exponent of g, which is
        # where a stem's last syllable comes from
        top = max([0] + [abs(e) for _, e in g.syls]
                  + [max(hi, hi + t) for _, _, _, hi, _, t in runs])
        h = self.bc.h_float(np.arange(top + 1))
        # each run is written into its slice of the two outputs, so no other
        # window-sized array is made
        size = sum(hi - lo + 1 for _, _, lo, hi, _, _ in runs)
        f_h, f_g = np.empty(size), np.empty(size)
        at = 0
        for stem, x, lo, hi, rest, t in runs:
            end = at + hi - lo + 1
            self._run_f(h, stem, x, lo, hi, f_h[at:end])
            self._run_f(h, rest, x, lo + t, hi + t, f_g[at:end])
            at = end
        return f_h, f_g

    def _axis_f(self, x, h, out=None):
        """Float F at the words ending in a syllable (x, n), n != 0, from
        the float H(n), written into `out` when it is given."""
        import numpy as np

        c = float(self.scale) if x == 1 else -float(self.scale)
        return np.add(float(self.base), np.multiply(c, h, out=out), out=out)

    def _run_f(self, h, stem, x, lo, hi, out):
        """Float F(stem x^n) for n in lo..hi, written into `out`; stem does
        not end in x and the table h holds H over
        0..max(hi, |exponents of stem|).

        The words come out of one formula, so equal exact values give equal
        floats."""
        # H(n) = 0 for the first k points, n <= 0
        k = max(0, min(hi, 0) - lo + 1)
        out[:k] = h[0]
        out[k:] = h[max(lo, 1):max(hi, 0) + 1]
        self._axis_f(x, out, out=out)
        if lo <= 0 <= hi:
            # H(0) = 0 gives F(e) = base
            z, e = stem[-1] if stem else (1, 0)
            out[-lo] = self._axis_f(z, h[max(e, 0)])

    def tail(self, g, extent):
        M = self.bc.bump_index_at(max(extent - word_length(g), 1))
        tail = 0.0
        for _, e in g.syls:
            tail += self._s2 * self.bc.tail_bound(e, M)
        return tail

    def certificate(self, group, m, kappa, k0):
        return _geometric(self._s2 * float(self.D), m)


_FAMILIES = {cls.kind: cls for cls in
             (WSplit, ZSequence, FreeProductW, FolnerInduced, SpecialCocycle)}


@dataclass(frozen=True)
class ActionSpec:
    group: Group
    family: MarginalFamily
    multiplicity: int = 1
    delta: Fraction = Fraction(1, 3)

    def __post_init__(self):
        if self.multiplicity < 1:
            raise SpecError("multiplicity must be >= 1")
        delta = parse_fraction(self.delta)
        if not (0 < delta <= Fraction(1, 2)):
            raise SpecError(f"delta must lie in (0, 1/2], got {delta}")
        object.__setattr__(self, "delta", delta)
        lo, hi = delta, 1 - delta
        for what, v in self.family.validate(self.group):
            if not (lo <= v <= hi):
                raise SpecError(f"{what} = {v} leaves [{lo}, {hi}]")


def f_value(spec: ActionSpec, i):
    """F at an index point; the copies of a diagonal power share F."""
    return spec.family.f(i)


def substream_rng(seed: int, payload: str) -> np.random.Generator:
    """PCG64 stream seeded by [seed, first 8 bytes of sha256(payload)].

    The seed is any nonnegative int; it enters the SeedSequence whole, not
    reduced mod 2^64, so seeds 0 and 2^64 draw different streams.
    """
    import numpy as np

    digest = hashlib.sha256(payload.encode()).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.Generator(np.random.PCG64([seed, key]))


# --- measure builders --------------------------------------------------------

def measures_from_lambda(lam) -> tuple:
    lam = parse_fraction(lam)
    if not (0 < lam < 1):
        raise SpecError(f"lambda must lie in (0,1), got {lam}")
    mu0 = BaseMeasure((1 / (1 + lam), lam / (1 + lam)))
    mu1 = BaseMeasure((lam / (1 + lam), 1 / (1 + lam)))
    return mu0, mu1


def measures_from_ab(a, b) -> tuple:
    """Two-point measures with T(0) = e^b, T(1) = e^{b-a}; three-point
    measures with T-range {1, e^a, e^{-a}} when b = 0.

    a is a LogValue and b a LogValue or 0, so the measures are exact.
    """
    if not isinstance(a, LogValue) or not (isinstance(b, LogValue) or b == 0):
        raise SpecError("need a LogValue a and a LogValue or 0 b")
    ea = a.arg
    eb = b.arg if isinstance(b, LogValue) else Fraction(1)
    if ea <= 1:
        raise SpecError("need a > 0")
    if not (1 <= eb < ea):
        raise SpecError("need 0 <= b < a")
    if eb == 1:
        x = 1 / (2 * (ea + 1))
        mu0 = BaseMeasure((Fraction(1, 2), x, ea * x))
        mu1 = BaseMeasure((Fraction(1, 2), ea * x, x))
    else:
        m0 = (ea / eb - 1) / (ea - 1)
        mu0 = BaseMeasure((m0, 1 - m0))
        mu1 = BaseMeasure((eb * m0, 1 - eb * m0))
    ts = mu0.t_values(mu1)
    if eb == 1:
        assert set(ts) == {1, ea, 1 / ea}
    else:
        assert ts == (eb, eb / ea)
    return mu0, mu1


def measures_from_atomic_eta(atoms) -> tuple:
    """Base space {(t_n,0),(t_n,1)} with T(t_n,0) = t_n and T(t_n,1) = 1/t_n."""
    atoms = [(parse_fraction(t), parse_fraction(w)) for t, w in atoms]
    if not atoms:
        raise SpecError("need at least one atom")
    ts = [t for t, _ in atoms]
    if len(set(ts)) != len(ts):
        raise SpecError("duplicate atoms")
    for t, w in atoms:
        if not (0 < t < 1):
            raise SpecError(f"atom {t} outside (0,1)")
        if w <= 0:
            raise SpecError("weights must be positive")
    kappa = sum(w * (1 + t) for t, w in atoms)
    mu0, mu1 = [], []
    for t, w in atoms:
        mu0.extend([w / kappa, w * t / kappa])
        mu1.extend([w * t / kappa, w / kappa])
    return BaseMeasure(tuple(mu0)), BaseMeasure(tuple(mu1))


# --- serialization -----------------------------------------------------------

def spec_to_json(spec: ActionSpec) -> dict:
    if isinstance(spec.group, FreeGroup):
        group = {"type": "free", "rank": spec.group.rank}
    else:
        group = {"type": "integers"}
    return {
        "group": group,
        "multiplicity": spec.multiplicity,
        "delta": _frac_str(spec.delta),
        "family": spec.family.to_json(),
    }


def spec_from_json(data) -> ActionSpec:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        gspec = data["group"]
        if gspec["type"] == "free":
            group: Group = FreeGroup(_spec_int(gspec["rank"]))
        elif gspec["type"] == "integers":
            group = Integers()
        else:
            raise SpecError(f"unknown group type {gspec['type']!r}")
        kind = data["family"]["kind"]
        if kind not in _FAMILIES:
            raise SpecError(f"unknown family kind {kind!r}")
        return ActionSpec(
            group=group,
            family=_FAMILIES[kind].from_json(data["family"]),
            multiplicity=_spec_int(data.get("multiplicity", 1)),
            delta=parse_fraction(data.get("delta", "1/3")),
        )
    except KeyError as exc:
        raise SpecError(f"missing field {exc} in spec JSON") from exc
    except SpecError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"malformed spec JSON: {exc}") from exc
