"""Exact ratio-group arithmetic over prime-exponent lattices.

Classifies the Krieger type of the free-product constructions from the pair
(mu0, mu1), computes the stable-type data (L, a, b, k1) and the Sd basis.
Everything is decided by unique factorization of the exact rational masses.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .exact import LogValue, Record, format_fraction, parse_fraction
from .marginals import BaseMeasure, SpecError

__all__ = [
    "RatioGroup",
    "TypeLabel",
    "StableParams",
    "ratio_group",
    "krieger_type",
    "plain_type",
    "stable_params",
    "stable_type_set",
    "sd_generators",
]

_TRIAL_LIMIT = 10**6
# III_(r^(1/k0)) instances listed for k0 = 1.. when every k0 is achievable
_STABLE_INSTANCES = 10


def _factorize(n: int) -> dict:
    if n <= 0:
        raise SpecError("can only factor positive integers")
    out: dict = {}
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if n > _TRIAL_LIMIT * _TRIAL_LIMIT:
            raise SpecError(f"factor {n} too large for trial division")
        out[n] = out.get(n, 0) + 1
    return out


def _exponent_vector(q: Fraction, primes: list) -> list:
    num = _factorize(q.numerator)
    den = _factorize(q.denominator)
    return [num.get(p, 0) - den.get(p, 0) for p in primes]


def _collect_primes(values) -> list:
    primes = set()
    for q in values:
        primes |= set(_factorize(q.numerator))
        primes |= set(_factorize(q.denominator))
    return sorted(primes)


def _hnf(rows):
    """Row Hermite normal form of an integer matrix, nonzero rows first."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis = []
    pivot_col = 0
    while pivot_col < ncols and rows:
        sel = [r for r in rows if r[pivot_col] != 0]
        rest = [r for r in rows if r[pivot_col] == 0]
        if not sel:
            pivot_col += 1
            continue
        # reduce the pivot column to a single row via gcd steps
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[pivot_col]))
            lead = sel[0]
            new_sel = [lead]
            for r in sel[1:]:
                f = r[pivot_col] // lead[pivot_col]
                red = [x - f * y for x, y in zip(r, lead)]
                if red[pivot_col] != 0:
                    new_sel.append(red)
                elif any(red):
                    rest.append(red)
            sel = new_sel
        lead = sel[0]
        if lead[pivot_col] < 0:
            lead = [-x for x in lead]
        basis.append(lead)
        rows = rest
        pivot_col += 1
    # reduce entries above pivots for a canonical form
    for i in reversed(range(len(basis))):
        p = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            if basis[k][p] != 0:
                f = basis[k][p] // basis[i][p]
                basis[k] = [x - f * y for x, y in zip(basis[k], basis[i])]
    return basis


def _vec_to_rational(vec, primes) -> Fraction:
    q = Fraction(1)
    for p, e in zip(primes, vec):
        q *= Fraction(p) ** e
    return q


def _canonical(q: Fraction) -> Fraction:
    return q if q < 1 else 1 / q


class RatioGroup(Record):
    _fields = ("kind", "generator", "basis")

    def __init__(self, kind: str, generator: Optional[Fraction] = None, basis: tuple = ()):
        # kind: trivial | cyclic | dense
        self._set(kind=kind, generator=generator, basis=basis)

    def __repr__(self):
        if self.kind == "trivial":
            return "RatioGroup(trivial)"
        if self.kind == "cyclic":
            return f"RatioGroup(cyclic, {format_fraction(self.generator)})"
        return "RatioGroup(dense, {%s})" % ", ".join(
            format_fraction(b) for b in self.basis
        )

    @property
    def generators(self) -> list:
        """Canonical lattice basis, each element in (0, 1)."""
        return [self.generator] if self.kind == "cyclic" else list(self.basis)


def ratio_group(values) -> RatioGroup:
    """Multiplicative subgroup of the positive rationals generated by values
    (trivial for none)."""
    values = [parse_fraction(v) for v in values]
    for v in values:
        if v <= 0:
            raise SpecError(f"values must be positive, got {v}")
    primes = _collect_primes(values)
    rows = [_exponent_vector(v, primes) for v in values]
    basis = _hnf(rows)
    if not basis:
        return RatioGroup("trivial")
    if len(basis) == 1:
        gen = _canonical(_vec_to_rational(basis[0], primes))
        return RatioGroup("cyclic", generator=gen)
    rats = tuple(_canonical(_vec_to_rational(b, primes)) for b in basis)
    return RatioGroup("dense", basis=rats)


class TypeLabel(Record):
    _fields = ("kind", "lam_base", "root")

    def __init__(self, kind: str, lam_base: Optional[Fraction] = None, root: int = 1):
        # kind: II1 | III_lambda | III1, and lambda = lam_base^(1/root)
        self._set(kind=kind, lam_base=lam_base, root=root)

    @property
    def lam(self) -> Optional[float]:
        if self.kind != "III_lambda":
            return None
        return float(self.lam_base) ** (1.0 / self.root)

    def __repr__(self):
        if self.kind == "III_lambda":
            if self.root == 1:
                return f"III_{format_fraction(self.lam_base)}"
            return f"III_({format_fraction(self.lam_base)})^(1/{self.root})"
        return {"II1": "II_1", "III1": "III_1"}[self.kind]


def krieger_type(rg: RatioGroup) -> TypeLabel:
    """Type from the group generated by the ratio set: II_1 when trivial,
    III_lambda when cyclic with generator lambda, III_1 when dense."""
    if rg.kind == "trivial":
        return TypeLabel("II1")
    if rg.kind == "cyclic":
        return TypeLabel("III_lambda", lam_base=rg.generator)
    return TypeLabel("III1")


def plain_type(mu0: BaseMeasure, mu1: BaseMeasure) -> TypeLabel:
    """Trichotomy from the subgroup generated by the T-range."""
    return krieger_type(ratio_group(mu0.t_values(mu1)))


class StableParams(Record):
    _fields = ("L", "a", "b", "k1")

    def __init__(self, L: RatioGroup, a: Optional[LogValue], b: Optional[LogValue],
                 k1: Optional[int]):
        # a and b are None when L is trivial or dense; k1 None encodes infinite order
        self._set(L=L, a=a, b=b, k1=k1)


def stable_params(mu0: BaseMeasure, mu1: BaseMeasure) -> StableParams:
    """L from pairwise T-ratios; when L = r^Z, the unique b in [0, a) with
    log T(x) in b + aZ, and the order k1 of b in R/aZ."""
    ts = mu0.t_values(mu1)
    ratios = [ts[i] / ts[j] for i in range(len(ts)) for j in range(len(ts)) if i != j]
    L = ratio_group(ratios)
    if L.kind == "trivial":
        if any(t != 1 for t in ts):
            raise AssertionError("trivial L with nonconstant T is impossible")
        return StableParams(L, None, None, None)
    if L.kind == "dense":
        return StableParams(L, None, None, None)
    r = L.generator  # canonical, 0 < r < 1
    t0 = ts[0]
    # reduce t0 by powers of r into [1, 1/r)
    red = t0
    while red < 1:
        red /= r
    while red >= 1 / r:
        red *= r
    a = LogValue(1 / r)
    b = LogValue(red)
    # k1 = least k >= 1 with t0^k in r^Z, via exponent-lattice membership
    primes = _collect_primes([t0, r])
    v0 = _exponent_vector(t0, primes)
    vr = _exponent_vector(r, primes)
    k1: Optional[int] = None
    if not any(v0):
        k1 = 1
    else:
        coeff = None
        parallel = True
        for x, y in zip(v0, vr):
            if y == 0:
                if x != 0:
                    parallel = False
                    break
                continue
            c = Fraction(x, y)
            if coeff is None:
                coeff = c
            elif c != coeff:
                parallel = False
                break
        if parallel and coeff is not None:
            k1 = coeff.denominator
    return StableParams(L, a, b, k1)


def stable_type_set(params: StableParams) -> dict:
    """Achievable diagonal-product types; a closed rule plus listed instances."""
    L = params.L
    if L.kind == "trivial":
        return {"rule": "II_1 only", "types": [TypeLabel("II1")]}
    if L.kind == "dense":
        return {"rule": "III_1 only", "types": [TypeLabel("III1")]}
    r = L.generator
    if params.k1 is not None:
        k1 = params.k1
        divisors = [d for d in range(1, k1 + 1) if k1 % d == 0]
        types = [TypeLabel("III_lambda", lam_base=r, root=d) for d in divisors]
        return {"rule": f"III_(r^(1/k0)) for k0 dividing {k1}", "types": types}
    types = [TypeLabel("III1")] + [
        TypeLabel("III_lambda", lam_base=r, root=d)
        for d in range(1, _STABLE_INSTANCES + 1)
    ]
    return {"rule": "III_1 and III_(r^(1/k0)) for every k0 >= 1", "types": types}


def sd_generators(mu0: BaseMeasure, mu1: BaseMeasure) -> list:
    """Lattice basis of the multiplicative group generated by the T-range."""
    return ratio_group(mu0.t_values(mu1)).generators
