import math
import sys
import threading
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernlab import criteria
from bernlab.cli import preset
from bernlab.criteria import (
    CriterionVerdict,
    auto_kappa,
    classify_conservativity,
    criterion_partial_sums,
    hellinger_product,
    integral_products,
    kappa0,
    kesten_norm,
    mc_omega,
    negsq_product,
    nonamenability_check,
    verify_certificate,
    witness_partial_sum,
)
from bernlab.cocycles import BoundedValue, _window, affinity_pairs, norm_sq, value_pairs
from bernlab.groups import FreeGroup, format_element, inv, parse_element, sphere
from bernlab.marginals import (
    ActionSpec,
    BaseMeasure,
    FreeProductW,
    SpecError,
    WSplit,
    measures_from_lambda,
    substream_rng,
)


def g_of(spec, text):
    return parse_element(spec.group, text)


def _decimal_products(pairs, m):
    """The m-th powers of the window products of sqrt(pq) + sqrt((1-p)(1-q))
    and p^3/q^2 + (1-p)^3/(1-q)^2 over the float pairs, in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        hell = negsq = Decimal(1)
        for p, q in pairs:
            p, q = Decimal(p), Decimal(q)
            hell *= (p * q).sqrt() + ((1 - p) * (1 - q)).sqrt()
            negsq *= p**3 / q**2 + (1 - p) ** 3 / (1 - q) ** 2
        return +(hell**m), +(negsq**m)


class TestThreshold:
    def test_kappa0_value(self):
        assert kappa0(Fraction(1, 3)) == Fraction(63, 4)
        assert float(kappa0(Fraction(1, 3))) == 15.75
        assert auto_kappa(Fraction(1, 3)) == 16

    def test_kappa0_half(self):
        assert kappa0(Fraction(1, 2)) == 12

    def test_bad_delta(self):
        with pytest.raises(SpecError):
            kappa0(Fraction(2, 3))

    def test_kappa0_cached_per_delta(self):
        # integral_products asks for it on every call
        first = kappa0(Fraction(2, 7))
        assert kappa0(Fraction(2, 7)) is first


class TestVerdicts:
    def test_wsplit_m1_not_dissipative(self):
        spec = preset("f2-wsplit")
        v = classify_conservativity(spec)
        assert v.verdict != "Dissipative"
        assert verify_certificate(spec, v)

    def test_wsplit_m220_dissipative(self):
        spec = preset("f2-wsplit", power=220)
        v = classify_conservativity(spec)
        assert v.verdict == "Dissipative"
        assert v.evidence["rho"] == pytest.approx(3 * math.exp(-1.1))
        assert verify_certificate(spec, v)

    def test_zseq_m1_conservative(self):
        spec = preset("explicit-z-sqrt6")
        v = classify_conservativity(spec)
        assert v.verdict == "Conservative"
        assert v.evidence["exponent"] == pytest.approx(8 / 9)
        assert verify_certificate(spec, v)

    def test_zseq_m73_dissipative(self):
        spec = preset("explicit-z-sqrt6", power=73)
        v = classify_conservativity(spec)
        assert v.verdict == "Dissipative"
        assert v.evidence["exponent"] == pytest.approx(73 / 72)
        assert verify_certificate(spec, v)

    def test_special_d36_dissipative(self):
        v = classify_conservativity(preset("f2-dissipative(36)"))
        assert v.verdict == "Dissipative"
        assert v.evidence["rho"] < 1

    def test_explicit_z_conservative(self):
        v = classify_conservativity(preset("explicit-z"))
        assert v.verdict == "Conservative"

    def test_folner_conservative(self):
        v = classify_conservativity(preset("folner-z"))
        assert v.verdict == "Conservative"
        assert v.evidence["exponent"] <= 1.0

    def test_pmp_conservative(self):
        from bernlab.groups import FreeGroup
        from bernlab.marginals import ActionSpec, WSplit

        spec = ActionSpec(FreeGroup(2),
                          WSplit(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
                          delta=Fraction(1, 3))
        v = classify_conservativity(spec)
        assert v.verdict == "Conservative"
        assert v.evidence["witness"] == "identity-cocycle"

    @pytest.mark.parametrize("p_a, p_b, gen", [("3/5", "1/2", "b"), ("1/2", "2/5", "a")])
    @pytest.mark.parametrize("kappa", [None, 1, 1e300])
    def test_zero_rate_generator_conservative(self, p_a, p_b, gen, kappa):
        # alpha = 0 or beta = 0: every power of that generator has norm 0
        spec = ActionSpec(FreeGroup(2), WSplit(Fraction(p_a), Fraction(p_b),
                                               Fraction(1, 2)), delta=Fraction(1, 3))
        v = classify_conservativity(spec, kappa)
        assert v.verdict == "Conservative"
        assert v.evidence["witness"] == "zero-rate cyclic subgroup"
        assert v.evidence["generator"] == gen
        assert norm_sq(spec, g_of(spec, f"{gen}^5")).exact == 0
        assert verify_certificate(spec, v)

    @pytest.mark.parametrize("rank, distinguished, gen", [(2, 1, "b"), (3, 2, "a")])
    @pytest.mark.parametrize("kappa", [None, 1e300])
    def test_free_product_w_zero_rate_generator(self, rank, distinguished, gen, kappa):
        # psi vanishes off the distinguished generator, so every power of
        # another generator has norm 0; the rank-2 case was Inconclusive,
        # with partial sums reaching 89 at radius 6
        mu0 = BaseMeasure((Fraction(2, 5), Fraction(3, 5)))
        mu1 = BaseMeasure((Fraction(3, 5), Fraction(2, 5)))
        spec = ActionSpec(FreeGroup(rank), FreeProductW(mu0, mu1, distinguished),
                          delta=Fraction(1, 5))
        v = classify_conservativity(spec, kappa)
        assert v.verdict == "Conservative"
        assert v.evidence["witness"] == "zero-rate cyclic subgroup"
        assert v.evidence["generator"] == gen
        assert norm_sq(spec, g_of(spec, f"{gen}^-7 {gen}^2")).exact == 0
        assert verify_certificate(spec, v)

    def test_free_product_w_rank_1_has_no_zero_rate_generator(self):
        spec = ActionSpec(FreeGroup(1), FreeProductW(*measures_from_lambda(Fraction(2, 5))),
                          delta=Fraction(1, 5))
        assert classify_conservativity(spec).verdict == "Inconclusive"


class TestCertificateCheck:
    def test_forged_evidence_rejected(self):
        spec = preset("explicit-z-sqrt6")
        v = classify_conservativity(spec)
        forged = CriterionVerdict(v.verdict, v.kappa,
                                  {"exponent": 5, "minorant": "log k"})
        assert verify_certificate(spec, v)
        assert not verify_certificate(spec, forged)

    def test_changed_number_rejected(self):
        spec = preset("f2-wsplit", power=220)
        v = classify_conservativity(spec)
        forged = CriterionVerdict(v.verdict, v.kappa,
                                  {**v.evidence, "rho": v.evidence["rho"] / 2})
        assert not verify_certificate(spec, forged)

    def test_other_spec_rejected(self):
        v = classify_conservativity(preset("f2-wsplit", power=220))
        assert verify_certificate(preset("f2-wsplit", power=220), v)
        assert not verify_certificate(preset("f2-wsplit", power=219), v)
        assert not verify_certificate(preset("f2-wsplit-512", power=220), v)
        assert not verify_certificate(preset("f2-dissipative"), v)

    def test_uncertified_verdict_rejected(self):
        spec = preset("explicit-z-sqrt6")
        v = classify_conservativity(spec)
        assert not verify_certificate(spec, CriterionVerdict("Dissipative", 0.5,
                                                             v.evidence))
        assert not verify_certificate(spec, CriterionVerdict("Inconclusive",
                                                             v.kappa, {}))
        assert not verify_certificate(spec, CriterionVerdict("Conservative"))


class TestWitness:
    def test_q_exceeds_one(self):
        fam = preset("f2-wsplit").family
        total = witness_partial_sum(fam, 16.0, 1, levels=3, n_terms=60)
        assert total > 1e3

    def test_q_past_float_range_is_certified(self):
        # beta = 10^-170: kappa m beta^2 underflows a float, but log q is
        # taken from the Fraction beta; q = exp(log q) overflows and is None
        spec = ActionSpec(FreeGroup(2), WSplit(Fraction(3, 5),
                                               Fraction(1, 2) - Fraction(1, 10**170),
                                               Fraction(1, 2)), delta=Fraction(1, 3))
        v = classify_conservativity(spec)
        assert v.verdict == "Conservative" and v.evidence["q"] is None
        log_q, _ = spec.family.witness_log_q(v.kappa, 1)
        assert 709 < log_q < math.inf
        assert verify_certificate(spec, v)

    def test_partial_sums_monotone(self):
        rows = criterion_partial_sums(preset("f2-wsplit"), 16.0, 3)
        lows = [r["lower"] for r in rows]
        assert lows == sorted(lows)
        assert all(r["lower"] <= r["upper"] for r in rows)


def fpw(rank, distinguished=1):
    mu0, mu1 = measures_from_lambda(Fraction(2, 5))
    return ActionSpec(FreeGroup(rank), FreeProductW(mu0, mu1, distinguished),
                      delta=Fraction(1, 5))


PARTIAL_SUM_SPECS = [
    *[(name, lambda name=name: preset(name))
      for name in ("f2-wsplit", "f2-wsplit-512", "f2-dissipative", "f2-dissipative(12)",
                   "explicit-z", "explicit-z-sqrt6", "folner-z")],
    ("f2-wsplit-power-3", lambda: preset("f2-wsplit", power=3)),
    ("fpw-F2", lambda: fpw(2)),
    ("fpw-F3-b", lambda: fpw(3, distinguished=2)),
]


class TestPartialSums:
    @staticmethod
    def sphere_sums(spec, kappa, radius):
        """The partial sums word by word over `groups.sphere`."""
        rows, lo, hi = [], 0.0, 0.0
        for n in range(radius + 1):
            for g in sphere(spec.group, n):
                nv = norm_sq(spec, g, tol=1e-4)
                lo += math.exp(-kappa * nv.upper)
                hi += math.exp(-kappa * max(nv.lower, 0.0))
            rows.append((lo, hi))
        return rows

    @pytest.mark.parametrize("make", [m for _, m in PARTIAL_SUM_SPECS],
                             ids=[n for n, _ in PARTIAL_SUM_SPECS])
    def test_recursion_matches_sphere_sum(self, make):
        spec = make()
        radius = 5 if isinstance(spec.group, FreeGroup) else 4
        # kappa puts the costliest generator's term at 1/e, so that the sums
        # are neither the ball's size nor the identity's 1
        kappa = 1.0 / max(norm_sq(spec, g, tol=1e-4).value for g in sphere(spec.group, 1))
        want = self.sphere_sums(spec, kappa, radius)
        got = criterion_partial_sums(spec, kappa, radius)
        assert [r["radius"] for r in got] == list(range(radius + 1))
        for (lo, hi), row in zip(want, got):
            assert row["lower"] == pytest.approx(lo, rel=1e-12, abs=0)
            assert row["upper"] == pytest.approx(hi, rel=1e-12, abs=0)
        size = sum(1 for n in range(radius + 1) for _ in sphere(spec.group, n))
        assert 1.5 < got[-1]["lower"] <= got[-1]["upper"] < size - 1

    @pytest.mark.parametrize("make, radius", [
        (lambda: preset("f2-dissipative(12)"), 6),
        (lambda: preset("f2-wsplit"), 6),
        (lambda: fpw(3), 4),
        (lambda: preset("folner-z"), 60),
    ], ids=["f2-dissipative(12)", "f2-wsplit", "fpw-F3", "folner-z"])
    def test_norm_calls_bounded(self, monkeypatch, make, radius):
        spec = make()
        calls = []

        def counting(spec, g, tol=1e-6):
            calls.append(g)
            return norm_sq(spec, g, tol)

        monkeypatch.setattr(criteria, "norm_sq", counting)
        criterion_partial_sums(spec, 1.0, radius)
        r = spec.group.rank if isinstance(spec.group, FreeGroup) else 1
        assert len(calls) <= 2 * r * radius + r * (r - 1) * radius**2
        assert all(len(g.syls) <= 2 for g in calls if not isinstance(g, int))

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0, -1.0])
    def test_kappa_must_be_positive_and_finite(self, kappa):
        with pytest.raises(SpecError):
            criterion_partial_sums(preset("f2-wsplit"), kappa, 2)

    def test_negative_cross_term_at_huge_kappa(self):
        # alpha beta < 0: a descending pair's cross term is negative, but each
        # block's norm is not, so no factor exceeds 1
        spec = ActionSpec(FreeGroup(2), WSplit(Fraction(9, 20), Fraction(2, 5),
                                               Fraction(1, 2)), delta=Fraction(1, 3))
        rows = criterion_partial_sums(spec, 1e300, 6)
        assert all(r["lower"] == r["upper"] == 1.0 for r in rows)


class TestIntegralProducts:
    def test_hellinger_generator(self):
        spec = preset("f2-wsplit")
        hv = hellinger_product(spec, g_of(spec, "a"))
        exact = math.sqrt(0.3) + math.sqrt(0.2)
        assert hv.value == pytest.approx(exact, abs=1e-12)
        assert hv.err < 1e-9

    def test_identity_element(self):
        spec = preset("f2-wsplit")
        assert hellinger_product(spec, g_of(spec, "e")).exact == 1
        assert negsq_product(spec, g_of(spec, "e")).exact == 1

    def test_sandwich_wsplit(self):
        spec = preset("f2-wsplit")
        k0 = float(kappa0(spec.delta))
        for text in ("a", "b^-1", "a b^-1", "a^2 b"):
            g = g_of(spec, text)
            nv, hv, pv = norm_sq(spec, g), hellinger_product(spec, g), \
                negsq_product(spec, g)
            assert hv.upper >= math.exp(-0.6 * nv.upper) * (1 - 1e-12)
            assert hv.lower <= math.exp(-0.5 * nv.lower) * (1 + 1e-12)
            assert pv.lower <= math.exp(k0 * nv.upper) * (1 + 1e-12)

    @pytest.mark.parametrize("name,grid", [
        ("f2-wsplit", ["a", "b^-1", "a b^-1", "a^2 b", "b a^-1 b"]),
        ("explicit-z-sqrt6", [1, -2, 5]),
        ("folner-z", [1, -3, 7]),
    ])
    def test_one_pass_matches_reference_loop(self, name, grid):
        # a 50-digit loop over the pairs of affinity_pairs, at the extent the
        # tail asks for: each bracket holds the window product times the
        # whole tail bracket, and is at most 1e-13 wider than that
        spec = preset(name, power=2)
        for g in grid:
            g = g_of(spec, g) if isinstance(g, str) else g
            extent = 4096
            while True:
                pairs, tail = affinity_pairs(spec, g, extent)
                if tail <= 1e-4 or extent >= 2**20:
                    break
                extent *= 4
            hell, negsq = _decimal_products(pairs, 2)
            hv, pv = integral_products(spec, g, tol=1e-4)
            hell_lo = hell * (Decimal(-criteria.HELLINGER_TAIL) * Decimal(tail)).exp()
            negsq_hi = negsq * (Decimal(float(kappa0(spec.delta))) * Decimal(tail)).exp()
            for bv, lo, hi in ((hv, hell_lo, hell), (pv, negsq, negsq_hi)):
                assert Decimal(bv.lower) <= lo and hi <= Decimal(bv.upper)
                assert Decimal(bv.upper - bv.lower) <= (hi - lo) + Decimal(1e-13) * hi
            assert hellinger_product(spec, g, 1e-4) == hv
            assert negsq_product(spec, g, 1e-4) == pv

    @given(delta=st.sampled_from([1e-3, 1 / 13, 1 / 3]),
           units=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=64),
           m=st.integers(1, 8), tail=st.sampled_from([0.0, 1e-9, 0.25]))
    @example(delta=1e-3, units=[(0.0, 1.0)] * 64, m=8, tail=0.0)  # omega^-2 overflows
    @settings(max_examples=150, deadline=None)
    def test_brackets_hold_decimal_products(self, delta, units, m, tail):
        # random float windows in [delta, 1 - delta], read in place of the
        # family's window by a stand-in spec
        p = np.array([delta + (1 - 2 * delta) * x for x, _ in units])
        q = np.array([delta + (1 - 2 * delta) * y for _, y in units])
        p, q = p[p != q], q[p != q]
        spec = SimpleNamespace(multiplicity=m, delta=Fraction(1, 3),
                               family=SimpleNamespace(tail=lambda g, extent: tail / m))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "_window", lambda spec, g, extent: (p.copy(), q.copy()))
            hv, pv = integral_products(spec, 1, tol=1.0)
        hell, negsq = _decimal_products(zip(p.tolist(), q.tolist()), m)
        shrink = (Decimal(-criteria.HELLINGER_TAIL) * Decimal(tail)).exp()
        grow = (Decimal(float(kappa0(Fraction(1, 3)))) * Decimal(tail)).exp()
        assert Decimal(hv.lower) <= hell * shrink and hell <= Decimal(hv.upper)
        assert Decimal(pv.lower) <= negsq
        if negsq * grow > Decimal(sys.float_info.max):
            assert pv.upper == math.inf
        else:
            assert negsq * grow <= Decimal(pv.upper)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an 80-bit or wider long double")
    def test_long_window_matches_longdouble_product(self):
        # f2-dissipative's a window has 2^20 factors; the long double product
        # errs by at most about n eps relative
        spec = preset("f2-dissipative")
        g = g_of(spec, "a")
        pairs, tail = affinity_pairs(spec, g, 2**20)
        p, q = (np.array(v, dtype=np.longdouble) for v in zip(*pairs))
        n = len(p)
        assert n > 10**6
        hell = np.prod(np.sqrt(p * q) + np.sqrt((1 - p) * (1 - q)))
        log_negsq = np.sum(np.log(p**3 / q**2 + (1 - p) ** 3 / (1 - q) ** 2))
        slack = 4 * n * float(np.finfo(np.longdouble).eps)
        shrink = math.exp(-criteria.HELLINGER_TAIL * tail)
        hv, pv = integral_products(spec, g)
        assert hv.upper >= float(hell) * (1 - slack)
        assert hv.lower <= float(hell) * shrink * (1 + slack)
        assert hv.upper - hv.lower <= float(hell) * (1 - shrink) * 1.001
        # the omega^-2 product is past the float range
        assert float(log_negsq) > math.log(sys.float_info.max)
        assert (pv.lower, pv.upper) == (sys.float_info.max, math.inf)

    def test_np_sum_is_the_pairwise_sum_of_the_proof(self):
        # the rounding bound counts numpy's pairwise summation: blocks of at
        # most 128 terms in 8 accumulators, longer arrays halved at a
        # multiple of 8
        def pairwise(a):
            n = len(a)
            if n < 8:
                return sum(a, 0.0)
            if n <= 128:
                r = list(a[:8])
                for i in range(8, n - n % 8, 8):
                    r = [x + y for x, y in zip(r, a[i:i + 8])]
                res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
                return sum(a[n - n % 8:], res)
            half = n // 2 - n // 2 % 8
            return pairwise(a[:half]) + pairwise(a[half:])

        rng = np.random.default_rng(5)
        for n in (1, 7, 8, 127, 128, 129, 1000, 8191, 8193, 30001):
            a = -rng.random(n) * 10.0 ** rng.integers(-6, 6, n)
            assert float(np.sum(a)) == pairwise(a.tolist())

    def test_log1p_and_exp_within_two_ulp(self):
        # the rounding bound takes numpy's log1p and exp to err by <= 2 ulp;
        # 1 + x is exact in 260 digits for the x drawn here
        rng = np.random.default_rng(6)
        xs = np.concatenate([-rng.random(1000) * 0.99, rng.random(1000) * 1e3,
                             10.0 ** -rng.integers(1, 200, 300)])
        ys = np.concatenate([rng.random(2000) * 1400 - 700, -rng.random(500)])
        with localcontext() as ctx:
            ctx.prec = 260
            for got, x in zip(np.log1p(xs).tolist(), xs.tolist()):
                err = abs(Decimal(got) - (Decimal(x) + 1).ln())
                assert err <= 2 * Decimal(math.ulp(got))
            for got, y in zip(np.exp(ys).tolist(), ys.tolist()):
                assert abs(Decimal(got) - Decimal(y).exp()) <= 2 * Decimal(math.ulp(got))

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # tol = 0 would grow the window to 2^20 without a word
        spec = preset("f2-wsplit")
        with pytest.raises(SpecError):
            integral_products(spec, g_of(spec, "a"), tol=tol)

    @pytest.mark.parametrize("name,g,extent", [
        ("f2-dissipative", "a", 2**20),
        ("explicit-z-sqrt6", 5, 4096),
        ("f2-wsplit", "a b^-1", 4096),
    ])
    def test_window_built_once(self, monkeypatch, name, g, extent):
        # the extent comes from the family tail; the window is built only there
        spec = preset(name)
        g = g_of(spec, g) if isinstance(g, str) else g
        seen = []

        def counting(spec, g, extent):
            seen.append(extent)
            return _window(spec, g, extent)

        monkeypatch.setattr(criteria, "_window", counting)
        integral_products(spec, g, tol=1e-4)
        assert seen == [extent]

    @pytest.mark.parametrize("name,power,words,tol", [
        ("f2-wsplit", 10000, ["a", "a^-1", "b", "b^-1"], 1e-6),
        ("f2-dissipative", 1, ["a"], 1e-4),
    ])
    def test_overflowed_negsq_bracket(self, name, power, words, tol):
        # every factor is >= 1, so a product past the float range is at least
        # the largest float: the bracket is [that float, inf], and no NaN
        spec = preset(name, power=power)
        for text in words:
            hv, pv = integral_products(spec, g_of(spec, text), tol)
            assert not any(map(math.isnan, (hv.lower, hv.upper, pv.lower, pv.upper)))
            assert pv.lower == sys.float_info.max
            assert pv.upper == math.inf

    def test_kesten(self):
        assert kesten_norm(2) == pytest.approx(2 * math.sqrt(3))
        with pytest.raises(SpecError):
            kesten_norm(1)

    def test_nonamenability(self):
        rep = nonamenability_check(preset("f2-wsplit"))
        assert rep["nonamenable"]
        assert rep["sum_lower"] > rep["kesten_norm"]
        assert len(rep["per_generator"]) == 4


class TestMonteCarlo:
    def test_deterministic(self):
        spec = preset("f2-wsplit")
        g = g_of(spec, "a b")
        r1 = mc_omega(spec, g, radius=4, samples=2000, seed=11)
        r2 = mc_omega(spec, g, radius=4, samples=2000, seed=11)
        assert r1 == r2
        r3 = mc_omega(spec, g, radius=4, samples=2000, seed=12)
        assert r3 != r1

    def test_mean_omega_near_one(self):
        spec = preset("f2-wsplit")
        r = mc_omega(spec, g_of(spec, "a"), radius=2, samples=20000, seed=3)
        assert abs(r["mean_omega"] - 1.0) <= 4 * r["se_omega"]

    @staticmethod
    def layout(spec, g, window):
        """The window split as the sampler draws it: the coordinates whose
        float pair (p, q) occurs fewer than `_MC_RUN_MIN` times, in window
        order, as (p, log r0, log r1) arrays, and the other pairs as runs,
        in increasing order of (p, q), as (p, n, log r0, log r1) tuples."""
        p0, q = criteria._mc_coords(spec, g, window)
        log_r0, log_r1 = np.log(q / p0), np.log((1 - q) / (1 - p0))
        where = {}
        for i, pair in enumerate(zip(p0.tolist(), q.tolist())):
            where.setdefault(pair, []).append(i)
        long = {pair: idx for pair, idx in where.items()
                if len(idx) >= criteria._MC_RUN_MIN}
        single = [i for i in range(len(p0)) if (p0[i], q[i]) not in long]
        runs = [(p, len(idx), log_r0[idx[0]], log_r1[idx[0]])
                for (p, _), idx in sorted(long.items())]
        return (p0[single], log_r0[single], log_r1[single]), runs

    @staticmethod
    def halves(g, window, samples, seed):
        """The two half streams and sizes of a sampler call."""
        payload = f"{format_element(g)}|{window}"
        return [(substream_rng(seed, f"{payload}|{i}"), n)
                for i, n in enumerate((samples - samples // 2, samples // 2))]

    @pytest.mark.parametrize("name,text,window", [
        ("f2-dissipative", "a b^-2", 256), ("f2-wsplit", "a b^-1 a", 4)])
    @pytest.mark.parametrize("power", [1, 2])
    def test_matvec_matches_where_loop(self, name, text, window, power):
        spec = preset(name, power=power)
        g = g_of(spec, text)
        samples, seed = 3000, 5
        got = mc_omega(spec, g, radius=window, samples=samples, seed=seed)
        # reference: pick log r0 or log r1 per single coordinate and count the
        # entries of each run's CDF at or below its uniform; each half fits in
        # one chunk, so it reads (n x m·k) and then (n x runs) uniforms
        (p0, log_r0, log_r1), runs = self.layout(spec, g, window)
        k, m, n_runs = len(p0), spec.multiplicity, len(runs)
        assert (k, n_runs) == ((1, 2) if name == "f2-dissipative" else (2, 0))
        rows = criteria._MC_CHUNK_DOUBLES // (max(m * k, n_runs) + 8)
        assert samples - samples // 2 <= rows
        logw = []
        for rng, n in self.halves(g, window, samples, seed):
            u = rng.random((n, m * k))
            half = np.where(u < np.tile(p0, m), np.tile(log_r0, m),
                            np.tile(log_r1, m)).sum(axis=1)
            u = rng.random((n, n_runs))
            for j, (p, n_j, r0, r1) in enumerate(runs):
                count = (u[:, j, None] >= criteria._binomial_cdf(m * n_j, p)).sum(axis=1)
                half += count * r0 + (m * n_j - count) * r1
            logw.append(half)
        w = np.exp(np.concatenate(logw))
        for key, arr in (("omega", w), ("sqrt_omega", np.sqrt(w)), ("negsq_omega", w**-2)):
            mean = arr.sum() / samples
            se = math.sqrt(max((arr * arr).sum() / samples - mean**2, 0.0) / samples)
            assert got[f"mean_{key}"] == pytest.approx(mean, rel=1e-12)
            assert got[f"se_{key}"] == pytest.approx(se, rel=1e-12)

    @classmethod
    def serial_chunks(cls, spec, g, window, samples, seed):
        """The sampler as one sequential loop: each half reads its own
        stream in chunks of rows, one (rows x m·k) array of uniforms for the
        single coordinates and then one (rows x runs) array, and the sums of
        half 0 come first."""
        (p0, log_r0, log_r1), runs = cls.layout(spec, g, window)
        k, m, n_runs = len(p0), spec.multiplicity, len(runs)
        p_all, diff_all = np.tile(p0, m), np.tile(log_r0 - log_r1, m)
        base = m * log_r1.sum() + sum(m * n * r1 for _, n, _, r1 in runs)
        rows = criteria._MC_CHUNK_DOUBLES // (max(m * k, n_runs) + 8)
        chunks = []
        total = np.zeros((2, 3))
        for rng, n in cls.halves(g, window, samples, seed):
            sums = np.zeros((2, 3))
            for lo in range(0, n, rows):
                r = min(rows, n - lo)
                chunks.append(r)
                logw = (rng.random((r, m * k)) < p_all).astype(float) @ diff_all + base
                u = rng.random((r, n_runs))
                for j, (p, n_j, r0, r1) in enumerate(runs):
                    cdf = criteria._binomial_cdf(m * n_j, p)
                    logw += (u[:, j, None] >= cdf).sum(axis=1) * (r0 - r1)
                w = np.exp(logw)
                for idx, arr in enumerate((w, np.sqrt(w), w**-2)):
                    sums[0, idx] += arr.sum()
                    sums[1, idx] += (arr * arr).sum()
            total = total + sums
        means = total[0] / samples
        ses = np.sqrt(np.maximum(total[1] / samples - means**2, 0.0) / samples)
        return rows, chunks, {
            f"{stat}_{key}": float(v[i])
            for i, key in enumerate(("omega", "sqrt_omega", "negsq_omega"))
            for stat, v in (("mean", means), ("se", ses))}

    @pytest.mark.parametrize("power", [1, 2])
    def test_threaded_halves_match_serial_loop(self, monkeypatch, power):
        # one single coordinate and runs of 128 and 129
        spec = preset("f2-dissipative", power=power)
        g = g_of(spec, "a b^-2")
        samples, seed = 20001, 4
        for chunk_doubles in (criteria._MC_CHUNK_DOUBLES, 2**10):
            monkeypatch.setattr(criteria, "_MC_CHUNK_DOUBLES", chunk_doubles)
            rows, chunks, want = self.serial_chunks(spec, g, 256, samples, seed)
            # halves of 10001 and 10000 samples, each of several chunks, the
            # last one partial
            assert sum(chunks) == samples and len(chunks) >= 4
            assert (samples - samples // 2) % rows and (samples // 2) % rows
            before = threading.active_count()
            got = mc_omega(spec, g, radius=256, samples=samples, seed=seed)
            assert threading.active_count() == before
            for key, value in want.items():
                assert got[key].hex() == value.hex(), (chunk_doubles, key)

    @pytest.mark.parametrize("name,text,window", [
        ("f2-dissipative", "a b^-2", 256), ("f2-wsplit", "a^3", 4)])
    def test_working_memory_is_bounded(self, name, text, window):
        # each of the two threads holds one chunk of about 2^16 doubles
        # (0.5 MiB), whatever the number of samples; per-sample arrays of 10^6
        # samples would take 8 MB each
        spec = preset(name)
        g = g_of(spec, text)
        # the first call imports the thread pool and fills the window caches
        mc_omega(spec, g, radius=window, samples=10**5, seed=1)
        tracemalloc.start()
        try:
            mc_omega(spec, g, radius=window, samples=10**6, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_window_too_small(self):
        spec = preset("f2-wsplit")
        with pytest.raises(SpecError):
            mc_omega(spec, g_of(spec, "a b a"), radius=1, samples=1000, seed=0)
        with pytest.raises(SpecError):
            mc_omega(spec, g_of(spec, "a"), radius=2, samples=10, seed=0)

    def test_stream_is_pinned(self):
        # the six estimates of one seeded call, recorded: a change of draws
        # (generator, seeding or stream layout) has to change these values
        spec = preset("f2-wsplit")
        got = mc_omega(spec, g_of(spec, "a^3"), radius=4, samples=3000, seed=7)
        want = {
            "mean_omega": "0x1.ff25ed097b426p-1",
            "se_omega": "0x1.a9f0ddb2998cep-8",
            "mean_sqrt_omega": "0x1.f7fe854954886p-1",
            "se_sqrt_omega": "0x1.9a1234380318dp-9",
            "mean_negsq_omega": "0x1.673910df67f6ap+0",
            "se_negsq_omega": "0x1.0dcd50cf69935p-6",
        }
        assert {k: got[k].hex() for k in want} == want

    def test_long_run_stream_is_pinned(self):
        # as above, on a window drawn mostly as binomial counts: one single
        # coordinate and runs of 128 and 129
        spec = preset("f2-dissipative")
        got = mc_omega(spec, g_of(spec, "a b^-2"), radius=256, samples=3000, seed=7)
        want = {
            "mean_omega": "0x1.36d97b1008096p-15",
            "se_omega": "0x1.36a329a299412p-15",
            "mean_sqrt_omega": "0x1.026a3d3e29a77p-13",
            "se_sqrt_omega": "0x1.d20efa9e17b5ep-14",
            "mean_negsq_omega": "0x1.35eee6527b814p+166",
            "se_negsq_omega": "0x1.f9ca9206b133ap+165",
        }
        assert {k: got[k].hex() for k in want} == want

    def test_window_table_stream_is_pinned(self):
        # `simulate --preset f2-dissipative -g "a^2 b^-1" --window 256
        # --samples 100000` at its default seed 0, recorded before the window
        # read H from one table per window: the table changed no coordinate
        spec = preset("f2-dissipative")
        got = mc_omega(spec, g_of(spec, "a^2 b^-1"), radius=256, samples=10**5, seed=0)
        want = {
            "mean_omega": "0x1.9904c8fe98b9ap-14",
            "se_omega": "0x1.7998b0d72d511p-14",
            "mean_sqrt_omega": "0x1.9fa6d225baf4fp-14",
            "se_sqrt_omega": "0x1.05f1d9799769bp-15",
            "mean_negsq_omega": "0x1.5b57d8e1fc0c3p+189",
            "se_negsq_omega": "0x1.5a345193893d2p+189",
        }
        assert {k: got[k].hex() for k in want} == want

    @pytest.mark.parametrize("n", [2, 8, 128, 866])
    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(1 / 3)],
                             ids=["1/4", "1/2", "float(1/3)"])
    def test_binomial_cdf_matches_exact(self, n, p):
        cdf = criteria._binomial_cdf(n, float(p))
        a, d = p.numerator, p.denominator
        total, exact = 0, []
        for j in range(n + 1):
            total += math.comb(n, j) * a**j * (d - a) ** (n - j)
            exact.append(total / d**n)  # int / int rounds correctly
        assert len(cdf) == n + 1 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)
        np.testing.assert_allclose(cdf, exact, rtol=0, atol=1e-12)

    def test_binomial_counts_fit(self):
        # inverse-CDF counts against the exact Bin(128, 1/4) law
        n, p, draws = 128, Fraction(1, 4), 10**5
        u = np.random.default_rng(2024).random(draws)
        counts = np.searchsorted(criteria._binomial_cdf(n, float(p)), u, side="right")
        seen = np.bincount(counts, minlength=n + 1)
        checked = 0
        for j in range(n + 1):
            pmf = float(math.comb(n, j) * p**j * (1 - p) ** (n - j))
            expect = draws * pmf
            if expect >= 50:
                checked += 1
                assert abs(seen[j] - expect) <= 5 * math.sqrt(expect * (1 - pmf)), j
        assert checked >= 20

    @pytest.mark.parametrize("run_min", [criteria._MC_RUN_MIN, 2],
                             ids=["default", "runs>=2"])
    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("name,text,window", [
        ("f2-wsplit", "a^3", 4), ("f2-dissipative(1/4)", "a", 64),
        ("f2-dissipative(1/4)", "a", 256), ("f2-dissipative", "a", 16),
        ("f2-dissipative", "a", 32)])
    def test_mean_matches_exact_product(self, monkeypatch, name, text, window,
                                        power, run_min):
        # E[omega^s] over the window is the exact product over its distinct
        # pairs of (p r0^s + (1-p) r1^s)^(m n); where the sample is large
        # enough for a 10% relative SE (samples >= 100 relvar), the estimate
        # lies within 5 of its reported SEs of it. f2-dissipative's window 32
        # is two runs (16 and 17), drawn as binomial counts by default; the
        # other windows have runs of at most 9 coordinates, drawn one by one
        # by default and as a mix of single coordinates and runs at run_min 2.
        monkeypatch.setattr(criteria, "_MC_RUN_MIN", run_min)
        spec = preset(name, power=power)
        g = g_of(spec, text)
        samples, m = 10**5, spec.multiplicity
        got = mc_omega(spec, g, radius=window, samples=samples, seed=3)
        runs = {}
        for _, p, q in value_pairs(spec, inv(g), window):
            pair = (float(p), float(q))
            runs[pair] = runs.get(pair, 0) + 1
        resolved = 0
        for key, s in (("omega", 1), ("sqrt_omega", 0.5), ("negsq_omega", -2)):
            log_mean = log_second = 0.0
            for (p, q), n in runs.items():
                r0, r1 = q / p, (1 - q) / (1 - p)
                log_mean += m * n * math.log(p * r0**s + (1 - p) * r1**s)
                log_second += m * n * math.log(p * r0**(2 * s) + (1 - p) * r1**(2 * s))
            exact, relvar = math.exp(log_mean), math.expm1(log_second - 2 * log_mean)
            if samples >= 100 * relvar:
                resolved += 1
                assert abs(got[f"mean_{key}"] - exact) <= 5 * got[f"se_{key}"], key
        assert resolved >= 1

    def test_seeds_are_not_reduced_mod_2_64(self):
        spec = preset("f2-wsplit")
        draws = [substream_rng(seed, "a|2").random(4) for seed in (0, 2**64)]
        assert not np.array_equal(*draws)
        g = g_of(spec, "a b")
        assert (mc_omega(spec, g, radius=4, samples=1000, seed=0)
                != mc_omega(spec, g, radius=4, samples=1000, seed=2**64))

    @pytest.mark.parametrize("spec,words,window", [
        (preset("f2-wsplit"), ("a", "a b^-1 a", "b a^-1", "a^3"), 4),
        (preset("f2-dissipative"), ("a", "a b^-2", "b a^-1", "b^-1 a"), 256),
        (preset("f2-dissipative(12)"), ("a", "b a^-1"), 64),
        (preset("explicit-z"), ("1", "3", "-2"), 200),
        (preset("explicit-z-sqrt6"), ("1", "5"), 100),
        (preset("folner-z"), ("1", "-3"), 300),
        (ActionSpec(FreeGroup(2), FreeProductW(*measures_from_lambda(Fraction(2, 5))),
                    delta=Fraction(1, 5)), ("a", "a b^-1", "b a^2"), 4),
    ], ids=["f2-wsplit", "f2-dissipative", "f2-dissipative(12)", "explicit-z",
            "explicit-z-sqrt6", "folner-z", "fpw"])
    def test_coords_match_exact_value_pairs(self, spec, words, window):
        # the sampled coordinates come from the array window; they must be
        # the exact per-point (F(h), F(g^-1 h)) up to order and rounding
        for text in words:
            g = g_of(spec, text)
            p0, q = criteria._mc_coords(spec, g, window)
            want = np.array([(float(a), float(b)) for _, a, b
                             in value_pairs(spec, inv(g), window)]).reshape(-1, 2).T
            assert len(p0) == want.shape[1] > 0, text
            np.testing.assert_allclose(np.sort(p0), np.sort(want[0]), rtol=1e-15, atol=0)
            np.testing.assert_allclose(np.sort(q), np.sort(want[1]), rtol=1e-15, atol=0)
