import math
import sys
from fractions import Fraction

import numpy as np
import pytest

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
from bernlab.cocycles import BoundedValue, affinity_pairs, norm_sq, value_pairs
from bernlab.groups import format_element, inv, parse_element
from bernlab.marginals import SpecError, substream_rng


def g_of(spec, text):
    return parse_element(spec.group, text)


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

    def test_partial_sums_monotone(self):
        rows = criterion_partial_sums(preset("f2-wsplit"), 16.0, 3)
        lows = [r["lower"] for r in rows]
        assert lows == sorted(lows)
        assert all(r["lower"] <= r["upper"] for r in rows)


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
        spec = preset(name, power=2)
        k0 = float(kappa0(spec.delta))
        for g in grid:
            g = g_of(spec, g) if isinstance(g, str) else g
            # the two products as separate loops over affinity_pairs
            extent = 4096
            while True:
                pairs, tail = affinity_pairs(spec, g, extent)
                if tail <= 1e-4 or extent >= 2**20:
                    break
                extent *= 4
            hell = negsq = 1.0
            for p, q in pairs:
                assert p != q
                hell *= math.sqrt(p * q) + math.sqrt((1.0 - p) * (1.0 - q))
            for p, q in pairs:
                negsq *= p**3 / q**2 + (1.0 - p) ** 3 / (1.0 - q) ** 2
            hell, negsq = hell**2, negsq**2
            lo, hi = hell * math.exp(-0.6 * tail), negsq * math.exp(k0 * tail)
            hv, pv = integral_products(spec, g, tol=1e-4)
            # bit for bit: dataclass equality compares the floats exactly
            assert hv == BoundedValue.from_bracket(max(lo - 1e-12 * hell, 0.0),
                                                   hell + 1e-12 * hell)
            assert pv == BoundedValue.from_bracket(max(negsq - 1e-12 * hi, 0.0),
                                                   hi + 1e-12 * hi)
            assert hellinger_product(spec, g, 1e-4) == hv
            assert negsq_product(spec, g, 1e-4) == pv

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
            return affinity_pairs(spec, g, extent)

        monkeypatch.setattr(criteria, "affinity_pairs", counting)
        integral_products(spec, g, tol=1e-4)
        assert seen == [extent]

    @pytest.mark.parametrize("name,power,words,tol", [
        ("f2-wsplit", 10000, ["a", "a^-1", "b", "b^-1"], 1e-6),
        ("f2-dissipative", 1, ["a"], 1e-4),
    ])
    def test_overflowed_negsq_bracket(self, name, power, words, tol):
        # every factor is >= 1, so the product is at least the float maximum
        spec = preset(name, power=power)
        for text in words:
            hv, pv = integral_products(spec, g_of(spec, text), tol)
            assert not any(map(math.isnan, (hv.lower, hv.upper, pv.lower, pv.upper)))
            assert pv.lower == sys.float_info.max * (1 - 1e-12)
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

    @pytest.mark.parametrize("name,text,window", [
        ("f2-dissipative", "a b^-2", 256), ("f2-wsplit", "a b^-1 a", 4)])
    @pytest.mark.parametrize("power", [1, 2])
    def test_matvec_matches_where_loop(self, name, text, window, power):
        spec = preset(name, power=power)
        g = g_of(spec, text)
        samples, seed = 3000, 5
        got = mc_omega(spec, g, radius=window, samples=samples, seed=seed)
        # reference: pick log r0 or log r1 per coordinate and sum each row,
        # from the same draws; both windows fit in one block of rows
        pq = np.array([(float(p), float(q)) for _, p, q in value_pairs(spec, inv(g), window)])
        p0, q = pq[:, 0], pq[:, 1]
        assert samples <= 2 * 10**6 // len(p0)
        log_r0, log_r1 = np.log(q / p0), np.log((1 - q) / (1 - p0))
        rng = substream_rng(seed, f"{format_element(g)}|{window}")
        logw = np.zeros(samples)
        for _ in range(power):
            u = rng.random((samples, len(p0)))
            logw += np.where(u < p0, log_r0, log_r1).sum(axis=1)
        w = np.exp(logw)
        for key, arr in (("omega", w), ("sqrt_omega", np.sqrt(w)), ("negsq_omega", w**-2)):
            mean = arr.sum() / samples
            se = math.sqrt(max((arr * arr).sum() / samples - mean**2, 0.0) / samples)
            assert got[f"mean_{key}"] == pytest.approx(mean, rel=1e-12)
            assert got[f"se_{key}"] == pytest.approx(se, rel=1e-12)

    def test_window_too_small(self):
        spec = preset("f2-wsplit")
        with pytest.raises(SpecError):
            mc_omega(spec, g_of(spec, "a b a"), radius=1, samples=1000, seed=0)
        with pytest.raises(SpecError):
            mc_omega(spec, g_of(spec, "a"), radius=2, samples=10, seed=0)
