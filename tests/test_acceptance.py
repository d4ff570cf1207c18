"""Acceptance suite. Each test prints a single PASS line once its checks
hold; a failed assertion surfaces through pytest as usual."""
import math
from fractions import Fraction

import pytest

from bernlab.bump import BumpCocycle
from bernlab.cli import preset, verify_bounds
from bernlab.cocycles import affinity_pairs, norm_sq, norm_sq_bruteforce, value_pairs
from bernlab.criteria import (
    classify_conservativity,
    hellinger_product,
    mc_omega,
    witness_partial_sum,
)
from bernlab.exact import LogValue
from bernlab.folner import build_folner, enum_z
from bernlab.groups import (
    FreeGroup,
    ball,
    inv,
    mul,
    parse_element,
    sphere,
    word_length,
)
from bernlab.marginals import (
    ActionSpec,
    SpecialCocycle,
    f_value,
    measures_from_ab,
    measures_from_lambda,
)
from bernlab.typeclass import (
    plain_type,
    ratio_group,
    stable_params,
    stable_type_set,
)

F2 = FreeGroup(2)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_01_closed_form_equals_oracle():
    spec = preset("f2-wsplit")
    checked = 0
    for g in ball(F2, 5):
        closed = norm_sq(spec, g).exact
        brute = norm_sq_bruteforce(spec, g, 5).exact
        assert closed == brute, f"mismatch at {g}"
        checked += 1
    assert checked == 485  # 1 + 4 + 12 + 36 + 108 + 324
    _report(1, f"closed form == oracle exactly on all {checked} words "
               "of length <= 5")


def test_02_nonamenability_display():
    spec = preset("f2-wsplit")
    total_lo = total_hi = 0.0
    for text in ("a", "a^-1", "b", "b^-1"):
        hv = hellinger_product(spec, parse_element(F2, text))
        assert hv.err < 1e-9
        total_lo += hv.lower
        total_hi += hv.upper
    bound = 4 * math.exp(-3 / 500)
    kesten = 2 * math.sqrt(3)
    assert abs(bound - 3.976071856215741) < 1e-9
    assert abs(kesten - 3.4641016151377544) < 1e-9
    assert total_lo >= bound - 1e-9
    assert bound > kesten
    _report(2, f"sum of generator affinities {total_lo:.9f} >= "
               f"4 exp(-3/500) = {bound:.9f} > 2 sqrt(3) = {kesten:.9f}")


def test_03_explicit_z_arithmetic():
    spec = preset("explicit-z-sqrt6")
    for k in range(2, 10001):
        nv = norm_sq(spec, k, tol=2e-2)
        lo = math.log(1 + k) / 36
        hi = (1 + math.log(k)) / 18
        assert nv.upper >= lo and nv.lower <= hi, f"bracket miss at k={k}"
    neg = norm_sq(spec, -137, tol=2e-2)
    assert neg.upper >= math.log(138) / 36
    v1 = classify_conservativity(spec)
    assert v1.verdict == "Conservative"
    assert v1.evidence["exponent"] == pytest.approx(8 / 9)
    v73 = classify_conservativity(preset("explicit-z-sqrt6", power=73))
    assert v73.verdict == "Dissipative"
    assert v73.evidence["exponent"] > 1
    _report(3, "norm brackets hold for 2 <= |k| <= 10^4; m=1 Conservative "
               "(exponent 8/9), m=73 Dissipative (exponent 73/72)")


def test_04_f2_dissipativity_thresholds():
    v220 = classify_conservativity(preset("f2-wsplit", power=220))
    assert v220.verdict == "Dissipative"
    assert v220.evidence["rho"] == pytest.approx(3 * math.exp(-1.1))
    v1 = classify_conservativity(preset("f2-wsplit"))
    assert v1.verdict in ("Conservative", "Inconclusive")
    partial = witness_partial_sum(preset("f2-wsplit").family, 16.0, 1,
                                  levels=3, n_terms=60)
    assert partial > 1e3
    _report(4, f"m=220 Dissipative with rho = 3 exp(-1.1) = "
               f"{v220.evidence['rho']:.6f}; m=1 is {v1.verdict}; witness "
               f"partial sum {partial:.1f} > 10^3")


def test_05_sandwich_suite():
    grids = [
        (preset("f2-wsplit"),
         [g for g in ball(F2, 3) if word_length(g)]),           # 52
        (preset("f2-wsplit-512"),
         [g for g in ball(F2, 3) if word_length(g)]),           # 52
        (preset("explicit-z-sqrt6"),
         [k for k in range(-24, 25) if k]),                     # 48
        (preset("folner-z"),
         [k for k in range(-24, 25) if k]),                     # 48
    ]
    total = 0
    for spec, grid in grids:
        assert spec.delta == Fraction(1, 3)
        rep = verify_bounds(spec, grid)
        assert rep["n_failed"] == 0
        total += rep["n_checked"]
    assert total == 200
    _report(5, f"all {total} sandwich checks passed (kappa0 = 15.75)")


def test_06_special_cocycle():
    for D in (Fraction(1, 2), Fraction(1), Fraction(36)):
        bc = BumpCocycle(D)
        for k in range(1, 129):
            lo, _ = bc.gamma_norm_sq_bounds(k)
            assert lo >= float(D) * k ** 1.5, f"D={D}, k={k}"
        fam = SpecialCocycle(D, Fraction(1, 2), Fraction(1, 4))
        spec = ActionSpec(F2, fam, delta=Fraction(1, 4))
        for g in ball(F2, 6):
            L = word_length(g)
            if L:
                assert norm_sq(spec, g).lower >= float(D) / 16 * L * (1 - 1e-9)
    v = classify_conservativity(preset("f2-dissipative(36)"))
    assert v.verdict == "Dissipative"
    _report(6, "gamma norms >= D|k|^(3/2) for k <= 128 and ||c_g||^2 >= "
               "(D/16)|g| for |g| <= 6 at D in {1/2, 1, 36}; D=36 Dissipative")


def test_07_folner_cocycle():
    fc = build_folner(lambda k: math.log(1.0 + k), horizon=200, delta=0.5)
    for k in range(1, 201):
        s = enum_z(k)
        # pointwise oracle over the support zones
        brute = 0.0
        for lo, hi in fc.support_zones(s):
            for m in range(lo, hi):
                d = fc.f(m) - fc.f(m - s)
                brute += d * d
        assert math.sqrt(brute) <= math.log(1 + k) * (1 + 1e-12)
        assert abs(brute - fc.norm_sq_closed(s)) < 1e-12 * (1 + brute)
    rep = fc.conditions_report()
    assert rep["sum_condition"]
    assert rep["symmetric_difference_condition"]
    _report(7, "||c_(g_k)|| <= log(1+k) for k <= 200 by pointwise oracle; "
               "both selection conditions verified")


def test_08_classifier():
    mu0, mu1 = measures_from_lambda(Fraction(1, 2))
    t = plain_type(mu0, mu1)
    assert t.kind == "III_lambda" and t.lam == 0.5

    from bernlab.cli import element_ratio_values

    spec = preset("f2-wsplit")
    vals = element_ratio_values(spec, parse_element(F2, "a"))
    assert set(vals) == {Fraction(6, 5), Fraction(4, 5)}
    assert ratio_group(vals).kind == "dense"

    m0, m1 = measures_from_ab(LogValue(Fraction(2)), LogValue(Fraction(3, 2)))
    sp = stable_params(m0, m1)
    assert sp.a.arg == Fraction(2) and sp.b.arg == Fraction(3, 2)

    st = stable_type_set(stable_params(mu0, mu1))
    assert sorted(x.lam for x in st["types"]) == [0.25, 0.5]

    # 5/12 variant: per-generator ratio differences {3/2, 7/5} are dense
    variant = preset("f2-wsplit-512")
    diffs = []
    for text in ("a", "b"):
        va = element_ratio_values(variant, parse_element(F2, text))
        diffs.append(max(va) / min(va))
    assert set(diffs) == {Fraction(3, 2), Fraction(7, 5)}
    assert ratio_group(diffs).kind == "dense"
    _report(8, "lambda=1/2 -> III_(1/2); {6/5,4/5} dense -> III_1; (a,b) "
               "roundtrip exact; k1=2 -> {III_(1/2), III_(1/4)}; 5/12 "
               "variant dense")


def test_09_monte_carlo_consistency():
    cases = []
    for name, words in (("f2-wsplit", ["a", "b", "a b", "a b^-1", "a^2"]),
                        ("f2-wsplit-512", ["a", "b", "a b^-1", "a^2", "b^-1"])):
        for m in (1, 3):
            for text in words[: 5 if m == 1 else 3]:
                spec = preset(name, power=m)
                cases.append((spec, parse_element(F2, text), 5))
    z = preset("explicit-z-sqrt6")
    for k in (1, 2, 4, 7):
        cases.append((z, k, 120))
    assert len(cases) == 20
    for i, (spec, g, radius) in enumerate(cases):
        r = mc_omega(spec, g, radius=radius, samples=10**5, seed=1000 + i)
        assert abs(r["mean_omega"] - 1.0) <= 4 * r["se_omega"], (i, r)
        # exact Hellinger product over the same truncation window
        pairs, _ = affinity_pairs(spec, g, extent=radius)
        head = 1.0
        for p, q in pairs:
            head *= math.sqrt(p * q) + math.sqrt((1 - p) * (1 - q))
        head **= spec.multiplicity
        assert abs(r["mean_sqrt_omega"] - head) <= 4 * r["se_sqrt_omega"], \
            (i, r, head)
    _report(9, "20 cases at N=10^5: mean omega within 4 SE of 1, mean "
               "sqrt(omega) within 4 SE of the exact Hellinger product")


def test_09b_monte_carlo_special_cocycle():
    # D = 1/4 keeps the Hellinger products of these windows near 0.4-0.7. At
    # the default D = 36 they fall to 1e-4..1e-9, where the sample mean of
    # sqrt(omega) rests on rare draws and its standard error understates
    # the error.
    spec = preset("f2-dissipative(1/4)")
    cases = [(parse_element(F2, text), window)
             for text in ("a", "b^-1 a", "a^2 b^-1") for window in (64, 256)]
    for i, (g, window) in enumerate(cases):
        r = mc_omega(spec, g, radius=window, samples=10**5, seed=2000 + i)
        assert abs(r["mean_omega"] - 1.0) <= 4 * r["se_omega"], (i, r)
        # mc_omega samples the array window; it must have as many coordinates
        # as the exact per-point value_pairs
        assert r["n_coordinates"] == sum(1 for _ in value_pairs(spec, inv(g), window))
        pairs, _ = affinity_pairs(spec, g, extent=window)
        head = 1.0
        for p, q in pairs:
            head *= math.sqrt(p * q) + math.sqrt((1 - p) * (1 - q))
        assert abs(r["mean_sqrt_omega"] - head) <= 4 * r["se_sqrt_omega"], \
            (i, r, head)
    _report("9b", "6 SpecialCocycle cases at N=10^5: mean omega within 4 SE "
                  "of 1, mean sqrt(omega) within 4 SE of the exact Hellinger "
                  "product over affinity_pairs")


def test_10_property_suites():
    spec = preset("f2-wsplit")
    fvals = {}

    def F(x):
        if x not in fvals:
            fvals[x] = f_value(spec, x)
        return fvals[x]

    # cocycle identity on the stated grids, exact rationals
    small = list(ball(F2, 3))
    grid = list(ball(F2, 5))
    for g in small:
        gi = inv(g)
        for h in small:
            hi = inv(mul(g, h))
            for x in grid:
                gx = mul(gi, x)
                assert F(x) - F(mul(hi, x)) == \
                    (F(x) - F(gx)) + (F(gx) - F(mul(inv(h), gx)))

    # inverse symmetry across families
    for g in ball(F2, 5):
        assert norm_sq(spec, g).exact == norm_sq(spec, inv(g)).exact
    z = preset("explicit-z-sqrt6")
    for k in range(1, 51):
        a, b = norm_sq(z, k, tol=1e-6), norm_sq(z, -k, tol=1e-6)
        assert abs(a.value - b.value) <= a.err + b.err + 1e-12

    # sphere cardinalities
    for n in range(1, 7):
        assert len(list(sphere(F2, n))) == 4 * 3 ** (n - 1)

    # reduction idempotence through parse/format
    from bernlab.groups import format_element

    for g in ball(F2, 4):
        assert parse_element(F2, format_element(g)) == g

    # classifier swap symmetry
    for lam in (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)):
        mu0, mu1 = measures_from_lambda(lam)
        assert plain_type(mu0, mu1) == plain_type(mu1, mu0)
        assert stable_params(mu0, mu1).k1 == stable_params(mu1, mu0).k1
    _report(10, "cocycle identity, inverse symmetry, sphere counts, "
                "reduction idempotence and classifier swap symmetry all hold")
