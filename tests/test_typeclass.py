import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bernlab.cli import main
from bernlab.exact import LogValue, format_fraction
from bernlab.marginals import (
    BaseMeasure,
    SpecError,
    measures_from_ab,
    measures_from_lambda,
)
from bernlab.typeclass import (
    RatioGroup,
    _canonical,
    _collect_primes,
    _exponent_vector,
    _hnf,
    _vec_to_rational,
    krieger_type,
    plain_type,
    ratio_group,
    sd_generators,
    stable_params,
    stable_type_set,
)


class TestRatioGroup:
    def test_trivial(self):
        assert ratio_group([1, 1]).kind == "trivial"
        assert ratio_group([]) == RatioGroup("trivial")

    def test_cyclic(self):
        rg = ratio_group(["3/2", "9/4"])
        assert rg.kind == "cyclic"
        assert rg.generator == Fraction(2, 3)  # canonicalized below 1

    def test_cyclic_with_inverse(self):
        rg = ratio_group(["1/2", "2", "8"])
        assert rg.kind == "cyclic" and rg.generator == Fraction(1, 2)

    def test_dense(self):
        assert ratio_group(["6/5", "4/5"]).kind == "dense"
        rg = ratio_group(["3/2", "7/5"])
        assert rg.kind == "dense"
        assert set(rg.basis) == {Fraction(2, 3), Fraction(5, 7)}

    def test_rejects_nonpositive(self):
        with pytest.raises(SpecError):
            ratio_group(["-1"])


class TestPlainType:
    def test_pmp(self):
        mu = measures_from_lambda(Fraction(1, 3))[0]
        assert plain_type(mu, mu).kind == "II1"

    def test_lambda_half(self):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        t = plain_type(mu0, mu1)
        assert t.kind == "III_lambda"
        assert t.lam_base == Fraction(1, 2)

    def test_dense_three_point(self):
        mu0, mu1 = measures_from_atomic()
        assert plain_type(mu0, mu1).kind == "III1"

    def test_swap_symmetry(self):
        cases = [
            measures_from_lambda(Fraction(1, 2)),
            measures_from_lambda(Fraction(2, 5)),
            measures_from_ab(LogValue(Fraction(2)), LogValue(Fraction(3, 2))),
            measures_from_atomic(),
        ]
        for mu0, mu1 in cases:
            assert plain_type(mu0, mu1) == plain_type(mu1, mu0)
            sp, sq = stable_params(mu0, mu1), stable_params(mu1, mu0)
            assert sp.L == sq.L and sp.k1 == sq.k1 and sp.a == sq.a


def measures_from_atomic():
    from bernlab.marginals import measures_from_atomic_eta

    return measures_from_atomic_eta([(Fraction(1, 2), 1), (Fraction(1, 3), 1)])


class TestStable:
    def test_lambda_half_params(self):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        sp = stable_params(mu0, mu1)
        assert sp.L.kind == "cyclic" and sp.L.generator == Fraction(1, 4)
        assert sp.a.arg == Fraction(4)   # a = log 4
        assert sp.b.arg == Fraction(2)   # b = log 2
        assert sp.k1 == 2

    def test_ab_roundtrip(self):
        mu0, mu1 = measures_from_ab(LogValue(Fraction(2)),
                                    LogValue(Fraction(3, 2)))
        sp = stable_params(mu0, mu1)
        assert sp.a.arg == Fraction(2)
        assert sp.b.arg == Fraction(3, 2)
        assert sp.k1 is None  # infinite order

    def test_type_set_k1_two(self):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        st = stable_type_set(stable_params(mu0, mu1))
        lams = sorted(t.lam for t in st["types"])
        assert lams == [0.25, 0.5]

    def test_type_set_infinite(self):
        mu0, mu1 = measures_from_ab(LogValue(Fraction(2)),
                                    LogValue(Fraction(3, 2)))
        st = stable_type_set(stable_params(mu0, mu1))
        kinds = [t.kind for t in st["types"]]
        assert kinds[0] == "III1" and kinds.count("III_lambda") == 10

    def test_pmp_stable(self):
        mu = measures_from_lambda(Fraction(1, 3))[0]
        st = stable_type_set(stable_params(mu, mu))
        assert [t.kind for t in st["types"]] == ["II1"]


class TestSdGenerators:
    def test_cyclic(self):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        assert sd_generators(mu0, mu1) == [Fraction(1, 2)]

    def test_pmp_empty(self):
        mu = measures_from_lambda(Fraction(1, 3))[0]
        assert sd_generators(mu, mu) == []

    def test_float_masses_are_read_exactly(self):
        # a float mass is read by parse_fraction, like every spec number
        mu = BaseMeasure((0.5, 0.5))
        assert mu.probs == (Fraction(1, 2), Fraction(1, 2))
        assert repr(plain_type(mu, mu)) == "II_1"


def _reference_label(rg):
    """The kind -> label mapping `classify --element` used to write inline."""
    if rg.kind == "trivial":
        return {"label": "II_1"}
    if rg.kind == "cyclic":
        return {"label": f"III_{format_fraction(rg.generator)}",
                "lambda": float(rg.generator)}
    return {"label": "III_1"}


def _reference_sd(mu0, mu1):
    """The HNF basis `sd_generators` used to compute on its own."""
    ts = [t for t in mu0.t_values(mu1) if t != 1]
    if not ts:
        return []
    primes = _collect_primes(ts)
    basis = _hnf([_exponent_vector(t, primes) for t in ts])
    return [_canonical(_vec_to_rational(b, primes)) for b in basis]


def _measure(weights):
    return BaseMeasure(tuple(Fraction(w, sum(weights)) for w in weights))


class TestOneRatioGroup:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(1, 60), min_size=n, max_size=n)] * 2)))
    def test_plain_type_and_sd_basis(self, pair):
        mu0, mu1 = map(_measure, pair)
        rg = ratio_group(mu0.t_values(mu1))
        t = plain_type(mu0, mu1)
        assert t == krieger_type(rg)
        label = {"label": repr(t), **({"lambda": t.lam} if t.lam else {})}
        assert label == _reference_label(rg)
        assert sd_generators(mu0, mu1) == _reference_sd(mu0, mu1) == rg.generators

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(1, 60), min_size=n, max_size=n)] * 2)))
    @example(([2, 1], [1, 2]))  # cyclic, lambda = 1/4
    @example(([1, 3], [1, 3]))  # trivial: omega(a, .) is 1 everywhere
    @example(([4, 1, 3], [4, 3, 1]))  # III_(1/3), but F sees II_1
    def test_element_and_measure_commands_agree(self, pair):
        # omega(a, .) of the FreeProductW action takes the T-values of
        # (mu0, mu1), so both classify paths see the same ratio group; on
        # three points F cannot model the measures, and the spec is refused
        mu0, mu1 = map(_measure, pair)
        fmt = [[format_fraction(p) for p in mu.probs] for mu in (mu0, mu1)]
        spec = {"group": {"type": "free", "rank": 2},
                "delta": format_fraction(min(mu0.probs + mu1.probs)),
                "family": {"kind": "free_product_w", "mu0": fmt[0], "mu1": fmt[1]}}
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "report.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            reports = []
            for argv in (["--spec", path, "--element", "a"],
                         ["--mu0", ",".join(fmt[0]), "--mu1", ",".join(fmt[1])]):
                report = main(["classify", *argv, "--out", out])
                if report == 0:
                    with open(out) as fh:
                        report = json.load(fh)["results"]
                reports.append(report)
        by_element, by_measures = reports
        rg = ratio_group(mu0.t_values(mu1))
        assert by_measures["type"] == _reference_label(rg)
        assert by_measures["L"] == repr(rg)
        assert by_measures["sd_basis"] == [format_fraction(q)
                                           for q in _reference_sd(mu0, mu1)]
        if len(mu0.probs) == 2:
            assert by_element["type"] == by_measures["type"]
            assert by_element["ratio_group"] == by_measures["L"]
        else:
            assert by_element == 2
