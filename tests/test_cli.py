import csv
import gzip
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bernlab
from bernlab import cocycles
from bernlab.bump import BumpCocycle
from bernlab.cli import (
    CliError,
    main,
    preset,
    spec_digest,
    verify_bounds,
)
from bernlab.groups import FreeGroup
from bernlab.marginals import (
    ActionSpec,
    FolnerInduced,
    FreeProductW,
    SpecialCocycle,
    WSplit,
    ZSequence,
    measures_from_lambda,
    spec_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPresets:
    def test_f2_wsplit(self):
        spec = preset("f2-wsplit")
        assert spec.family == WSplit(Fraction(3, 5), Fraction(2, 5),
                                     Fraction(1, 2))
        assert spec.delta == Fraction(1, 3)

    def test_512_variant(self):
        assert preset("f2-wsplit-512").family.p_b == Fraction(5, 12)

    def test_explicit_z_sqrt6(self):
        fam = preset("explicit-z-sqrt6").family
        assert isinstance(fam, ZSequence)
        assert fam.lam == Fraction(1, 2) and fam.n0 == 1
        assert fam.seq.scale == Fraction(1, 6)

    def test_dissipative_default_d(self):
        fam = preset("f2-dissipative").family
        assert isinstance(fam, SpecialCocycle) and fam.D == 36

    def test_folner(self):
        assert isinstance(preset("folner-z").family, FolnerInduced)

    def test_dissipative_builds_share_bump_cocycle(self, capsys, monkeypatch):
        # the gamma_k brackets depend on D and k only, so a second call
        # finds every bracket it needs in the memo of the first
        assert preset("f2-dissipative").family.bc is preset("f2-dissipative").family.bc
        calls = []
        partial_sum = BumpCocycle._partial_sum
        monkeypatch.setattr(BumpCocycle, "_partial_sum",
                            lambda bc, k, N: calls.append(k) or partial_sum(bc, k, N))
        first = run(capsys, "criterion", "--preset", "f2-dissipative(12)")
        calls.clear()
        second = run(capsys, "criterion", "--preset", "f2-dissipative(12)")
        assert calls == []
        assert json.loads(second[1])["results"] == json.loads(first[1])["results"]

    def test_power(self):
        assert preset("f2-wsplit", power=220).multiplicity == 220

    def test_unknown(self):
        with pytest.raises(CliError):
            preset("no-such-preset")

    def test_digests_pinned(self):
        # presets must not drift
        assert spec_digest(preset("f2-wsplit")) == spec_digest(preset("f2-wsplit"))
        digests = {name: spec_digest(preset(name))
                   for name in ("f2-wsplit", "f2-wsplit-512",
                                "explicit-z-sqrt6", "f2-dissipative",
                                "folner-z")}
        assert len(set(digests.values())) == len(digests)


class TestCommands:
    def test_cocycle_norm(self, capsys):
        code, out, _ = run(capsys, "cocycle", "norm", "--preset", "f2-wsplit",
                           "-g", "a b^-1 a", "--oracle-radius", "4")
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == "bernlab/1"
        assert rep["results"]["exact"] == "1/20"
        assert rep["results"]["oracle_agrees"]

    def test_oracle_radius_beyond_word_length(self, capsys):
        # the ball oracle sums over the ball of radius |g| only; radius 64
        # would be about 10^30 words
        oracles = []
        for radius in ("3", "64"):
            start = time.monotonic()
            code, out, _ = run(capsys, "cocycle", "norm", "--preset", "f2-wsplit",
                               "-g", "a b^-1 a", "--oracle-radius", radius)
            assert code == 0 and time.monotonic() - start < 2.0
            oracle = json.loads(out)["results"]["oracle"]
            oracles.append((oracle["value"], oracle["err"]))
        assert oracles[0] == oracles[1]

    @pytest.mark.parametrize("text", ["a^99999999999", "b^-99999999999"])
    def test_cocycle_norm_huge_exponent(self, capsys, text):
        # WSplit's norm of x^e is the closed form |e| psi_x(1)^2, and the
        # parse folds the syllable in whole instead of into 10^11 letters
        code, out, _ = run(capsys, "cocycle", "norm", "--preset", "f2-wsplit", "-g", text)
        assert code == 0
        fam = preset("f2-wsplit").family
        x = 1 if text.startswith("a") else 2
        assert json.loads(out)["results"]["exact"] == str(99999999999 * fam.psi(x, 1) ** 2)

    def test_cocycle_norm_identity(self, capsys):
        code, out, _ = run(capsys, "cocycle", "norm", "--preset", "f2-wsplit",
                           "-g", "e")
        assert code == 0
        assert json.loads(out)["results"]["value"] == 0.0

    def test_growth_csv(self, capsys, tmp_path):
        target = str(tmp_path / "growth.csv")
        code, out, _ = run(capsys, "cocycle", "growth", "--preset",
                           "explicit-z-sqrt6", "--radius", "20",
                           "--out", target)
        assert code == 0
        with open(target) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "value", "lower_bound", "upper_bound"]
        assert len(rows) == 21
        for _, v, lo, hi in rows[1:]:
            assert float(lo) <= float(v) <= float(hi)

    def test_criterion_dissipative(self, capsys):
        code, out, _ = run(capsys, "criterion", "--preset", "f2-wsplit",
                           "--power", "220")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["verdict"] == "Dissipative"
        assert rep["results"]["certificate_checks"]

    def test_criterion_exit_3(self, capsys):
        code, _, _ = run(capsys, "criterion", "--preset", "f2-dissipative(1)",
                         "--require-certificate")
        assert code == 3

    def test_classify_measures(self, capsys):
        code, out, _ = run(capsys, "classify", "--mu0", "2/3,1/3",
                           "--mu1", "1/3,2/3", "--stable")
        assert code == 0
        rep = json.loads(out)["results"]
        assert rep["type"]["label"] == "III_1/2"
        assert rep["stable"]["k1"] == 2
        assert rep["stable"]["a"]["exact"] == "log(4)"

    def test_classify_element(self, capsys):
        code, out, _ = run(capsys, "classify", "--preset", "f2-wsplit",
                           "--element", "a")
        assert code == 0
        rep = json.loads(out)["results"]
        assert rep["type"]["label"] == "III_1"
        assert set(rep["omega_values"]) == {"6/5", "4/5"}

    def test_simulate_seed_echo(self, capsys):
        code, out, _ = run(capsys, "simulate", "--preset", "f2-wsplit",
                           "-g", "a", "--samples", "1000", "--seed", "5",
                           "--window", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["seeds"] == [5]
        assert "se_omega" in rep["results"]

    @pytest.mark.parametrize("g", ["a", ""])
    def test_simulate_negative_seed_exits_2(self, capsys, g):
        # seeds are not reduced mod 2^64, so -1 is not another name for
        # 2^64 - 1; it is refused, for the identity element too
        code, out, err = run(capsys, "simulate", "--preset", "f2-wsplit",
                             "-g", g, "--samples", "1000", "--seed", "-1",
                             "--window", "2")
        assert code == 2 and out == "" and "seed" in err

    @pytest.mark.parametrize("name", ["explicit-z", "folner-z"])
    def test_simulate_negative_window_exits_2(self, capsys, name):
        # explicit-z sampled no coordinates and reported omega = 1 +- 0;
        # folner-z ignored the sign and sampled the 540 coordinates of
        # --window 5
        code, out, err = run(capsys, "simulate", "--preset", name, "-g", "3",
                             "--samples", "1000", "--seed", "1", "--window", "-5")
        assert code == 2 and out == "" and "window" in err

    @pytest.mark.parametrize("window,power", [("256", "4"), ("1024", "1")])
    def test_simulate_overflow_is_null(self, capsys, window, power):
        # sum(w^-4) overflows here, and inf - inf would make the se NaN
        code, out, err = run(capsys, "simulate", "--preset", "f2-dissipative",
                             "-g", "a b^-1", "--window", window, "--power", power,
                             "--samples", "1000", "--seed", "1")
        assert code == 0 and err == ""

        def reject(name):
            raise ValueError(f"not JSON: {name}")
        rep = json.loads(out, parse_constant=reject)["results"]
        assert rep["se_negsq_omega"] is None
        assert rep["mean_sqrt_omega"] > 0

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "f2-dissipative", "-g", "a", "--samples", "1000",
         "--window", "100000000"],
        ["cocycle", "norm", "--preset", "explicit-z-sqrt6", "-g", "3",
         "--oracle-radius", "100000000"],
    ], ids=["simulate-window", "oracle-radius-z"])
    def test_window_above_2_20_exits_2(self, capsys, monkeypatch, argv):
        # refused before the window is read: reading it would size arrays,
        # tables or a pair list by the extent (several GB here)
        def fail(*args):
            raise AssertionError("window read")

        monkeypatch.setattr(SpecialCocycle, "window_values", fail)
        monkeypatch.setattr(cocycles, "value_pairs", fail)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "2^20" in err

    def test_build_and_validate(self, capsys, tmp_path):
        target = str(tmp_path / "spec.json")
        code, _, _ = run(capsys, "build", "--preset", "f2-wsplit",
                         "--out", target)
        assert code == 0
        code, out, _ = run(capsys, "spec", "validate", target)
        assert code == 0
        assert json.loads(out)["results"]["valid"]

    def test_spec_file_roundtrips_through_commands(self, capsys, tmp_path):
        target = str(tmp_path / "spec.json")
        run(capsys, "build", "--preset", "explicit-z-sqrt6", "--out", target)
        code, out, _ = run(capsys, "cocycle", "norm", "--spec", target,
                           "-g", "3")
        assert code == 0
        assert json.loads(out)["results"]["value"] > 0

    def test_bad_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "spec", "validate", str(bad))
        assert code == 2
        assert "error" in err

    def test_bad_element(self, capsys):
        code, _, err = run(capsys, "cocycle", "norm", "--preset", "f2-wsplit",
                           "-g", "a c")
        assert code == 2

    def test_missing_spec(self, capsys):
        code, _, err = run(capsys, "criterion")
        assert code == 2

    def test_criterion_radius_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["criterion", "--preset", "f2-wsplit", "--radius", "3"])
        assert exc.value.code == 2

    def test_verify_overflow_reports_valid_json(self, capsys):
        # e^{kappa0 ||c_g||^2} and the omega^-2 integral overflow a float here
        code, out, _ = run(capsys, "verify", "--preset", "f2-dissipative",
                           "--radius", "1", "--tol", "100")
        assert code in (0, 2)

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads(out, parse_constant=reject)
        assert rep["results"]["n_checked"] == 4

    def test_high_power_products_overflow_to_null(self, capsys):
        # at this power the omega^-2 integral leaves the float range
        code, out, _ = run(capsys, "nonamenable", "--preset", "f2-wsplit",
                           "--power", "10000")
        assert code == 0
        assert json.loads(out)["results"]["sum_lower"] > 0
        code, out, _ = run(capsys, "verify", "--preset", "f2-wsplit",
                           "--power", "10000", "--radius", "1")
        rows = json.loads(out)["results"]["checks"]
        assert [r["negsq_omega_integral"]["value"] for r in rows] == [None] * 4
        # the overflowed bracket starts at the float maximum, below e^{k0 ||c_g||^2}
        assert code == 0 and all(r["pass"] for r in rows)

    def test_nonamenable(self, capsys):
        code, out, _ = run(capsys, "nonamenable", "--preset", "f2-wsplit")
        assert code == 0
        assert json.loads(out)["results"]["nonamenable"]

    def test_criterion_overflowed_constant_is_null(self, capsys):
        # log(n0)^c overflows a float once the power multiplies c
        code, out, _ = run(capsys, "criterion", "--preset", "explicit-z",
                           "--power", "2")
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads(out, parse_constant=reject)["results"]
        assert rep["verdict"] == "Conservative"
        assert rep["evidence"]["constant"] is None
        assert rep["certificate_checks"]

    def test_criterion_inconclusive_partial_sums(self, capsys):
        # below kappa0 there is no certificate, so the 121 norms of the
        # partial sums to radius 60 are all computed, at tol 1e-4/220
        code, out, _ = run(capsys, "criterion", "--preset", "explicit-z",
                           "--power", "220", "--kappa", "16")
        assert code == 0
        rep = json.loads(out)["results"]
        assert rep["verdict"] == "Inconclusive"
        assert len(rep["evidence"]["partial_sums"]) == 61

    @pytest.mark.parametrize("name", ["f2-wsplit", "f2-wsplit-512"])
    def test_criterion_large_kappa_is_strict_json(self, capsys, name):
        # the witness constant exp(2 kappa m ab) overflows a float here; it is
        # needed only where the witness ratio q reaches 1
        code, out, err = run(capsys, "criterion", "--preset", name,
                             "--kappa", "100000")
        assert code == 0 and err == ""

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads(out, parse_constant=reject)["results"]
        assert rep["verdict"] == "Inconclusive" and rep["kappa"] == 100000.0


    @pytest.mark.parametrize("family, argv, verdict", [
        # beta = 0: the inner geometric series of the witness divided by 1 - x = 0
        ({"p_a": "3/5", "p_b": "1/2", "p_w": "1/2"}, [], "Conservative"),
        # beta = 10^-170: kappa m beta^2 underflowed, so 1 - x was 0 again;
        # log q is finite, q itself is past the float range and reported null
        ({"p_a": "3/5", "p_b": str(Fraction(1, 2) - Fraction(1, 10**170)),
          "p_w": "1/2"}, [], "Conservative"),
        # alpha beta < 0: exp(-2 kappa m (alpha^2 + alpha beta)) overflowed
        ({"p_a": "9/20", "p_b": "2/5", "p_w": "1/2"}, ["--kappa", "1e300"],
         "Inconclusive"),
        # 2 kappa m overflows: the iterated-logarithm constant was 0 * inf
        (None, ["--preset", "explicit-z", "--kappa", "1e308"], "Inconclusive"),
    ], ids=["wsplit-beta-zero", "wsplit-beta-underflow", "wsplit-huge-kappa",
            "explicit-z-huge-kappa"])
    def test_criterion_edge_cases_are_strict_json(self, capsys, tmp_path, family,
                                                  argv, verdict):
        if family is not None:
            path = tmp_path / "wsplit.json"
            path.write_text(json.dumps({"group": {"type": "free", "rank": 2},
                                        "family": {"kind": "wsplit", **family}}))
            argv = ["--spec", str(path), *argv]
        code, out, err = run(capsys, "criterion", *argv)
        assert code == 0 and err == ""

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads(out, parse_constant=reject)["results"]
        assert rep["verdict"] == verdict
        assert rep["certificate_checks"] == (verdict != "Inconclusive")
        if verdict == "Inconclusive":
            sums = rep["evidence"]["partial_sums"]
            assert sums and all(r["lower"] == r["upper"] == 1.0 for r in sums)
        if rep["evidence"].get("witness") == "two-generator subgroup family":
            assert rep["evidence"]["q"] is None

    def test_criterion_witness_q_pinned(self, capsys):
        # q computed in log space stays the value of the direct product
        code, out, _ = run(capsys, "criterion", "--preset", "f2-wsplit")
        assert code == 0
        evidence = json.loads(out)["results"]["evidence"]
        assert evidence["witness"] == "two-generator subgroup family"
        assert evidence["q"] == pytest.approx(17.51451646026311, rel=1e-12)


GOLDEN_Z = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "z-tails.json.gz"


@pytest.mark.parametrize("name, radius", [("explicit-z-sqrt6", 80), ("explicit-z", 30)])
def test_growth_no_wider_than_golden(capsys, tmp_path, name, radius):
    # golden brackets were captured from the program before its tail bound
    # was tightened; a tighter bound must only narrow them
    entries = json.loads(gzip.decompress(GOLDEN_Z.read_bytes()))["entries"]
    gold = entries[f"cocycle growth --preset {name} --radius {radius}"]["csv"]["brackets"]
    target = tmp_path / "growth.csv"
    code, _, _ = run(capsys, "cocycle", "growth", "--preset", name,
                     "--radius", str(radius), "--out", str(target))
    assert code == 0
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(gold) == radius
    for (_, _, lo, hi), (glo, ghi) in zip(rows, gold):
        lo, hi = float(lo), float(hi)
        assert lo <= ghi and glo <= hi
        assert hi - lo <= ghi - glo


def _spec_json(name, **family):
    data = spec_to_json(preset(name))
    data["family"].update(family)
    return data


def _fpw_json(**family):
    mu0, mu1 = measures_from_lambda(Fraction(1, 2))
    data = spec_to_json(ActionSpec(FreeGroup(2), FreeProductW(mu0, mu1),
                                   delta=Fraction(1, 4)))
    data["family"].update(family)
    return data


@pytest.mark.parametrize("spec", [
    _spec_json("folner-z", horizon=0),
    _spec_json("f2-wsplit", p_a="abc"),
    _spec_json("f2-wsplit", p_a="1/0"),
    _spec_json("f2-wsplit", p_a=float("inf")),
    {**_spec_json("f2-wsplit"), "family": "wsplit"},
    {**_spec_json("f2-wsplit"), "multiplicity": "two"},
    _fpw_json(distinguished=0),
    _fpw_json(distinguished=-1),
    _fpw_json(distinguished=3),
    # int() would truncate these or take true as 1
    {**_spec_json("f2-wsplit"), "group": {"type": "free", "rank": 2.5}},
    {**_spec_json("f2-wsplit"), "group": {"type": "free", "rank": True}},
    {**_spec_json("f2-wsplit"), "multiplicity": 1.9},
    {**_spec_json("f2-wsplit"), "multiplicity": True},
    {**_spec_json("f2-wsplit"), "multiplicity": float("inf")},
    _fpw_json(distinguished=1.5),
    _fpw_json(distinguished=True),
    _spec_json("explicit-z", n0=16.5),
    _spec_json("explicit-z", sequence={"kind": "inv_sqrt_log", "n0": 16.5}),
    _spec_json("explicit-z", sequence={"kind": "inv_sqrt_log", "n0": True}),
    _spec_json("folner-z", horizon=256.5),
    _spec_json("folner-z", horizon=True),
    # F is the mass of point 0, which fixes only a two-point measure; every
    # mass here lies in [delta, 1 - delta] = [1/4, 3/4]
    _fpw_json(mu0=["1/2", "1/4", "1/4"], mu1=["1/4", "1/2", "1/4"]),
    _fpw_json(mu0=["1/2", "1/4", "1/4"]),
], ids=["folner-horizon-0", "p_a-abc", "p_a-1/0", "p_a-inf",
        "family-string", "multiplicity-two", "distinguished-0",
        "distinguished--1", "distinguished-3", "rank-2.5", "rank-true",
        "multiplicity-1.9", "multiplicity-true", "multiplicity-inf",
        "distinguished-1.5", "distinguished-true", "n0-16.5", "sequence-n0-16.5",
        "sequence-n0-true", "horizon-256.5", "horizon-true", "fpw-three-point",
        "fpw-mu0-three-point"])
def test_malformed_spec_exits_2(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    g = "1" if spec["group"]["type"] == "integers" else "a"
    for argv in (["spec", "validate", str(path)],
                 ["cocycle", "norm", "--spec", str(path), "-g", g]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("bernlab: error:")


@pytest.mark.parametrize("field,value", [("rank", 2.0), ("rank", "2"),
                                         ("multiplicity", 1.0), ("multiplicity", "1")])
def test_integral_spec_fields_still_parse(capsys, tmp_path, field, value):
    data = _spec_json("f2-wsplit")
    if field == "rank":
        data["group"]["rank"] = value
    else:
        data[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "spec", "validate", str(path))
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("argv", [["cocycle", "norm", "-g", "a b^3"], ["criterion"]],
                         ids=["norm", "criterion"])
def test_distinguished_out_of_range_exits_2(capsys, tmp_path, argv):
    # a generator outside 1..rank would give the zero cocycle, not an error
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_fpw_json(distinguished=3)))
    code, out, err = run(capsys, *argv, "--spec", str(path))
    assert code == 2 and out == ""
    assert "distinguished generator 3 outside 1..2" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--radius", "1"],
    ["cocycle", "growth", "--radius", "2"],
    ["nonamenable"],
    ["criterion"],
], ids=["verify", "growth", "nonamenable", "criterion"])
def test_rank_beyond_the_alphabet_exits_2(capsys, tmp_path, argv):
    # generators are named a..z, so rank 27 would have a generator with no name
    path = tmp_path / "spec.json"
    data = _fpw_json()
    data["group"]["rank"] = 27
    path.write_text(json.dumps(data))
    argv = [*argv, "--spec", str(path), "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("bernlab: error:") and "rank must be <= 26" in err
    data["group"]["rank"] = 26
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ["cocycle", "norm", "--preset", "folner-z", "-g", "2000"],
    ["cocycle", "growth", "--preset", "folner-z", "--radius", "1100"],
], ids=["norm", "growth"])
def test_folner_shift_past_gap_exits_2(capsys, tmp_path, argv):
    # folner-z has horizon 256, so its intervals are 4 * 256 + 4 apart
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith("bernlab: error:") and "interval gap 1028" in err


def test_folner_horizon_overflowing_float_exits_2(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_json("folner-z", horizon=1100)))
    code, out, err = run(capsys, "cocycle", "norm", "--spec", str(path), "-g", "1")
    assert code == 2 and out == ""
    assert err.startswith("bernlab: error:") and "horizon 1100" in err


@pytest.mark.parametrize("argv, needle", [
    (["criterion", "--preset", "f2-dissipative(12)", "--kappa", "-1"], "kappa"),
    (["criterion", "--preset", "f2-dissipative(12)", "--kappa", "0"], "kappa"),
    (["cocycle", "norm", "--preset", "f2-wsplit", "-g", "a", "--power", "0"],
     "multiplicity"),
    (["cocycle", "norm", "--preset", "explicit-z", "-g", "1", "--power", "0"],
     "multiplicity"),
    (["build", "--preset", "f2-wsplit", "--power", "0"], "multiplicity"),
    (["verify", "--preset", "f2-wsplit", "--radius", "-1"], "radius"),
    (["verify", "--preset", "explicit-z-sqrt6", "--radius", "-1"], "radius"),
    (["cocycle", "growth", "--preset", "f2-wsplit", "--radius", "-1"], "radius"),
    (["cocycle", "growth", "--preset", "explicit-z-sqrt6", "--radius", "-1"],
     "radius"),
    (["cocycle", "norm", "--preset", "f2-wsplit", "--oracle-radius", "-1"],
     "radius"),
    (["cocycle", "norm", "--preset", "f2-wsplit", "-g", "a", "--tol", "nan"], "tol"),
    (["cocycle", "norm", "--preset", "explicit-z", "-g", "1", "--tol", "inf"], "tol"),
    (["cocycle", "growth", "--preset", "f2-wsplit", "--radius", "1", "--tol", "inf"],
     "tol"),
    (["verify", "--preset", "f2-wsplit", "--radius", "1", "--tol", "nan"], "tol"),
    (["criterion", "--preset", "f2-wsplit", "--kappa", "1e400"], "kappa"),
], ids=["kappa-negative", "kappa-zero", "power-0", "power-0-z", "build-power-0",
        "verify-radius", "verify-radius-z", "growth-radius", "growth-radius-z",
        "oracle-radius-identity", "norm-tol-nan", "norm-tol-inf-z", "growth-tol-inf",
        "verify-tol-nan", "kappa-beyond-float"])
def test_out_of_range_argument_exits_2(capsys, tmp_path, argv, needle):
    # each of these exited 0 before (with power 1, an empty criterion
    # series, no verify checks, an empty growth series, an oracle at radius
    # -1 or a tol that is not finite), except a kappa beyond the float
    # range, which raised OverflowError
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith("bernlab: error:") and needle in err
    assert not (tmp_path / "out").exists()


def _run_python(args, cwd=None):
    """Run the interpreter on `args` in a fresh process, with bernlab's
    source first on the import path."""
    src = Path(bernlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


# Imports bernlab, builds the presets and a FreeProductW spec that need no
# numpy, then runs the README commands that do exact work in one process
# with cli.main; prints which of numpy and concurrent.futures were loaded
# after each step, and the exit codes.
_START_UP = """
import contextlib, io, json, sys
from fractions import Fraction
import bernlab, bernlab.cli as cli
from bernlab.groups import FreeGroup
from bernlab.marginals import (ActionSpec, FreeProductW, measures_from_lambda,
                               spec_from_json, spec_to_json)

def loaded():
    return [m for m in ("numpy", "concurrent.futures") if m in sys.modules]

steps = {"import": loaded()}
for name in ("f2-wsplit", "explicit-z", "explicit-z-sqrt6"):
    cli.preset(name)
fpw = ActionSpec(FreeGroup(2), FreeProductW(*measures_from_lambda(Fraction(2, 5))),
                 delta=Fraction(1, 5))
spec_from_json(json.dumps(spec_to_json(fpw)))
steps["build"] = loaded()
codes = []
for argv in (
    ["cocycle", "norm", "--preset", "f2-wsplit", "-g", "a b^-1 a", "--oracle-radius", "4"],
    ["criterion", "--preset", "f2-wsplit", "--power", "220"],
    ["classify", "--mu0", "2/3,1/3", "--mu1", "1/3,2/3", "--stable"],
    ["classify", "--preset", "f2-wsplit", "--element", "a"],
    ["build", "--preset", "explicit-z-sqrt6", "--out", "z.json"],
    ["spec", "validate", "z.json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
steps["commands"] = loaded()
print(json.dumps({"steps": steps, "codes": codes}))
"""


def test_start_up_leaves_numpy_and_thread_pool_unloaded(tmp_path):
    # numpy costs tens of milliseconds to import and concurrent.futures about
    # 5 ms; the functions that compute with them import them, so the import,
    # the exact presets and the exact commands load neither
    done = _run_python(["-c", _START_UP], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {"steps": {"import": [], "build": [], "commands": []},
                      "codes": [0] * 6}


def test_simulate_in_a_fresh_process_is_pinned():
    # numpy is first imported inside the command, before mc_omega starts its
    # worker; the estimates are those of
    # test_criteria.py::TestMonteCarlo::test_window_table_stream_is_pinned
    done = _run_python(["-m", "bernlab.cli", "simulate", "--preset", "f2-dissipative",
                        "-g", "a^2 b^-1", "--window", "256", "--samples", "100000",
                        "--seed", "0"])
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)["results"]
    want = {
        "mean_omega": "0x1.9904c8fe98b9ap-14",
        "se_omega": "0x1.7998b0d72d511p-14",
        "mean_sqrt_omega": "0x1.9fa6d225baf4fp-14",
        "se_sqrt_omega": "0x1.05f1d9799769bp-15",
        "mean_negsq_omega": "0x1.5b57d8e1fc0c3p+189",
        "se_negsq_omega": "0x1.5a345193893d2p+189",
    }
    assert {k: got[k].hex() for k in want} == want


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "explicit-z-sqrt6"],
    ["nonamenable", "--preset", "f2-wsplit"],
], ids=["verify", "nonamenable"])
def test_numpy_commands_in_a_fresh_process(argv):
    done = _run_python(["-m", "bernlab.cli", *argv])
    assert done.returncode == 0, done.stderr

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    assert json.loads(done.stdout, parse_constant=reject)["schema"] == "bernlab/1"


def test_main_calls_share_no_parsed_state(capsys, tmp_path):
    # the parser is built once per process; flags of one call must not
    # leak into the next
    csv_path = tmp_path / "sums.csv"
    code, out, _ = run(capsys, "criterion", "--preset", "f2-dissipative(12)",
                       "--kappa", "7", "--csv", str(csv_path))
    assert code == 0 and csv_path.exists()
    first = json.loads(out)["results"]
    code, out, _ = run(capsys, "criterion", "--preset", "f2-dissipative(12)")
    assert code == 0
    second = json.loads(out)["results"]
    assert first["kappa"] == 7.0 and "csv" in first
    assert second["kappa"] != 7.0 and "csv" not in second


@pytest.mark.parametrize("argv", [
    ["criterion", "--preset", "f2-wsplit", "--kappa", "abc"],
    ["classify", "--mu0", "2/3,x", "--mu1", "1/3,2/3"],
    ["criterion", "--preset", "explicit-z(1/0)"],
], ids=["kappa-abc", "mu0-x", "preset-1/0"])
def test_malformed_argument_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("bernlab: error:")


class TestVerifyBounds:
    def test_wsplit_small(self):
        spec = preset("f2-wsplit")
        from bernlab.groups import ball, word_length

        grid = [g for g in ball(spec.group, 2) if word_length(g)]
        rep = verify_bounds(spec, grid)
        assert rep["n_failed"] == 0
        assert rep["n_checked"] == len(grid)

    def test_pmp_tight(self):
        from bernlab.groups import FreeGroup, ball, word_length
        from bernlab.marginals import ActionSpec, WSplit

        spec = ActionSpec(FreeGroup(2),
                          WSplit(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
                          delta=Fraction(1, 3))
        grid = [g for g in ball(spec.group, 2) if word_length(g)]
        rep = verify_bounds(spec, grid)
        assert rep["n_failed"] == 0
        for row in rep["checks"]:
            assert row["sqrt_omega_integral"]["value"] == pytest.approx(1.0)
            assert row["norm_sq"]["value"] == 0.0
