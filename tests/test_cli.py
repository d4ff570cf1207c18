import csv
import gzip
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bernlab.cli import (
    CliError,
    main,
    preset,
    spec_digest,
    verify_bounds,
)
from bernlab.marginals import (
    FolnerInduced,
    SpecialCocycle,
    WSplit,
    ZSequence,
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


@pytest.mark.parametrize("spec", [
    _spec_json("folner-z", horizon=0),
    _spec_json("f2-wsplit", p_a="abc"),
    _spec_json("f2-wsplit", p_a="1/0"),
    _spec_json("f2-wsplit", p_a=float("inf")),
    {**_spec_json("f2-wsplit"), "family": "wsplit"},
    {**_spec_json("f2-wsplit"), "multiplicity": "two"},
], ids=["folner-horizon-0", "p_a-abc", "p_a-1/0", "p_a-inf",
        "family-string", "multiplicity-two"])
def test_malformed_spec_exits_2(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "spec", "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("bernlab: error:")


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
