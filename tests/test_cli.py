import csv
import json
from fractions import Fraction

import pytest

from bernlab.cli import (
    CliError,
    main,
    preset,
    spec_digest,
    verify_bounds,
)
from bernlab.marginals import WSplit, ZSequence, SpecialCocycle, FolnerInduced


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

    def test_nonamenable(self, capsys):
        code, out, _ = run(capsys, "nonamenable", "--preset", "f2-wsplit")
        assert code == 0
        assert json.loads(out)["results"]["nonamenable"]


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
