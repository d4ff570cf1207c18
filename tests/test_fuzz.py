"""Fuzzing of the commands that build and validate specs.

Preset names and parameters near their limits, malformed names and mutated
spec JSON go through `build` and `spec validate`. Whatever the input, `main`
exits 0 or 2 without raising, and exit 0 prints strict JSON with schema
"bernlab/1"; exit 2 prints nothing on stdout and a `bernlab: error:` message on
stderr. A spec read back from its JSON equals the spec, with the same hash and
the same digest in reports.
"""
import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from bernlab.cli import SCHEMA, CliError, main, preset, spec_digest
from bernlab.groups import FreeGroup, Integers
from bernlab.marginals import (ActionSpec, ExplicitSequence, FreeProductW, InvSqrt,
                               SpecError, ZSequence, measures_from_lambda, spec_from_json,
                               spec_to_json)

FUZZ = settings(max_examples=40, deadline=1000, derandomize=True)

PRESETS = ("f2-wsplit", "f2-wsplit-512", "explicit-z", "explicit-z-sqrt6",
           "f2-dissipative", "folner-z")


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 0:
        report = json.loads(out.getvalue(), parse_constant=_reject)
        assert report["schema"] == SCHEMA
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("bernlab: error:")
    return code


def build_and_validate(name: str) -> int:
    """Exit code of `build` on `name`; a spec it writes must validate."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "spec.json")
        # --preset=NAME, so that a name starting with "-" stays a value
        code = run_cli("build", f"--preset={name}", "--out", path)
        if code == 0:
            assert run_cli("spec", "validate", path) == 0
    return code


def validate_text(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(text)
        return run_cli("spec", "validate", str(path))


def _near(limit: int):
    """Fractions within 1/n of `limit`, on both sides, n up to 10^15."""
    return st.builds(lambda n, side: limit + side * Fraction(1, n),
                     st.integers(1, 10**15), st.sampled_from((-1, 1)))


def _spelled(q: Fraction):
    """q as the CLI may be given it: p/q, a decimal, or padded."""
    return st.sampled_from((f"{q.numerator}/{q.denominator}",
                            repr(float(q)), f" {q} "))


lambdas = st.one_of(_near(0), _near(1),
                    st.fractions(min_value=-1, max_value=2, max_denominator=10**6))
dissipative_d = st.one_of(
    st.integers(0, 18).map(lambda e: Fraction(1, 10**e)),
    st.integers(0, 18).map(lambda e: Fraction(10**e)),
    st.fractions(min_value=-1, max_value=10**4, max_denominator=10**4))


@FUZZ
@given(lambdas.flatmap(_spelled))
@example("0.999999999999")
@example("1/1000000000000000")
def test_explicit_z_near_its_limits(lam):
    code = build_and_validate(f"explicit-z({lam})")
    q = Fraction(lam.strip())
    if not 0 < q < 1:
        assert code == 2


@FUZZ
@given(dissipative_d.flatmap(_spelled))
@example("1000000000000000000")
@example("1/1000000000000000000")
def test_f2_dissipative_near_its_limits(d):
    code = build_and_validate(f"f2-dissipative({d})")
    if Fraction(d.strip()) <= 0:
        assert code == 2


name_chars = st.sampled_from("abcdefiklnoprstwxz0123456789-()/., e")


@FUZZ
@given(st.one_of(
    st.text(name_chars, max_size=24),
    st.builds(lambda base, arg: f"{base}({arg})", st.sampled_from(PRESETS),
              st.text(name_chars, max_size=12)),
    st.builds(lambda base, tail: base + tail, st.sampled_from(PRESETS),
              st.text(name_chars, min_size=1, max_size=6))))
@example("")
@example("explicit-z()")
@example("f2-wsplit(1/2)")
def test_malformed_preset_names(name):
    code = build_and_validate(name)
    if "(" not in name and name.strip() not in PRESETS:
        assert code == 2


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30),
              st.floats(), st.text(max_size=8),
              st.sampled_from(("1/2", "0", "-1/3", "1e400", "integers", "free",
                               "wsplit", "zseq", "special", "folner"))),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every key path into the nested dicts and lists of `node`."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(spec: dict, path: tuple, action: str, value):
    if not path:
        return value
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return spec


@st.composite
def mutated_specs(draw):
    spec = spec_to_json(preset(draw(st.sampled_from(PRESETS))))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(spec, (dict, list)):
            break
        path = draw(st.sampled_from(list(_paths(spec))))
        spec = _mutate(spec, path, draw(st.sampled_from(("delete", "replace"))),
                       draw(json_values))
    return json.dumps(spec)


@FUZZ
@given(mutated_specs())
@example('{"group": {"type": "free", "rank": 2}, "family": {"kind": "wsplit"}}')
@example('{"group": {"type": "integers"}, "delta": NaN, '
         '"family": {"kind": "zseq", "lam": "1/2"}}')
def test_mutated_spec_json(text):
    validate_text(text)


@FUZZ
@given(st.sampled_from(PRESETS), st.integers(0, 10**6))
def test_truncated_spec_json(name, cut):
    text = json.dumps(spec_to_json(preset(name)))
    validate_text(text[:cut % (len(text) + 1)])


def _round_trip(spec):
    back = spec_from_json(json.dumps(spec_to_json(spec)))
    assert back == spec and hash(back) == hash(spec)
    assert spec_digest(back) == spec_digest(spec)


def _built(make, arg):
    try:
        return make(arg)
    except (CliError, SpecError):  # outside the family's range
        reject()


open_unit = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
    lambda q: 0 < q < 1)


@FUZZ
@given(open_unit)
def test_explicit_z_spec_round_trips(lam):
    _round_trip(_built(lambda q: preset(f"explicit-z({q})"), lam))


@FUZZ
@given(dissipative_d.filter(lambda d: d > 0))
def test_f2_dissipative_spec_round_trips(d):
    _round_trip(_built(lambda q: preset(f"f2-dissipative({q})"), d))


@FUZZ
@given(open_unit, st.sampled_from((1, 2)))
def test_free_product_w_spec_round_trips(lam, distinguished):
    # delta = lam/(1 + lam), the smaller mass, is the largest admissible one
    fam = FreeProductW(*measures_from_lambda(lam), distinguished=distinguished)
    _round_trip(ActionSpec(FreeGroup(2), fam, delta=lam / (1 + lam)))


def _z_spec(lam, n0, seq):
    # delta = 1/100 leaves room for most lambda and a_0; the rest are rejected
    return ActionSpec(Integers(), ZSequence(lam, n0, seq), delta=Fraction(1, 100))


small_unit = st.fractions(min_value=0, max_value=Fraction(1, 2),
                          max_denominator=10**9).filter(lambda q: q > 0)
offsets = st.integers(-10**9, 10**9)


@FUZZ
@given(open_unit, offsets, small_unit)
def test_inv_sqrt_spec_round_trips(lam, n0, scale):
    _round_trip(_built(lambda q: _z_spec(lam, n0, InvSqrt(q)), scale))


@FUZZ
@given(open_unit, offsets, st.lists(small_unit, min_size=1, max_size=8))
def test_explicit_sequence_spec_round_trips(lam, n0, values):
    terms = tuple(sorted(values, reverse=True))
    _round_trip(_built(lambda t: _z_spec(lam, n0, ExplicitSequence(t)), terms))
