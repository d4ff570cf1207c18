import copy
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernlab.cli import preset
from bernlab.criteria import classify_conservativity
from bernlab.exact import BoundedValue, LogValue
from bernlab.groups import FreeGroup, GroupError, Integers, Word, parse_element
from bernlab.marginals import ExplicitSequence, FreeProductW, measures_from_lambda
from bernlab.typeclass import plain_type, ratio_group, stable_params

ends = st.one_of(st.floats(min_value=0.0, max_value=10.0),
                 st.floats(allow_nan=False, allow_infinity=False))


class TestFromBracket:
    @settings(max_examples=2000, deadline=None)
    @given(ends, ends)
    # (lo + hi)/2 ± (hi - lo)/2 put the lower end 8.9e-16 above lo here
    @example(float.fromhex("0x1.e5173fd738320p+2"), float.fromhex("0x1.0e3709bf68e97p+3"))
    # a narrow bracket across a power of two
    @example(8.0 - 3e-10, 8.0 + 1e-10)
    # lo + hi overflows
    @example(0.75 * sys.float_info.max, sys.float_info.max)
    def test_contains_both_ends(self, a, b):
        lo, hi = min(a, b), max(a, b)
        v = BoundedValue.from_bracket(lo, hi)
        assert v.lower <= lo and v.upper >= hi
        # and not much wider: a few ulps of the larger end
        slack = 2 * math.ulp(max(abs(lo), abs(hi)))
        assert v.lower >= lo - slack and v.upper <= hi + slack

    def test_infinite_upper_end_keeps_lower(self):
        v = BoundedValue.from_bracket(2.5, math.inf)
        assert v.lower == 2.5 and v.upper == math.inf


# --- immutable records ---------------------------------------------------------

F2 = FreeGroup(2)
MU = measures_from_lambda(Fraction(2, 5))

# (record, its compare fields, a field to change and its new value, its repr
# in the format the frozen dataclasses printed); built lazily, so collection
# stays cheap
RECORDS = {
    "FreeGroup": lambda: (F2, ("rank",), "rank", 3, "FreeGroup(rank=2)"),
    "Integers": lambda: (Integers(), (), None, None, "Integers()"),
    "Word": lambda: (parse_element(F2, "a b^-1"), ("rank", "syls"), "syls",
                     ((1, 1), (2, -2)), "Word(rank=2, syls=((1, 1), (2, -1)))"),
    "LogValue": lambda: (LogValue(Fraction(3, 2)), ("arg",), "arg", 2, "log(3/2)"),
    "BoundedValue": lambda: (BoundedValue.from_bracket(0.5, 1.5),
                             ("value", "err", "exact"), "err", 1.0,
                             "BoundedValue(value=1.0, err=0.5, exact=None)"),
    "BaseMeasure": lambda: (MU[0], ("probs",), "probs", (Fraction(1, 3), Fraction(2, 3)),
                            "BaseMeasure(probs=(Fraction(5, 7), Fraction(2, 7)))"),
    "InvSqrt": lambda: (
        preset("explicit-z-sqrt6").family.seq, ("scale",), "scale", Fraction(1, 7),
        "InvSqrt(scale=Fraction(1, 6))"),
    "InvSqrtLog": lambda: (preset("explicit-z").family.seq, ("n0",), "n0", 3,
                           "InvSqrtLog(n0=16)"),
    "ExplicitSequence": lambda: (
        ExplicitSequence((Fraction(1, 5), Fraction(1, 10))), ("terms",), "terms",
        (Fraction(1, 5),), "ExplicitSequence(terms=(Fraction(1, 5), Fraction(1, 10)))"),
    "ZSequence": lambda: (
        preset("explicit-z").family, ("lam", "n0", "seq"), "lam", Fraction(2, 3),
        "ZSequence(lam=Fraction(3, 4), n0=16, seq=InvSqrtLog(n0=16))"),
    "WSplit": lambda: (
        preset("f2-wsplit").family, ("p_a", "p_b", "p_w"), "p_b", Fraction(5, 12),
        "WSplit(p_a=Fraction(3, 5), p_b=Fraction(2, 5), p_w=Fraction(1, 2))"),
    "FreeProductW": lambda: (
        FreeProductW(*MU), ("mu0", "mu1", "distinguished"), "distinguished", 2,
        "FreeProductW(mu0=BaseMeasure(probs=(Fraction(5, 7), Fraction(2, 7))), "
        "mu1=BaseMeasure(probs=(Fraction(2, 7), Fraction(5, 7))), distinguished=1)"),
    "FolnerInduced": lambda: (
        preset("folner-z").family,
        ("phi_kind", "phi_scale", "horizon", "offset", "delta_f"), "offset",
        Fraction(1, 3),
        "FolnerInduced(phi_kind='sqrt_log', phi_scale=Fraction(1, 16), horizon=256, "
        "offset=Fraction(1, 2), delta_f=Fraction(1, 6))"),
    "SpecialCocycle": lambda: (
        preset("f2-dissipative").family, ("D", "base", "scale"), "scale",
        Fraction(1, 8),
        "SpecialCocycle(D=Fraction(36, 1), base=Fraction(1, 2), scale=Fraction(1, 4))"),
    "ActionSpec": lambda: (
        preset("f2-wsplit"), ("group", "family", "multiplicity", "delta"),
        "multiplicity", 2,
        "ActionSpec(group=FreeGroup(rank=2), family=WSplit(p_a=Fraction(3, 5), "
        "p_b=Fraction(2, 5), p_w=Fraction(1, 2)), multiplicity=1, delta=Fraction(1, 3))"),
    "CriterionVerdict": lambda: (
        classify_conservativity(preset("f2-wsplit")), ("verdict", "kappa", "evidence"),
        "kappa", 8.0,
        "CriterionVerdict(verdict='Conservative', kappa=16.0, evidence={'witness': "
        "'two-generator subgroup family', 'q': 17.514516460263117, 'const': "
        "1.3771277643359572, 'minorant': 'sum_k const * q^k with q >= 1'})"),
    "RatioGroup": lambda: (ratio_group([Fraction(1, 2)]), ("kind", "generator", "basis"),
                           "generator", Fraction(1, 3), "RatioGroup(cyclic, 1/2)"),
    "TypeLabel": lambda: (plain_type(*MU), ("kind", "lam_base", "root"), "root", 2,
                          "III_2/5"),
    "StableParams": lambda: (stable_params(*MU), ("L", "a", "b", "k1"), "k1", 3,
                             "StableParams(L=RatioGroup(cyclic, 4/25), a=log(25/4), "
                             "b=log(5/2), k1=2)"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_behave_as_frozen_dataclasses(name):
    x, fields, changed, value, shown = RECORDS[name]()
    assert type(x).__name__ == name
    key = {f: getattr(x, f) for f in fields}
    same = type(x)(**key)
    assert same == x and not same != x
    assert x.__eq__(key) is NotImplemented and x != tuple(key.values())
    if changed is not None:
        other = type(x)(**{**key, changed: value})
        assert other != x and not other == x
    if name == "CriterionVerdict":  # its evidence is a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(same) == hash(tuple(key.values()))
    assert repr(x) == shown
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert {f: getattr(x, f) for f in fields} == key


def test_derived_attributes_stay_out_of_equality_and_repr():
    # brackets [lo, inf] keep their lower end beside value = err = inf
    a = BoundedValue.from_bracket(2.5, math.inf)
    b = BoundedValue.from_bracket(3.5, math.inf)
    assert (a.lower, b.lower) == (2.5, 3.5)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "BoundedValue(value=inf, err=inf, exact=None)"
    fam = preset("f2-dissipative").family
    assert "bc" not in repr(fam) and "_s2" not in repr(fam)


def test_word_has_slots_and_families_keep_a_dict():
    w = parse_element(F2, "a b^-1")
    assert not hasattr(w, "__dict__")
    assert copy.copy(w) == pickle.loads(pickle.dumps(w)) == w
    # the memos are stored by __init__, one set per instance
    fam = preset("f2-wsplit").family
    assert {"_f_of", "_cross_of", "_norm_of"} <= set(vars(fam))
    assert fam.f(w) == fam.f(w) and fam._f_of is not preset("f2-wsplit").family._f_of


def test_word_validates_through_the_class_attribute(monkeypatch):
    # perfbench/layertrace.py counts validations by patching Word.__post_init__
    seen = []
    check = Word.__post_init__
    monkeypatch.setattr(Word, "__post_init__", lambda w: (seen.append(w), check(w)))
    w = Word(2, ((1, 1), (2, -1)))
    assert seen == [w]
    Word._trusted(2, w.syls)
    assert len(seen) == 1
    with pytest.raises(GroupError):
        Word(2, ((1, 1), (1, 2)))
    assert len(seen) == 2
