import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernlab.cli import preset
from bernlab.cocycles import norm_sq, norm_sq_bruteforce
from bernlab.criteria import integral_products
from bernlab.exact import LogValue
from bernlab.groups import FreeGroup, Integers, ball, parse_element
from bernlab.marginals import (
    ActionSpec,
    BaseMeasure,
    DecreasingSequence,
    FreeProductW,
    SpecError,
    SpecialCocycle,
    WSplit,
    ZSequence,
    _SyllableFamily,
    f_value,
    make_folner_family,
    measures_from_ab,
    measures_from_atomic_eta,
    measures_from_lambda,
    spec_from_json,
    spec_to_json,
)

F2 = FreeGroup(2)


def wsplit_spec():
    return ActionSpec(F2, WSplit(Fraction(3, 5), Fraction(2, 5), Fraction(1, 2)),
                      delta=Fraction(1, 3))


class TestFValue:
    def test_wsplit_classes(self):
        # p_a after a positive power of a, p_b after one of b, p_w elsewhere
        spec = wsplit_spec()
        for word, want in [
            ("e", "1/2"), ("a", "3/5"), ("a b", "2/5"), ("b a^-1", "1/2"),
            ("a b^2", "2/5"), ("a b^-1", "1/2"), ("a^-1 b", "2/5"),
            ("a b^-1 a", "3/5"), ("a b a b", "2/5"), ("a b^-1 a b^-1", "1/2"),
        ]:
            assert f_value(spec, w(word)) == Fraction(want), word

    @pytest.mark.parametrize("word, want", [
        # D = 1/12 gives delta = 1 and bumps of half-width n^2 from b_n =
        # 0, 2, 4, 12: H(1..4) = 1, 0, 1, 0 and H(5..9) = 1/4, 1/2, 3/4, 1, 3/4
        ("e", "1/2"), ("b a^-3", "1/2"), ("a b^2", "1/2"), ("b", "1/4"),
        ("a^5", "9/16"), ("a b^7", "5/16"), ("b^-1 a^8", "3/4"),
        ("a^3 b^-6", "1/2"), ("b^2 a^9", "11/16"),
    ])
    def test_special_last_syllable(self, word, want):
        # base + scale H(e) after a^e, base - scale H(e) after b^e
        fam = SpecialCocycle(Fraction(1, 12), Fraction(1, 2), Fraction(1, 4))
        assert fam.f(w(word)) == Fraction(want)

    @pytest.mark.parametrize("word, want", [
        ("e", "2/3"), ("b", "1/3"), ("b^-1", "2/3"), ("a c b^2", "1/3"),
        ("b c", "2/3"), ("c^-1 b^3", "1/3"), ("b a", "2/3"), ("a^4", "2/3"),
    ])
    def test_free_product_w_rank_3(self, word, want):
        # p1 = 1/3 after a positive power of the distinguished b, p0 = 2/3
        fam = FreeProductW(*measures_from_lambda(Fraction(1, 2)), distinguished=2)
        assert fam.f(parse_element(FreeGroup(3), word)) == Fraction(want)

    def test_matches_last_letter_reference(self):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        ws = WSplit(Fraction(3, 5), Fraction(2, 5), Fraction(1, 2))
        fpw = FreeProductW(mu0, mu1, distinguished=2)
        sc = SpecialCocycle(Fraction(1, 12), Fraction(1, 2), Fraction(1, 4))
        for g in ball(F2, 4):
            letters = [(x, 1 if e > 0 else -1) for x, e in g.syls for _ in range(abs(e))]
            if not letters:
                assert (ws.f(g), fpw.f(g), sc.f(g)) == (ws.p_w, mu0.probs[0], sc.base)
                continue
            # the last letter and the length of its trailing run
            last, run = letters[-1], 1
            while run < len(letters) and letters[-run - 1] == last:
                run += 1
            x, sign = last
            assert ws.f(g) == {(1, 1): ws.p_a, (2, 1): ws.p_b}.get(last, ws.p_w)
            assert fpw.f(g) == (mu1 if last == (2, 1) else mu0).probs[0]
            h = sc.bc.h_exact(sign * run)
            assert sc.f(g) == (sc.base + sc.scale * h if x == 1 else sc.base - sc.scale * h)

    @pytest.mark.parametrize("cls", [WSplit, FreeProductW, SpecialCocycle])
    def test_f_and_norm_sq_are_shared(self, cls):
        # a family gives base, psi and gamma only
        for name in ("f", "norm_sq"):
            assert name not in vars(cls)
            assert getattr(cls, name) is getattr(_SyllableFamily, name)

    def test_zsequence(self):
        seq = DecreasingSequence("inv_sqrt", scale=Fraction(1, 6))
        spec = ActionSpec(Integers(), ZSequence(Fraction(1, 2), 1, seq),
                          delta=Fraction(1, 3))
        assert f_value(spec, 0) == 0.5
        assert f_value(spec, 1) == pytest.approx(0.5 + 1 / 6)
        assert f_value(spec, 4) == pytest.approx(0.5 + 1 / 12)

    def test_free_product_w(self):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        spec = ActionSpec(F2, FreeProductW(mu0, mu1), delta=Fraction(1, 4))
        g = lambda s: parse_element(F2, s)
        assert f_value(spec, g("a")) == mu1.probs[0]
        assert f_value(spec, g("b a^-1")) == mu0.probs[0]

    def test_range_validation(self):
        with pytest.raises(SpecError):
            ActionSpec(F2, WSplit(Fraction(9, 10), Fraction(2, 5), Fraction(1, 2)),
                       delta=Fraction(1, 3))
        with pytest.raises(SpecError):
            ActionSpec(Integers(), WSplit(Fraction(3, 5), Fraction(2, 5),
                                          Fraction(1, 2)))

    @pytest.mark.parametrize("distinguished", [0, -1, 3])
    def test_distinguished_outside_rank(self, distinguished):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        data = spec_to_json(ActionSpec(F2, FreeProductW(mu0, mu1), delta=Fraction(1, 4)))
        data["family"]["distinguished"] = distinguished
        with pytest.raises(SpecError, match="distinguished generator"):
            spec_from_json(json.dumps(data))


@pytest.mark.parametrize("word, pairs", [
    ("a b^-1", 1), ("a^-1 b", 0), ("a b^-1 a", 1), ("a b a b", 0),
    ("a b^-1 a b^-1", 2), ("b^2 a^-3", 1), ("a", 0),
])
@pytest.mark.parametrize("p_a", ["3/5", "9/20"])
def test_wsplit_cross_term_per_descending_pair(word, pairs, p_a):
    # ||c_g||^2 = alpha^2 n_a + beta^2 n_b + 2 alpha beta (descending pairs)
    spec = ActionSpec(F2, WSplit(Fraction(p_a), Fraction(2, 5), Fraction(1, 2)),
                      delta=Fraction(1, 3))
    g = w(word)
    alpha, beta = spec.family.rates
    n_a = sum(abs(e) for x, e in g.syls if x == 1)
    n_b = sum(abs(e) for x, e in g.syls if x == 2)
    want = alpha**2 * n_a + beta**2 * n_b + 2 * alpha * beta * pairs
    assert norm_sq(spec, g).exact == want == spec.family.ball_norm_sq(g, 5)


class TestMeasureBuilders:
    def test_from_lambda(self):
        mu0, mu1 = measures_from_lambda(Fraction(1, 2))
        assert mu0.probs == (Fraction(2, 3), Fraction(1, 3))
        assert mu1.probs == (Fraction(1, 3), Fraction(2, 3))
        assert set(mu0.t_values(mu1)) == {Fraction(1, 2), Fraction(2)}

    def test_from_ab_exact(self):
        # T(0) = e^b, T(1) = e^(b-a) with a = log 2, b = log(3/2)
        mu0, mu1 = measures_from_ab(LogValue(Fraction(2)),
                                    LogValue(Fraction(3, 2)))
        assert mu0.t_values(mu1) == (Fraction(3, 2), Fraction(3, 4))

    def test_from_ab_b_zero(self):
        mu0, mu1 = measures_from_ab(LogValue(Fraction(3)), 0)
        assert set(mu0.t_values(mu1)) == {Fraction(1), Fraction(3),
                                          Fraction(1, 3)}

    def test_from_atomic_eta(self):
        mu0, mu1 = measures_from_atomic_eta([(Fraction(1, 2), 1),
                                             (Fraction(1, 3), 2)])
        assert sum(mu0.probs) == 1 and sum(mu1.probs) == 1
        ts = mu0.t_values(mu1)
        assert set(ts) == {Fraction(1, 2), Fraction(2),
                           Fraction(1, 3), Fraction(3)}

    def test_bad_inputs(self):
        with pytest.raises(SpecError):
            measures_from_lambda(Fraction(3, 2))
        with pytest.raises(SpecError):
            BaseMeasure((Fraction(1, 2), Fraction(1, 3)))
        # floats would stand for e^a and e^b only approximately
        for a, b in ((0.7, 0.2), (LogValue(Fraction(3)), 0.2)):
            with pytest.raises(SpecError):
                measures_from_ab(a, b)


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        wsplit_spec(),
        ActionSpec(Integers(),
                   ZSequence(Fraction(1, 2), 1,
                             DecreasingSequence("inv_sqrt", scale=Fraction(1, 6))),
                   multiplicity=73, delta=Fraction(1, 3)),
        ActionSpec(F2, FreeProductW(*measures_from_lambda(Fraction(1, 2))),
                   delta=Fraction(1, 4)),
        ActionSpec(F2, SpecialCocycle(Fraction(36), Fraction(1, 2),
                                      Fraction(1, 4)),
                   delta=Fraction(1, 4)),
    ])
    def test_roundtrip(self, spec):
        data = spec_to_json(spec)
        back = spec_from_json(json.dumps(data))
        assert spec_to_json(back) == data
        assert back.multiplicity == spec.multiplicity

    def test_folner_roundtrip(self):
        fam = make_folner_family(phi_kind="sqrt_log", phi_scale=Fraction(1, 16),
                                 horizon=32, offset=Fraction(1, 2),
                                 delta_f=1 / 6)
        spec = ActionSpec(Integers(), fam, delta=Fraction(1, 3))
        back = spec_from_json(json.dumps(spec_to_json(spec)))
        # rebuilt deterministically: identical interval layout and values
        assert back.family.cocycle.starts == fam.cocycle.starts
        assert back.family.cocycle.values == fam.cocycle.values

    def test_folner_delta_f_roundtrip(self):
        fam = make_folner_family(phi_kind="log", horizon=32, delta_f=0.1)
        spec = ActionSpec(Integers(), fam, delta=Fraction(1, 3))
        data = spec_to_json(spec)
        assert data["family"]["delta_f"] == "1/10"
        back = spec_from_json(json.dumps(data))
        assert back == spec
        assert back.family.cocycle.values == fam.cocycle.values
        # a file without delta_f means 1/2, whose amplitudes leave [1/3, 2/3]
        del data["family"]["delta_f"]
        with pytest.raises(SpecError, match="offset"):
            spec_from_json(json.dumps(data))

    def test_missing_field(self):
        with pytest.raises(SpecError):
            spec_from_json('{"group": {"type": "integers"}}')


def zsequence_json(sequence, n0=1):
    return json.dumps({"group": {"type": "integers"}, "delta": "1/4",
                       "family": {"kind": "zsequence", "lambda": "1/2", "n0": n0,
                                  "sequence": sequence}})


@pytest.mark.parametrize("sequence", [
    {"kind": "inv_sqrt", "scale": "-1/6"},
    {"kind": "inv_sqrt_log", "n0": 1},
    {"kind": "explicit", "values": []},
    {"kind": "explicit", "values": ["1/5", "-1/10"]},
    {"kind": "explicit", "values": ["1/10", "1/5"]},
])
def test_bad_sequence_rejected(sequence):
    with pytest.raises(SpecError):
        spec_from_json(zsequence_json(sequence))


def test_explicit_zsequence_exact_norm():
    spec = spec_from_json(zsequence_json(
        {"kind": "explicit", "values": ["1/5", "1/10", "1/20"]}, n0=0))
    # c_1 = (a_0, a_1 - a_0, a_2 - a_1) on 0, 1, 2
    assert norm_sq(spec, 1).exact == Fraction(21, 400)
    for k in (1, 2, 3, 7, -3):
        nv = norm_sq(spec, k)
        assert nv.err == 0 and nv.exact == norm_sq(spec, -k).exact
        ov = norm_sq_bruteforce(spec, k, 64)
        assert ov.lower <= nv.value <= ov.upper


EXPLICIT_3 = {"kind": "explicit", "values": ["1/5", "1/10", "1/20"]}


def test_explicit_zsequence_exact_tail():
    # F = 1/2 + a_n for n >= 0 with a = (1/5, 1/10, 1/20, 1/20, ...): the
    # cocycle is finitely supported, so every bracket is as narrow as the
    # float rounding of its products
    spec = spec_from_json(zsequence_json(EXPLICIT_3, n0=0))
    a = [Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)]

    def F(n):
        return Fraction(1, 2) + (a[min(n, 2)] if n >= 0 else 0)

    for g in (1, 2, -3):
        assert spec.family.tail(g, 0) > 0 and spec.family.tail(g, 2) == 0
        exact_norm = sum((F(h) - F(h - g)) ** 2 for h in range(-10, 10))
        pairs = [(F(h), F(h + g)) for h in range(-10, 10) if F(h) != F(h + g)]
        negsq = math.prod(p**3 / q**2 + (1 - p) ** 3 / (1 - q) ** 2 for p, q in pairs)
        with localcontext() as ctx:
            ctx.prec = 50

            def dec(q):
                return Decimal(q.numerator) / Decimal(q.denominator)

            hell = math.prod((dec(p * q).sqrt() + dec((1 - p) * (1 - q)).sqrt()
                              for p, q in pairs), start=Decimal(1))
            hv, pv = integral_products(spec, g)
            assert Decimal(hv.lower) <= hell <= Decimal(hv.upper)
        ov = norm_sq_bruteforce(spec, g, 64)
        assert Fraction(pv.lower) <= negsq <= Fraction(pv.upper)
        assert Fraction(ov.lower) <= exact_norm <= Fraction(ov.upper)
        for bracket in (hv, pv, ov):
            assert bracket.upper - bracket.lower < 1e-9


def _exact_step(seq, J):
    """(a_J, a_J - a_{J+1}) in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        if seq.kind == "inv_sqrt":
            c = Decimal(seq.scale.numerator) / Decimal(seq.scale.denominator)
            a = [c / Decimal(J + 1 + i).sqrt() for i in (0, 1)]
        else:
            a = [1 / (Decimal(x) * Decimal(x).ln()).sqrt()
                 for x in (J + seq.n0, J + seq.n0 + 1)]
        return a[0], a[0] - a[1]


@pytest.mark.parametrize("seq", [DecreasingSequence("inv_sqrt", scale=Fraction(1, 6)),
                                 DecreasingSequence("inv_sqrt", scale=Fraction(7, 3)),
                                 DecreasingSequence("inv_sqrt_log", n0=2),
                                 DecreasingSequence("inv_sqrt_log", n0=16)])
def test_tail_bound_survives_rounding(seq):
    # a_J - a_{J+1} taken as a difference of floats loses about log10(4 J)
    # digits; `step` must keep the float tail above the real bound
    # k^2 a_J (a_J - a_{J+1}) up to the deepest truncation
    fam = ZSequence(Fraction(1, 2), 1, seq)
    for J in (0, 1, 10**3, 10**6, 5 * 10**7):
        a, step = _exact_step(seq, J)
        assert abs(Decimal(seq.step(J)) / step - 1) < Decimal("1e-14")
        for k in (1, 7, 200):
            assert Decimal(fam.tail(k, J)) >= k * k * a * step


N_TERMS = 10**5


def _remainder_bound(seq, k, M):
    """Upper bound on sum_{j >= M} (a_j - a_{j+k})^2 by the mean value
    theorem, a_j - a_{j+k} <= k |g'(x_j)|, and an integral of g'^2."""
    if seq.kind == "inv_sqrt":  # g(x) = c x^-1/2 at x_j = j + 1
        return (k * float(seq.scale)) ** 2 / (8.0 * M * M)
    # g(x) = (x ln x)^-1/2 at x_j = j + n0: g'^2 = (L+1)^2 / (4 L^3 x^3), L = ln x
    X = M + seq.n0 - 1
    L = math.log(X)
    return k * k * (L + 1) ** 2 / (8.0 * L**3 * X * X)


closed_forms = st.one_of(
    st.builds(lambda p, q: DecreasingSequence("inv_sqrt", scale=Fraction(p, q)),
              st.integers(1, 100), st.integers(1, 100)),
    st.builds(lambda n0: DecreasingSequence("inv_sqrt_log", n0=n0),
              st.integers(2, 10**4)),
)


@settings(max_examples=60, deadline=None)
@given(seq=closed_forms, k=st.integers(1, 200), J=st.integers(1, 10**5))
def test_tail_bound_sound_and_tight(seq, k, J):
    fam = ZSequence(Fraction(1, 2), 1, seq)
    a = seq.values(J + k + N_TERMS)
    d = a[J:J + N_TERMS] - a[J + k:]
    partial = math.fsum(d * d)  # a lower bound on the true tail
    bound = fam.tail(k, J)
    assert bound >= partial
    if J >= 10 * k:
        assert bound <= 5.0 * (partial + _remainder_bound(seq, k, J + N_TERMS))


@pytest.mark.parametrize("name", ["explicit-z-sqrt6", "explicit-z"])
def test_norm_sq_work_is_linear_in_k(name, monkeypatch):
    # counted work, not time: the items requested from the sequence
    requested = []
    values = DecreasingSequence.values

    def counting(self, J):
        requested.append(J)
        return values(self, J)

    monkeypatch.setattr(DecreasingSequence, "values", counting)
    spec = preset(name)
    for k in range(1, 81):
        requested.clear()
        norm_sq(spec, k, 1e-6)
        assert 0 < sum(requested) <= 1000 * k


def w(text):
    return parse_element(F2, text)


# kind -> (spec, grid of g, oracle radius, window for F)
FAMILY_CASES = {
    "wsplit": lambda: (wsplit_spec(), [w("a"), w("a b^-1"), w("b a^2")], 4,
                       list(ball(F2, 2))),
    "zsequence": lambda: (
        ActionSpec(Integers(), ZSequence(Fraction(1, 2), 1, DecreasingSequence(
            "inv_sqrt", scale=Fraction(1, 6)))), [1, 2, -3], 4000, range(-5, 40)),
    "free_product_w": lambda: (
        ActionSpec(F2, FreeProductW(*measures_from_lambda(Fraction(1, 2))),
                   multiplicity=2, delta=Fraction(1, 4)),
        [w("a"), w("a b^-1"), w("b a^2")], 4, list(ball(F2, 2))),
    "folner": lambda: (
        ActionSpec(Integers(), make_folner_family(
            phi_kind="sqrt_log", phi_scale=Fraction(1, 16), horizon=32,
            delta_f=Fraction(1, 6))), [1, 2, 7], 8, range(-5, 300)),
    "special": lambda: (
        ActionSpec(F2, SpecialCocycle(Fraction(1), Fraction(1, 2), Fraction(1, 4)),
                   delta=Fraction(1, 4)), [w("a"), w("a b^-1")], 1000,
        list(ball(F2, 2)) + [w("a^40"), w("b^-9")]),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_CASES))
def test_family_protocol(kind):
    spec, grid, radius, window = FAMILY_CASES[kind]()
    data = spec_to_json(spec)
    assert data["family"]["kind"] == kind
    back = spec_from_json(json.dumps(data))
    assert back == spec
    assert [f_value(back, h) for h in window] == [f_value(spec, h) for h in window]
    for g in grid:
        nv, ov = norm_sq(spec, g), norm_sq_bruteforce(spec, g, radius)
        assert abs(nv.value - ov.value) <= nv.err + ov.err + 1e-12
    data["family"]["kind"] = "no_such_" + kind
    with pytest.raises(SpecError, match="unknown family kind"):
        spec_from_json(json.dumps(data))
