import json
import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernlab.cli import main, preset
from bernlab.cocycles import norm_sq, norm_sq_bruteforce
from bernlab.criteria import integral_products
from bernlab.exact import LogValue
from bernlab.groups import FreeGroup, Integers, Word, ball, mul, parse_element, word_length
from bernlab.marginals import (
    ActionSpec,
    BaseMeasure,
    DecreasingSequence,
    FreeProductW,
    SpecError,
    SpecialCocycle,
    WSplit,
    ZSequence,
    _BallFamily,
    _SyllableFamily,
    _log_diff,
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
        # a family gives base, psi and gamma only; the ball families share
        # the syllable-statistics norm of `_BallFamily`
        for name in ("f", "norm_sq"):
            assert name not in vars(cls)
        assert cls.f is _SyllableFamily.f
        shared = _BallFamily if issubclass(cls, _BallFamily) else _SyllableFamily
        assert cls.norm_sq is shared.norm_sq

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


@st.composite
def ball_family_and_word(draw):
    """A WSplit (rank 2) or a FreeProductW (rank 2 or 3, any distinguished
    generator) and a reduced word of at most 12 letters."""
    rank = draw(st.sampled_from([2, 3]))
    mass = st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=60)
    if rank == 2 and draw(st.booleans()):
        fam = WSplit(draw(mass), draw(mass), draw(mass))
    else:
        fam = FreeProductW(*measures_from_lambda(draw(mass)),
                           distinguished=draw(st.integers(1, rank)))
    letters = [Word(rank, ((x, e),)) for x in range(1, rank + 1) for e in (1, -1)]
    g = Word(rank, ())
    for letter in draw(st.lists(st.sampled_from(letters), max_size=12)):
        g = mul(g, letter)
    return fam, g


@given(ball_family_and_word())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ball_norm_from_syllable_statistics(case):
    # the (l, d) form equals the block sum it is proved from, and the sum of
    # c_g^2 over the ball
    fam, g = case
    got = fam.norm_sq(g, 1e-6)
    assert got == _SyllableFamily.norm_sq(fam, g, 1e-6)
    assert isinstance(got.exact, Fraction)
    if word_length(g) <= 6:
        assert got.exact == fam.ball_norm_sq(g, 6)


def _fpw_rank3_spec(tmp_path):
    spec = ActionSpec(FreeGroup(3), FreeProductW(*measures_from_lambda(Fraction(2, 5)),
                                                 distinguished=2), delta=Fraction(1, 5))
    path = tmp_path / "fpw3.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    return ["--spec", str(path)]


@pytest.mark.parametrize("source", ["f2-wsplit", "f2-wsplit-512", "fpw-rank-3"])
def test_growth_csv_matches_the_block_sum(source, monkeypatch, tmp_path, capsys):
    # the same CSV, byte for byte, as the per-word block sum of
    # `_SyllableFamily.norm_sq`
    args = (_fpw_rank3_spec(tmp_path) if source == "fpw-rank-3"
            else ["--preset", source])
    paths = [tmp_path / "stats.csv", tmp_path / "blocks.csv"]
    assert main(["cocycle", "growth", *args, "--radius", "6", "--out", str(paths[0])]) == 0
    monkeypatch.setattr(_BallFamily, "norm_sq", _SyllableFamily.norm_sq)
    assert main(["cocycle", "growth", *args, "--radius", "6", "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_statistics_memo_starts_cold_in_every_call(monkeypatch, tmp_path, capsys):
    # the memo lives on the family instance, and every CLI call builds its
    # preset afresh, so no call reads a norm another one computed
    assert "_norm_of" not in vars(preset("f2-wsplit").family)
    calls = []
    psi = WSplit.psi
    monkeypatch.setattr(WSplit, "psi", lambda fam, x, e: calls.append(x) or psi(fam, x, e))
    out = str(tmp_path / "growth.csv")
    counts = []
    for _ in range(2):
        calls.clear()
        assert main(["cocycle", "growth", "--preset", "f2-wsplit", "--radius", "3",
                     "--out", out]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


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


def test_explicit_zsequence_norm_at_huge_k():
    # a_j = 1/20 for j >= 2, so ||c_k||^2 = a_0^2 + a_1^2 + (k - 2) a_2^2 +
    # (a_0 - a_2)^2 + (a_1 - a_2)^2 for k >= 2: exact, and O(1) in k
    spec = spec_from_json(zsequence_json(EXPLICIT_3, n0=0))
    a0, a1, a2 = Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)
    k = 10**12
    start = time.perf_counter()
    nv = norm_sq(spec, k)
    assert time.perf_counter() - start < 1.0
    assert nv.exact == a0**2 + a1**2 + (k - 2) * a2**2 + (a0 - a2) ** 2 + (a1 - a2) ** 2
    assert nv.exact == Fraction(250000000007, 100)
    # the closed form against the sum over every j < k on short translates
    for k in range(0, 12):
        a = [a0, a1] + [a2] * max(k, 1)
        head = sum((a[j] ** 2 for j in range(k)), Fraction(0))
        diffs = sum(((a[j] - a[min(j + k, 2)]) ** 2 for j in range(2)), Fraction(0))
        assert norm_sq(spec, k).exact == head + diffs


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


def _old_bound(seq, k, J):
    """The one-sided tail bound k^2 a_J (a_J - a_{J+1}) that the two-sided
    bracket replaced, in 50-digit decimals: it holds for every convex,
    decreasing sequence that tends to 0."""
    with localcontext() as ctx:
        ctx.prec = 50
        if seq.kind == "inv_sqrt":
            c = Decimal(seq.scale.numerator) / Decimal(seq.scale.denominator)
            a = [c / Decimal(J + 1 + i).sqrt() for i in (0, 1)]
        else:
            a = [1 / (Decimal(x) * Decimal(x).ln()).sqrt()
                 for x in (J + seq.n0, J + seq.n0 + 1)]
        return k * k * a[0] * (a[0] - a[1])


def _inv_sqrt_integral(seq, k, x):
    """int_x^inf (a(t) - a(t+k))^2 dt for a(t) = c (t+1)^-1/2 in 50-digit
    decimals, from the antiderivative c^2 (ln u + ln v - 4 ln(sqrt(u) +
    sqrt(v))), u = t + 1, v = u + k, and its limit 2 c^2 ln(1/4)."""
    with localcontext() as ctx:
        ctx.prec = 50
        c = Decimal(seq.scale.numerator) / Decimal(seq.scale.denominator)
        u = Decimal(x) + 1
        v = u + k
        at_x = u.ln() + v.ln() - 4 * (u.sqrt() + v.sqrt()).ln()
        return c * c * (2 * Decimal("0.25").ln() - at_x)


@pytest.mark.parametrize("seq", [DecreasingSequence("inv_sqrt", scale=Fraction(1, 6)),
                                 DecreasingSequence("inv_sqrt", scale=Fraction(7, 3)),
                                 DecreasingSequence("inv_sqrt_log", n0=2),
                                 DecreasingSequence("inv_sqrt_log", n0=16)])
def test_tail_bound_survives_rounding(seq):
    # cross-check against the old one-sided bound k^2 a_J (a_J - a_{J+1}):
    # the bracket's upper end, rounding included, is never looser, and about
    # a quarter of it once J >> k; for inv_sqrt it also stays above the real
    # I(J - 1/2) up to the deepest truncation
    fam = ZSequence(Fraction(1, 2), 1, seq)
    for J in (0, 1, 10**3, 10**6, 5 * 10**7):
        for k in (1, 7, 200):
            tail, old = Decimal(fam.tail(k, J)), _old_bound(seq, k, J)
            assert tail <= old
            if J >= 10**6:
                assert tail >= old / 5
            if seq.kind == "inv_sqrt":
                assert tail >= _inv_sqrt_integral(seq, k, J - 0.5)


@pytest.mark.parametrize("k", [1, 3, 200, 10**6, 10**9])
def test_inv_sqrt_integral_closed_form(k):
    # the cancellation-free closed form against the 50-digit antiderivative
    seq = DecreasingSequence("inv_sqrt", scale=Fraction(7, 3))
    for x in (-0.5, 0.0, 2.5, 1e3, 1e6 - 0.5, 3e9):
        got = seq._diff_integral(x, k, True, 32)
        want = _inv_sqrt_integral(seq, k, x)
        assert abs(Decimal(got) / want - 1) < Decimal("1e-13")


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

    def counting(self, J, start=0):
        requested.append(J)
        return values(self, J, start)

    monkeypatch.setattr(DecreasingSequence, "values", counting)
    spec = preset(name)
    for k in range(1, 81):
        requested.clear()
        norm_sq(spec, k, 1e-6)
        assert 0 < sum(requested) <= 1000 * k


def _square_bound(seq, M, k):
    """Upper bound on sum_{M <= j < M+k} a_j^2 for M >= 1: a^2 decreases, so
    a_j^2 <= int_{j-1}^j a(t)^2 dt, a closed form."""
    if seq.kind == "inv_sqrt":
        return float(seq.scale) ** 2 * math.log1p(k / M)
    X = M - 1 + seq.n0
    return math.log1p(math.log1p(k / X) / math.log(X))


def _decimal_diff(seq, k, J):
    """a_J - a_{J+k} in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        if seq.kind == "inv_sqrt":
            c = Decimal(seq.scale.numerator) / Decimal(seq.scale.denominator)
            return c / Decimal(J + 1).sqrt() - c / Decimal(J + 1 + k).sqrt()
        x, y = Decimal(J + seq.n0), Decimal(J + seq.n0 + k)
        return 1 / (x * x.ln()).sqrt() - 1 / (y * y.ln()).sqrt()


LONG_TERMS = 10**6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seq=st.one_of(
           st.builds(lambda p, q: DecreasingSequence("inv_sqrt", scale=Fraction(p, q)),
                     st.integers(1, 10**6), st.integers(1, 10**6)),
           st.builds(lambda n0: DecreasingSequence("inv_sqrt_log", n0=n0),
                     st.integers(2, 10**6))),
       k=st.integers(1, 10**9), J=st.integers(0, 10**6))
def test_tail_bracket_holds_a_long_sum(seq, k, J):
    # both ends of the two-sided tail bracket against the sum of its first
    # 10^6 terms, exact up to float rounding, and a proven bound on the rest
    fam = ZSequence(Fraction(1, 2), 1, seq)
    lo, hi, r = fam._tail_bracket(k, J, 32)
    d_J = Decimal(seq._diff(J, k))
    assert abs(d_J / _decimal_diff(seq, k, J) - 1) < Decimal("1e-13")
    x = np.arange(J, J + LONG_TERMS, dtype=np.float64)
    if seq.kind == "inv_sqrt":
        ru, rv = np.sqrt(x + 1.0), np.sqrt(x + 1.0 + k)
        d = float(seq.scale) * (k / (ru + rv)) / (ru * rv)
    else:
        d = _log_diff(x + seq.n0, k, np)
    partial = math.fsum((d * d).tolist())
    M = J + LONG_TERMS
    rest = min(_remainder_bound(seq, k, M),
               _square_bound(seq, M, k) + _remainder_bound(seq, k, M + k))
    assert lo - r <= (partial + rest) * (1 + 1e-12)
    assert hi + r >= partial * (1 - 1e-12)


def _count_values(monkeypatch):
    """The list of J of every DecreasingSequence.values(J) call from now on."""
    requested = []
    values = DecreasingSequence.values

    def counting(self, J, start=0):
        requested.append(J)
        return values(self, J, start)

    monkeypatch.setattr(DecreasingSequence, "values", counting)
    return requested


@pytest.mark.parametrize("name, most", [("explicit-z-sqrt6", 10**6),
                                        ("explicit-z", 2 * 10**7)])
def test_growth_values_requested_are_bounded(name, most, monkeypatch, tmp_path, capsys):
    # counted work, not time: the README's growth command requests about
    # 3.0e5 (explicit-z-sqrt6) and 7.3e6 (explicit-z) values; the one-sided
    # tail, at J of about 240 k to 590 k, requested 1.2e8 and 2.1e8
    requested = _count_values(monkeypatch)
    assert main(["cocycle", "growth", "--preset", name, "--radius", "1000",
                 "--out", str(tmp_path / "growth.csv")]) == 0
    assert sum(requested) <= most


def test_norm_at_huge_k_reads_o_of_j_values(monkeypatch):
    # a_0 ... a_(J-1) and a_k ... a_(k+J-1), with J a few hundred: not the
    # 10^8 + J values of one array through a_(k+J-1)
    requested = _count_values(monkeypatch)
    nv = norm_sq(preset("explicit-z-sqrt6"), 10**8, 1e-6)
    assert nv.err <= 1e-6
    assert len(requested) == 2 and requested[0] == requested[1] <= 1000


@pytest.mark.parametrize("seq", [
    DecreasingSequence("inv_sqrt", scale=Fraction(1, 6)),
    DecreasingSequence("inv_sqrt_log", n0=16),
    DecreasingSequence("explicit", explicit=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))])
def test_values_from_start(seq):
    # the far half of the norm's head, a_k ... a_(k+J-1): the same floats as
    # the tail of one array from a_0
    for start in (0, 1, 2, 5, 300):
        want = seq.values(start + 9)[start:]
        assert seq.values(9, start).tolist() == want.tolist()


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
