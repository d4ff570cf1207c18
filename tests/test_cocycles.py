import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernlab import cocycles, folner, marginals
from bernlab.bump import BumpCocycle
from bernlab.cli import preset
from bernlab.cocycles import (
    affinity_pairs,
    cocycle_coeff,
    norm_sq,
    norm_sq_bruteforce,
    support_elements,
    value_pairs,
)
from bernlab.exact import BoundedValue
from bernlab.folner import build_folner, enum_z
from bernlab.groups import (
    FreeGroup,
    Integers,
    Word,
    ball,
    inv,
    mul,
    parse_element,
    word_length,
)
from bernlab.marginals import (
    ActionSpec,
    DecreasingSequence,
    FreeProductW,
    SpecError,
    SpecialCocycle,
    WSplit,
    ZSequence,
    f_value,
    make_folner_family,
    measures_from_lambda,
)

F2 = FreeGroup(2)


def w(text):
    return parse_element(F2, text)


def wsplit_spec(p_a="3/5", p_b="2/5", p_w="1/2"):
    return ActionSpec(F2, WSplit(Fraction(p_a), Fraction(p_b), Fraction(p_w)),
                      delta=Fraction(1, 3))


def zseq_spec(m=1):
    seq = DecreasingSequence("inv_sqrt", scale=Fraction(1, 6))
    return ActionSpec(Integers(), ZSequence(Fraction(1, 2), 1, seq),
                      multiplicity=m, delta=Fraction(1, 3))


class TestCoefficients:
    def test_generator_deltas(self):
        spec = wsplit_spec()
        assert cocycle_coeff(spec, w("a"), w("a")) == Fraction(1, 10)
        assert cocycle_coeff(spec, w("b"), w("b")) == Fraction(-1, 10)
        assert cocycle_coeff(spec, w("a"), w("b")) == 0

    def test_identity_element(self):
        spec = wsplit_spec()
        for h in ball(F2, 2):
            assert cocycle_coeff(spec, w("e"), h) == 0

    def test_cocycle_identity(self):
        # c_{gh}(x) = c_g(x) + c_h(g^-1 x), exact rationals; the lhs goes
        # through the reduced product word (the full grid runs in the
        # acceptance suite)
        spec = wsplit_spec()
        small = list(ball(F2, 2))
        grid = list(ball(F2, 4))
        for g in small:
            gi = inv(g)
            for h in small:
                gh = mul(g, h)
                for x in grid:
                    lhs = cocycle_coeff(spec, gh, x)
                    rhs = cocycle_coeff(spec, g, x) + cocycle_coeff(
                        spec, h, mul(gi, x))
                    assert lhs == rhs


class TestWSplitNorm:
    def test_spot_values(self):
        spec = wsplit_spec()
        assert norm_sq(spec, w("a")).exact == Fraction(1, 100)
        assert norm_sq(spec, w("a b^-1 a")).exact == Fraction(5, 100)
        assert norm_sq(spec, w("a b^-1")).exact == Fraction(4, 100)
        assert norm_sq(spec, w("e")).exact == 0

    def test_oracle_spot(self):
        spec = wsplit_spec()
        assert norm_sq_bruteforce(spec, w("a b^-1"), 4).exact == Fraction(1, 25)

    def test_512_variant_against_oracle(self):
        spec = wsplit_spec(p_b="5/12")
        for g in ball(F2, 3):
            assert norm_sq(spec, g).exact == norm_sq_bruteforce(spec, g, 3).exact

    def test_multiplicity_scales(self):
        s1, s5 = wsplit_spec(), ActionSpec(
            F2, WSplit(Fraction(3, 5), Fraction(2, 5), Fraction(1, 2)),
            multiplicity=5, delta=Fraction(1, 3))
        g = w("a b^-1 a")
        assert norm_sq(s5, g).exact == 5 * norm_sq(s1, g).exact

    def test_inverse_symmetry(self):
        spec = wsplit_spec()
        for g in ball(F2, 5):
            assert norm_sq(spec, g).exact == norm_sq(spec, inv(g)).exact


class TestZSequenceNorm:
    def test_k1_bracket(self):
        nv = norm_sq(zseq_spec(), 1, tol=1e-9)
        assert 1 / 36 <= nv.upper and nv.lower <= 1 / 18

    def test_sandwich(self):
        # sum_{n<k} a_n^2 <= ||c_k||^2 <= 2 sum_{n<k} a_n^2
        spec = zseq_spec()
        for k in (1, 2, 5, 17, 100, 1000):
            lo = sum((1 / 36) / (j + 1) for j in range(k))
            nv = norm_sq(spec, k, tol=1e-6)
            assert nv.upper >= lo * (1 - 1e-12)
            assert nv.lower <= 2 * lo * (1 + 1e-12)

    def test_oracle_agreement(self):
        spec = zseq_spec()
        for k in (1, 3, 10, 25):
            nv = norm_sq(spec, k, tol=1e-6)
            ov = norm_sq_bruteforce(spec, k, 400)
            assert abs(nv.value - ov.value) <= nv.err + ov.err + 1e-12

    def test_inverse_symmetry(self):
        spec = zseq_spec()
        for k in range(1, 51):
            a, b = norm_sq(spec, k, tol=1e-6), norm_sq(spec, -k, tol=1e-6)
            assert abs(a.value - b.value) <= a.err + b.err + 1e-12

    def test_bad_tol(self):
        with pytest.raises(SpecError):
            norm_sq(zseq_spec(), 3, tol=0.0)


class TestBumpCocycle:
    def test_bump_layout(self):
        bc = BumpCocycle(1)
        # delta = 1/144: a_n = ceil(n^2/144) stays 1 until n = 13
        bc.ensure_bumps(20)
        assert list(bc._a[:5]) == [1, 1, 1, 1, 1]
        assert bc._a[13] == 2
        assert bc.h_exact(0) == 0
        assert bc.h_exact(1) == 1
        assert bc.h_exact(2) == 0
        assert bc.h_exact(3) == 1

    def test_gamma_lower_bound(self):
        for D in (Fraction(1, 2), Fraction(1), Fraction(36)):
            bc = BumpCocycle(D)
            for k in (1, 2, 7, 32, 128):
                lo, hi = bc.gamma_norm_sq_bounds(k)
                assert lo >= float(D) * k ** 1.5
                assert hi >= lo

    def test_gamma_pointwise_oracle(self):
        bc = BumpCocycle(Fraction(1, 2))
        for k in (1, 3, 10):
            lo, hi = bc.gamma_norm_sq_bounds(k)
            n_bumps = bc.default_bumps(k)
            bc.ensure_bumps(n_bumps)
            end = int(bc._b[n_bumps])
            brute = sum(
                (float(bc.h_exact(n)) - float(bc.h_exact(n - k))) ** 2
                for n in range(1, end)
            )
            assert lo <= brute * (1 + 1e-9) + 1e-12
            assert brute <= hi


@pytest.fixture(scope="module")
def spec():
    fam = SpecialCocycle(Fraction(1), Fraction(1, 2), Fraction(1, 4))
    return ActionSpec(F2, fam, delta=Fraction(1, 4))


class TestSpecialNorm:
    def test_oracle_agreement(self, spec):
        for text in ("a", "b^-1", "a b^-1", "a^2 b^-3", "a b a^-1"):
            g = w(text)
            nv = norm_sq(spec, g)
            ov = norm_sq_bruteforce(spec, g, 3000)
            assert abs(nv.value - ov.value) <= nv.err + ov.err

    def test_linear_growth(self, spec):
        from bernlab.groups import word_length

        D = float(spec.family.D)
        for g in ball(F2, 4):
            L = word_length(g)
            if L:
                assert norm_sq(spec, g).lower >= (D / 16) * L * (1 - 1e-9)


# rank-2 words of 1 to 4 syllables with exponents in [-6, 6]
words = st.tuples(st.integers(1, 2), st.lists(
    st.integers(-6, 6).filter(bool), min_size=1, max_size=4)).map(
    lambda t: Word(2, tuple((1 + (t[0] + i) % 2, e) for i, e in enumerate(t[1]))))

SPECIAL_SPECS = [ActionSpec(F2, SpecialCocycle(D, Fraction(1, 2), Fraction(1, 4)),
                            delta=Fraction(1, 4)) for D in (Fraction(1), Fraction(36))]


class TestSpecialWindow:
    """SpecialCocycle.window_values against the exact (Fraction, Word) values."""

    @settings(max_examples=80, deadline=None)
    @given(g=words, extent=st.integers(0, 64), which=st.integers(0, 1))
    @example(g=w("a"), extent=0, which=0)
    @example(g=w("a"), extent=3000, which=0)
    @example(g=w("a b a^-1"), extent=5, which=1)
    @example(g=w("b^2 a^-1 b^-2"), extent=1, which=0)
    @example(g=w("b^2 a^-1 b^-2"), extent=64, which=1)
    def test_exact_coordinates(self, g, extent, which):
        spec = SPECIAL_SPECS[which]
        fam = spec.family
        gi = inv(g)
        exact = [(fam.f(h), fam.f(mul(gi, h))) for h in fam.support(g, extent)]
        fh, fg = fam.window_values(g, extent)
        # the same multiset of points: a point counted twice or left out
        # changes the length; the evaluator rounds H before scaling it, so
        # the values agree with the exact ones to rounding
        assert len(fh) == len(fg) == len(exact)
        want = sorted((float(p), float(q)) for p, q in exact)
        got = sorted(zip(fh.tolist(), fg.tolist()))
        for (p, q), (a, b) in zip(want, got):
            assert a == pytest.approx(p, rel=1e-15) and b == pytest.approx(q, rel=1e-15)
        total = sum((p - q) ** 2 for p, q in exact)
        assert float(((fh - fg) ** 2).sum()) == pytest.approx(float(total), rel=1e-12)
        if extent >= word_length(g):
            ov = norm_sq_bruteforce(spec, g, extent)
            head = ov.value - fam.tail(g, extent) / 2
            assert head == pytest.approx(float(total), rel=1e-12)

    @pytest.mark.parametrize("text", ["a", "b^-1", "a b a^-1", "b^2 a^-1 b^-2"])
    def test_work_does_not_grow_with_radius(self, text, monkeypatch):
        # counted work, not time: group multiplications and Word constructions
        counts = Counter()
        real_mul = cocycles.mul

        def counting_mul(g, h):
            counts["mul"] += 1
            return real_mul(g, h)

        for mod in (cocycles, marginals):
            monkeypatch.setattr(mod, "mul", counting_mul)
        post_init = Word.__post_init__

        def counting_post_init(self):
            counts["word"] += 1
            post_init(self)

        monkeypatch.setattr(Word, "__post_init__", counting_post_init)
        spec = preset("f2-dissipative")
        g = w(text)
        seen = []
        for radius in (64, 2048):
            counts.clear()
            norm_sq_bruteforce(spec, g, radius)
            affinity_pairs(spec, g, radius)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert sum(seen[0].values()) <= 4 * (len(g.syls) + 1)


def fpw_spec():
    mu0, mu1 = measures_from_lambda(Fraction(2, 5))
    return ActionSpec(F2, FreeProductW(mu0, mu1), delta=Fraction(1, 5))


class TestBallOracle:
    @pytest.mark.parametrize("make", [wsplit_spec, fpw_spec])
    def test_sum_beyond_word_length_adds_nothing(self, make):
        # ball_norm_sq stops at |g|; summed out to |g| + 2 by hand, the
        # coordinates outside the ball of radius |g| contribute 0
        fam = make().family
        for g in ball(F2, 3):
            gi = inv(g)
            wide = sum((fam.f(h) - fam.f(mul(gi, h))) ** 2
                       for h in ball(F2, word_length(g) + 2))
            assert fam.ball_norm_sq(g, word_length(g)) == wide


Z_WINDOW = ([1, -3, 8, 40], [40, 64, 2000])
F2_WINDOW = (["a", "b^-1", "a b^-1", "b^2 a^-1 b", "a^-1 b a^2"], [0, 6])


class TestWindowFallback:
    """Families without `window_values` read the window from `value_pairs`."""

    @pytest.mark.parametrize("make,window", [
        (lambda: preset("explicit-z-sqrt6"), Z_WINDOW),
        (lambda: preset("explicit-z"), Z_WINDOW),
        (lambda: preset("f2-wsplit"), F2_WINDOW),
        (fpw_spec, F2_WINDOW),
    ])
    def test_affinity_pairs_match_sorted_value_pairs(self, make, window):
        spec = make()
        elements, extents = window
        for g in elements:
            g = w(g) if isinstance(g, str) else g
            for extent in extents:
                assert spec.family.window_values(inv(g), extent) is None
                want = [(float(p), float(q)) for _, p, q in value_pairs(spec, g, extent)]
                want.sort(key=lambda pq: abs(pq[0] - pq[1]), reverse=True)
                pairs, _ = affinity_pairs(spec, g, extent)
                assert pairs == want

    @pytest.mark.parametrize("name", ["explicit-z-sqrt6", "explicit-z", "folner-z"])
    def test_bruteforce_matches_sequential_sum(self, name):
        spec = preset(name, power=2)
        elements, radii = Z_WINDOW
        for k in elements:
            for radius in radii:
                total = 0.0
                for h in support_elements(spec, k, radius):
                    d = float(cocycle_coeff(spec, k, h))
                    total += d * d
                want = BoundedValue.from_truncation(
                    total, spec.family.tail(k, radius)).scaled(2)
                got = norm_sq_bruteforce(spec, k, radius)
                assert got.value == pytest.approx(want.value, rel=1e-14)
                assert got.err == pytest.approx(want.err, rel=1e-14)


class TestFolnerWindow:
    """FolnerInduced reads its window zone by zone from `window_values`."""

    @pytest.mark.parametrize("k", [*range(1, 10), *range(-9, 0),
                                   40, 514, -515, 1028, -1028])
    def test_window_values_match_f_value(self, k):
        # 2|k| > gap = 1028 merges the zones of neighbouring intervals
        spec = preset("folner-z")
        fam = spec.family
        points = None
        for extent in (0, 4096):
            support = list(fam.support(k, extent))
            if points != support:
                points = support
                want_h = np.array([f_value(spec, h) for h in points])
                want_g = np.array([f_value(spec, h - k) for h in points])
            f_h, f_g = fam.window_values(k, extent)
            assert len(f_h) == len(f_g) == len(points)
            assert np.array_equal(f_h, want_h) and np.array_equal(f_g, want_g)

    def test_affinity_pairs_match_sorted_value_pairs(self):
        spec = preset("folner-z")
        elements, extents = Z_WINDOW
        for g in elements:
            for extent in extents:
                want = [(float(p), float(q)) for _, p, q in value_pairs(spec, g, extent)]
                want.sort(key=lambda pq: abs(pq[0] - pq[1]), reverse=True)
                pairs, _ = affinity_pairs(spec, g, extent)
                assert pairs == want


@pytest.fixture(scope="module")
def fc():
    return build_folner(lambda k: math.log(1.0 + k), horizon=128, delta=0.5)


def quadratic_folner(phi, horizon, delta):
    """eps_sq, lengths, starts and values as the construction first wrote
    them: L_n is the largest of the n bounds over k <= n."""
    phi_sq = [0.0] + [phi(k) ** 2 for k in range(1, horizon + 1)]
    cap = (0.999 * delta) ** 2
    eps_sq = [0.0]
    for n in range(1, horizon + 1):
        prev = eps_sq[-1] if n > 1 else cap
        eps_sq.append(min(prev, max((phi_sq[n] - phi_sq[n - 1]) / 2.0, 0.0), cap))
    lengths = [0]
    for n in range(1, horizon + 1):
        need = 2
        for k in range(1, n + 1):
            s = abs(enum_z(k))
            bound = 2 * s * (1 << n) * (eps_sq[n] / eps_sq[k]) * (1 + 1e-9)
            need = max(need, int(math.ceil(bound)))
        lengths.append(need)
    gap = 4 * horizon + 4
    starts, pos = [], gap
    for n in range(1, horizon + 1):
        starts.append(pos)
        pos += lengths[n] + gap
    values = [0.0] + [math.sqrt(eps_sq[n]) / math.sqrt(float(lengths[n]))
                      for n in range(1, horizon + 1)]
    return eps_sq, lengths, starts, values


FOLNER_PHIS = {
    "log": (lambda k: math.log(1.0 + k), 0.5),
    "sqrt_log": (lambda k: math.sqrt(1 / 16 * math.log(1.0 + k)), 1 / 6),
}


class TestFolner:
    def test_norm_below_phi(self, fc):
        for k in range(1, 129):
            assert math.sqrt(fc.norm_sq_closed(enum_z(k))) <= math.log(1 + k)

    def test_conditions(self, fc):
        rep = fc.conditions_report()
        assert rep["sum_condition"] and rep["symmetric_difference_condition"]

    def test_f_codomain(self, fc):
        assert all(0 < v < 0.5 for v in fc.values[1:])
        assert fc.f(0) == 0.0
        assert fc.f(fc.starts[0]) == fc.values[1]

    @pytest.mark.parametrize("kind", sorted(FOLNER_PHIS))
    def test_linear_construction_equals_quadratic(self, kind):
        phi, delta = FOLNER_PHIS[kind]
        for horizon in (1, 2, 7, 64, 200, 256, 1000):
            got = build_folner(phi, horizon=horizon, delta=delta)
            eps_sq, lengths, starts, values = quadratic_folner(phi, horizon, delta)
            assert got.eps_sq == eps_sq
            assert got.lengths == lengths
            assert got.starts == starts
            assert got.values == values

    def test_construction_is_linear(self, monkeypatch):
        calls = Counter()

        def counted(k):
            calls["enum_z"] += 1
            return enum_z(k)

        monkeypatch.setattr(folner, "enum_z", counted)
        build_folner(lambda k: math.log(1.0 + k), horizon=1000, delta=0.5)
        assert 0 < calls["enum_z"] <= 1000 + 1

    def test_closed_norm_equals_sequential_sum(self):
        phi, delta = FOLNER_PHIS["sqrt_log"]
        c = build_folner(phi, horizon=256, delta=delta)
        for s in range(c.gap + 1):
            total = 0.0
            for n in range(1, c.horizon + 1):
                total += 2.0 * min(s, c.lengths[n]) * c.eps_sq[n] / c.lengths[n]
            assert c.norm_sq_closed(s) == total
            assert c.norm_sq_closed(-s) == total

    def test_largest_horizon(self):
        # |A_n| is about n 2^n, which passes the largest float at n = 1015
        assert make_folner_family(horizon=1014).cocycle.lengths[-1] < 2**1024
        with pytest.raises(SpecError, match="horizon 1015"):
            make_folner_family(horizon=1015)

    def test_closed_vs_oracle(self):
        fam = make_folner_family(phi_kind="sqrt_log", phi_scale=Fraction(1, 16),
                                 horizon=64, offset=Fraction(1, 2), delta_f=1 / 6)
        spec = ActionSpec(Integers(), fam, delta=Fraction(1, 3))
        for s in (1, 2, 7, 40, 150, 260):
            nv = norm_sq(spec, s)
            ov = norm_sq_bruteforce(spec, s, max(s, 8))
            assert abs(nv.value - ov.value) <= nv.err + ov.err + 1e-12


class TestSupport:
    def test_wsplit_support_covers_cocycle(self):
        spec = wsplit_spec()
        g = w("a b^-1")
        supp = set(support_elements(spec, g, 0))
        for h in ball(F2, 4):
            if cocycle_coeff(spec, g, h) != 0:
                assert h in supp

    def test_no_duplicates(self):
        fam = SpecialCocycle(Fraction(1), Fraction(1, 2), Fraction(1, 4))
        spec = ActionSpec(F2, fam, delta=Fraction(1, 4))
        pts = list(support_elements(spec, w("a b"), 50))
        assert len(pts) == len(set(pts))

    def test_radius_too_small(self):
        with pytest.raises(SpecError):
            norm_sq_bruteforce(wsplit_spec(), w("a b a"), 2)

    @pytest.mark.parametrize("make,elements,extent", [
        (wsplit_spec, ["a", "b^-1", "a b^-1", "a^2 b", "b a^-1 b^2"], 0),
        (lambda: ActionSpec(F2, SpecialCocycle(Fraction(1), Fraction(1, 2),
                                               Fraction(1, 4)),
                            delta=Fraction(1, 4)), ["a", "a b^-2"], 40),
        (zseq_spec, [1, -3, 8], 50),
    ])
    def test_value_pairs_are_the_nonzero_coordinates(self, make, elements, extent):
        spec = make()
        for g in elements:
            g = w(g) if isinstance(g, str) else g
            triples = list(value_pairs(spec, g, extent))
            assert triples and all(p != q for _, p, q in triples)
            # the window of c_{g^-1} with the coordinates where omega(g, .) = 1
            # taken out, in window order
            window = support_elements(spec, inv(g), extent)
            assert [h for h, _, _ in triples] == [
                h for h in window if cocycle_coeff(spec, inv(g), h) != 0]
