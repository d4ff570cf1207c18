import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernlab import bump, cocycles, folner, marginals
from bernlab.bump import BumpCocycle
from bernlab.cli import preset
from bernlab.cocycles import (
    affinity_pairs,
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
    format_element,
    inv,
    mul,
    parse_element,
    word_length,
)
from bernlab.marginals import (
    ActionSpec,
    FreeProductW,
    InvSqrt,
    SpecError,
    SpecialCocycle,
    WSplit,
    ZSequence,
    f_value,
    make_folner_family,
    measures_from_lambda,
)
from reference import cocycle_coeff

F2 = FreeGroup(2)


def w(text):
    return parse_element(F2, text)


def wsplit_spec(p_a="3/5", p_b="2/5", p_w="1/2"):
    return ActionSpec(F2, WSplit(Fraction(p_a), Fraction(p_b), Fraction(p_w)),
                      delta=Fraction(1, 3))


def zseq_spec(m=1):
    return ActionSpec(Integers(), ZSequence(Fraction(1, 2), 1, InvSqrt(Fraction(1, 6))),
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

    @pytest.mark.parametrize("D", [36, 3])
    def test_scalar_lookup_matches_the_int64_tables(self, D):
        # bump_index_at and h_exact read the bump table as Python ints,
        # h_float and the gamma brackets through its int64 views: every
        # position below 10^6 finds the same bump both ways, and H the same
        # value; the table grown bump by bump is a_n = ceil(delta n^2) and
        # b = the cumulative sum of 2a, as numpy makes them
        top = 10**6
        bc = BumpCocycle(D)
        bc._cover(top)
        a, b = bc._tables()
        n = np.arange(len(a))
        p, q = bc.delta.numerator, bc.delta.denominator
        assert a.tolist() == np.maximum((p * n * n + q - 1) // q, 1).tolist()
        assert b.tolist() == [0] + np.cumsum(2 * a).tolist() and b[-1] > top
        want = np.searchsorted(b, np.arange(top), side="right") - 1
        del a, b  # a view pins the table
        assert list(map(bc.bump_index_at, range(top))) == want.tolist()
        m = np.arange(-3, 20000)
        assert [float(bc.h_exact(int(i))) for i in m] == bc.h_float(m).tolist()

    def test_refused_bumps_leave_the_arrays_as_they_were(self):
        # the head of a^(2^20) at D = 36 fits the budget; past it, or where
        # a_n or b_n would wrap in int64 (delta = p/q with p near 1.44e16),
        # ensure_bumps raises before it allocates
        bc = BumpCocycle(36)
        assert bc._head_end(2**20) <= bump._MAX_BUMPS
        bc.ensure_bumps(8)
        with pytest.raises(SpecError, match="budget"):
            bc.ensure_bumps(bump._MAX_BUMPS + 1)
        assert len(bc._a) == 8 and len(bc._b) == 9
        wide = BumpCocycle(Fraction(10000019, 120000227))
        wide.ensure_bumps(26)
        assert int(wide._a[25]) == -(-wide.delta.numerator * 25**2
                                     // wide.delta.denominator)
        with pytest.raises(SpecError, match="64-bit"):
            wide.ensure_bumps(27)
        assert len(wide._a) == 26
        # delta = 1: a_n = n^2 fits, but b_N, about 2 N^3 / 3, would wrap
        with pytest.raises(SpecError, match="64-bit"):
            BumpCocycle(Fraction(1, 12)).ensure_bumps(3_000_000)

    @pytest.mark.parametrize("pos", [10**20, 2**60 + 3])
    def test_far_position_refused_before_allocating(self, pos):
        # the bump count was doubled until b_N passed the position, so the
        # 2^21 and 2^22 tables were built before the 2^23 step was refused
        bc = BumpCocycle(36)
        bc.ensure_bumps(8)
        with pytest.raises(SpecError, match="needs at least") as info:
            bc.h_exact(pos)
        assert len(bc._a) == 8 and len(bc._b) == 9
        # the count named is the first N whose bound on b_N passes pos
        need = int(str(info.value).split("at least ")[1].split()[0])
        d = bc.delta

        def b_bound(N):
            return d * (N - 1) * N * (2 * N - 1) / 3 + 2 * N

        assert need > bump._MAX_BUMPS
        assert b_bound(need - 1) <= pos < b_bound(need)

    def test_gamma_lower_bound(self):
        for D in (Fraction(1, 2), Fraction(1), Fraction(36)):
            bc = BumpCocycle(D)
            for k in (1, 2, 7, 32, 128):
                lo, hi = bc.gamma_norm_sq_bounds(k)
                assert lo >= float(D) * k ** 1.5
                assert hi >= lo

    @staticmethod
    def old_default_bumps(bc, k):
        # the fixed bump count the brackets were summed to before they took
        # a tol
        n0 = math.isqrt(math.ceil(2 * k / bc.delta)) + 1
        return max(64, 4 * n0)

    def test_gamma_pointwise_oracle(self):
        # a brute-force sum over the first N bumps is a lower bound, and the
        # one-sided tail_bound past them an upper one
        bc = BumpCocycle(Fraction(1, 2))
        for k in (1, 3, 10):
            lo, hi = bc.gamma_norm_sq_bounds(k, 1e-6)
            assert hi - lo <= 2e-6
            n_bumps = self.old_default_bumps(bc, k)
            bc.ensure_bumps(n_bumps)
            end = int(bc._b[n_bumps])
            brute = sum(
                (float(bc.h_exact(n)) - float(bc.h_exact(n - k))) ** 2
                for n in range(1, end)
            )
            assert brute <= hi
            assert lo <= brute * (1 + 1e-9) + bc.tail_bound(k, n_bumps - 1)

    # brackets of the program when it summed a fixed number of bumps and took
    # the one-sided tail_bound as its upper margin
    PINNED_GAMMA = {
        12: [(486.555621638887, 537.7697646863767),
             (627.9155400766322, 772.4120818842507),
             (1373.0855093783377, 1639.1809017029996),
             (1595.2433592870743, 2004.4485761870349),
             (2538.5521386793066, 3110.559207591848),
             (2965.566182536518, 3718.213288951748)],
        36: [(1456.5239569621313, 1610.1663860943145),
             (1882.4642370698753, 2316.4604836958197),
             (4118.495280728185, 4916.019476203611),
             (4777.587452498904, 6006.218526702329),
             (7615.7469694392885, 9331.768176173095),
             (8892.551247046636, 11148.968111174487)],
    }

    @pytest.mark.parametrize("D", [12, 36])
    def test_gamma_pointwise_oracle_pinned(self, D):
        # each bracket at tol 1e-6 lies inside the old, wider one, and a
        # brute-force sum over the old number of bumps stays below it
        bc = BumpCocycle(D)
        for k, (old_lo, old_hi) in enumerate(self.PINNED_GAMMA[D], start=1):
            lo, hi = bc.gamma_norm_sq_bounds(k, 1e-6)
            assert hi - lo <= 2e-6
            assert old_lo * (1 - 1e-12) <= lo and hi <= old_hi
            n_bumps = self.old_default_bumps(bc, k)
            bc.ensure_bumps(n_bumps)
            n = np.arange(1, int(bc._b[n_bumps]))
            brute = math.fsum((bc.h_float(n) - bc.h_float(n - k)) ** 2)
            assert brute <= hi

    # _remainder(k, N) at the N each tol-1e-6 bracket of the pinned grid ends
    # at, from the program whose midpoint and trapezoid sums were written out
    # in `_remainder` itself, before `exact.convex_sum` took them over
    PINNED_REMAINDER = {
        12: [(65537, ("0x1.43ff3bd460078p-1", "0x1.43ff5e008abeap-1", "0x1.43ff9142155c3p-47")),
             (98450, ("0x1.af5c659c01a89p+0", "0x1.af5c79c545babp+0", "0x1.af5cc55f25a52p-46")),
             (131277, ("0x1.6bee895c7a1c4p+1", "0x1.6bee92ed78da6p+1", "0x1.6beec89a784e4p-45")),
             (164091, ("0x1.02cdd7c4f876dp+2", "0x1.02cddc1fa3969p+2", "0x1.02cdfc3bfac6fp-44")),
             (164130, ("0x1.9449032b80dedp+2", "0x1.944909f7eee94p+2", "0x1.944947d52f376p-44")),
             (196931, ("0x1.e53424d9d0e4dp+2", "0x1.e5342a84b920bp+2", "0x1.e53467c1f1677p-44"))],
        36: [(262145, ("0x1.6c7fbcd035e8cp+0", "0x1.6c7fd270101d2p+0", "0x1.6c7ff2dfc51a4p-46")),
             (393650, ("0x1.e576e39fb2826p+1", "0x1.e576f065652cfp+1", "0x1.e577204aaba8cp-45")),
             (492132, ("0x1.b4db2f9b23492p+2", "0x1.b4db36f5af2d0p+2", "0x1.b4db6038c94c1p-44")),
             (590574, ("0x1.4396af0124977p+3", "0x1.4396b2c9741a9p+3", "0x1.4396ceaeb21d3p-43")),
             (688994, ("0x1.b1621c0b422f5p+3", "0x1.b1621fc4143b0p+3", "0x1.b16241a2b0728p-43")),
             (787399, ("0x1.110a102baf446p+4", "0x1.110a11f74faa1p+4", "0x1.110a255dcce8cp-42"))],
    }

    @pytest.mark.parametrize("D", [12, 36])
    def test_remainder_bit_identical_on_the_pinned_grid(self, D):
        bc = BumpCocycle(D)
        for k, (N, want) in enumerate(self.PINNED_REMAINDER[D], start=1):
            bc.gamma_norm_sq_bounds(k, 1e-6)
            memo = bc._gamma_cache[k]
            assert memo.n_k + len(memo.chunks) * bump._CHUNK == N
            assert tuple(x.hex() for x in bc._remainder(k, N)) == want

    def test_gamma_brackets_table_only_the_head(self):
        # the bumps past the narrow head are made from n chunk by chunk
        for D, k in ((36, 1), (36, 3), (12, 40), (Fraction(1, 20), 7)):
            bc = BumpCocycle(D)
            bc.gamma_norm_sq_bounds(k, 1e-6)
            assert len(bc._a) == bc._head_end(k)
            assert len(bc._gamma_cache[k].chunks) >= 1

    def test_gamma_bracket_depends_on_k_and_tol_alone(self):
        # a looser request after a tighter one gets the bracket a fresh
        # instance gives, from the chunk sums already made
        fresh = {tol: BumpCocycle(36).gamma_norm_sq_bounds(2, tol)
                 for tol in (math.inf, 1e-3, 1e-7, 1e-9)}
        bc = BumpCocycle(36)
        assert bc.gamma_norm_sq_bounds(2, 1e-7) == fresh[1e-7]
        chunks = list(bc._gamma_cache[2].chunks)
        assert bc.gamma_norm_sq_bounds(2, 1e-3) == fresh[1e-3]
        assert bc.gamma_norm_sq_bounds(2) == fresh[math.inf]
        assert bc.gamma_norm_sq_bounds(2, 1e-7) == fresh[1e-7]
        assert bc._gamma_cache[2].chunks == chunks
        # a tighter one sums on past the last chunk, inside the looser bracket
        lo, hi = bc.gamma_norm_sq_bounds(2, 1e-9)
        assert (lo, hi) == fresh[1e-9]
        assert bc._gamma_cache[2].chunks[:len(chunks)] == chunks
        assert fresh[1e-7][0] <= lo <= hi <= fresh[1e-7][1] and hi - lo <= 2e-9

    def test_gamma_budget_miss_returns_the_bracket_reached(self, monkeypatch):
        true_lo, true_hi = BumpCocycle(36).gamma_norm_sq_bounds(3, 1e-6)
        monkeypatch.setattr(bump, "_CHUNK", 256)
        monkeypatch.setattr(bump, "_MAX_TERMS", 2048)
        bc = BumpCocycle(36)
        first = bc.gamma_norm_sq_bounds(3)
        lo, hi = bc.gamma_norm_sq_bounds(3, 1e-9)
        assert len(bc._gamma_cache[3].chunks) == 8
        assert 2e-9 < hi - lo < first[1] - first[0]
        assert lo <= true_lo <= true_hi <= hi

    @staticmethod
    def exact_bump_shares(bc, k, N):
        """The exact share of each of the first N bumps in
        sum_{1 <= m < b_N} (H(m) - H(m-k))^2, as Fractions, position by
        position: H(m) = p/a and H(m-k) = p'/a' with integer numerators, and
        each run of positions of one bump whose m - k lies in one bump adds
        its integer sums of p^2, p p' and p'^2. h_exact checks the two
        fractions at the first position of every run."""
        bc.ensure_bumps(N)
        a_all, b_all = np.array(bc._a[:N]), np.array(bc._b[: N + 1])
        shares = []
        for n in range(N):
            a, b = int(a_all[n]), int(b_all[n])
            j = np.arange(2 * a, dtype=np.int64)
            p = np.minimum(j, 2 * a - j)
            # m - k = s lies in bump i at offset s - b_i; H(s) = 0 for s <= 0
            s = b + j - k
            i = np.maximum(np.searchsorted(b_all, s, side="right") - 1, 0)
            a2, off = a_all[i], s - b_all[i]
            q = np.where(s <= 0, 0, np.minimum(off, 2 * a2 - off))
            starts = np.flatnonzero(np.diff(i, prepend=-1))
            sums = [np.add.reduceat(v, starts) for v in (p * p, p * q, q * q)]
            share = Fraction(0)
            for r, st in enumerate(starts.tolist()):
                a1 = int(a2[st])
                assert Fraction(int(p[st]), a) == bc.h_exact(b + st)
                assert Fraction(int(q[st]), a1) == bc.h_exact(b + st - k)
                pp, pq, qq = (int(v[r]) for v in sums)
                share += Fraction(pp * a1 * a1 - 2 * pq * a * a1 + qq * a * a,
                                  (a * a1) ** 2)
            shares.append(share)
        return shares

    @classmethod
    def exact_partial_sum(cls, bc, k, N):
        return sum(cls.exact_bump_shares(bc, k, N), Fraction(0))

    @pytest.mark.parametrize("D", [Fraction(1, 20), Fraction(1, 3), 1, 2])
    def test_partial_sum_matches_exact(self, D):
        # the narrow head by breakpoints and the bumps past it by f_k, against
        # the exact sum over every position of the first 150 bumps. D = 1/20
        # gives delta = 1, a_n = n^2, whose steps exceed 1 and whose heads are
        # narrower than k (n_k = 8 at k = 40)
        bc = BumpCocycle(D)
        for k in (1, 2, 3, 5, 8, 17, 40):
            exact = self.exact_partial_sum(bc, k, 150)
            n_k = min(bc._head_end(k), 150)
            G = bc._head_sum(k, n_k) + math.fsum(bc._pass_sums(k, n_k, 150))
            assert G == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("D", [Fraction(1, 20), Fraction(1, 3), 1, 2])
    def test_head_across_chunks_matches_exact(self, D, monkeypatch):
        # chunks of 7 bumps put chunk boundaries inside the head, where the
        # breakpoints of H(m - k) that fall in a chunk come from bumps of
        # earlier chunks; a breakpoint dropped or counted twice at a boundary
        # moves the sum by a whole segment
        monkeypatch.setattr(bump, "_CHUNK", 7)
        bc = BumpCocycle(D)
        for k in (1, 2, 5, 17, 40):
            for N in (1, 6, 7, 8, 14, 15, 60):
                exact = self.exact_partial_sum(bc, k, N)
                assert bc._head_sum(k, N) == pytest.approx(float(exact), rel=1e-12)

    # G_{n_k} as hex floats from a merge of the whole head at once: these
    # heads fit in one chunk, so the chunked sum must give the same floats
    HEADS = {12: {1: "0x1.0000000000000p+0", 2: "0x1.2000000000000p+1",
                  3: "0x1.5d71c71c71c72p+8", 6: "0x1.20560b60b60b7p+8",
                  40: "0x1.274db7df2f5a8p+12", 1000: "0x1.269e6d6d274a5p+19"},
             36: {1: "0x1.0000000000000p+0", 2: "0x1.2000000000000p+1",
                  3: "0x1.051c71c71c71cp+10", 6: "0x1.adb7d27d27d28p+9",
                  40: "0x1.b59147a2452e2p+13", 1000: "0x1.b9908132f7d8bp+20"}}

    @pytest.mark.parametrize("D", [12, 36])
    def test_head_pinned(self, D):
        bc = BumpCocycle(D)
        for k, head in self.HEADS[D].items():
            assert bc._head_sum(k, bc._head_end(k)).hex() == head

    def test_head_memory_is_bounded_by_a_chunk(self):
        # k = 2^20 at D = 36 has a head of 442,369 bumps, whose breakpoints
        # merged at once take about 290 MB of numpy arrays
        import tracemalloc

        bc = BumpCocycle(36)
        k = 2**20
        n_k = bc._head_end(k)
        bc.ensure_bumps(n_k)
        tracemalloc.start()
        try:
            head = bc._head_sum(k, n_k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert head == pytest.approx(61392025538.2863, rel=1e-14)

    # delta = 1/144, 1/36 and 1
    @settings(max_examples=40, deadline=None)
    @given(D=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 12)]),
           k=st.integers(1, 12), tol=st.sampled_from([math.inf, 0.1, 0.01]),
           extra=st.integers(1, 40))
    @example(D=Fraction(1), k=12, tol=0.01, extra=40)
    @example(D=Fraction(1, 12), k=1, tol=math.inf, extra=1)
    def test_gamma_bracket_holds_the_exact_sum_and_its_remainder(
            self, D, k, tol, extra):
        # past the explicit range N2, the exact sum over the first N bumps
        # plus the remainder's bounds past N is a bracket nested in the one
        # returned: a remainder bound on the wrong side, or a partial sum that
        # drops or repeats a bump, leaves it
        bc = BumpCocycle(D)
        # short chunks keep the explicit range, and so the exact sums, small
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bump, "_CHUNK", 8)
            lo, hi = bc.gamma_norm_sq_bounds(k, tol)
        memo = bc._gamma_cache[k]
        N2 = memo.n_k + 8 * len(memo.chunks)
        shares = self.exact_bump_shares(bc, k, N2 + 2 * extra)
        for N in (N2, N2 + 1, N2 + extra, N2 + 2 * extra):
            exact = float(sum(shares[:N], Fraction(0)))
            r_lo, r_hi, r = bc._remainder(k, N)
            slack = r + 4 * bump._U * exact
            assert lo <= exact + max(r_lo, 0.0) + slack
            assert exact + r_hi - slack <= hi


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

    @pytest.mark.parametrize("name", ["f2-dissipative", "f2-dissipative(12)"])
    def test_norm_meets_tol_on_the_ball(self, name):
        # the bracket was 5-12% wide whatever tol was asked for
        spec = preset(name)
        grid = [g for g in ball(spec.group, 3) if word_length(g)]
        for tol in (1e-3, 1e-6, 1e-9):
            for g in grid:
                nv = norm_sq(spec, g, tol=tol)
                assert nv.err <= tol, (format_element(g), tol, nv.err)

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


def prefix_sweep(g, extent):
    """Every point of the axis windows |n| <= extent through every prefix of
    g, in both generators, each once: the reference for SpecialCocycle's
    runs, which hold the points of this sweep where c_g can be nonzero."""
    seen = set()
    prefixes = [Word(2, ())]
    for j in range(len(g.syls)):
        prefixes.append(Word(2, g.syls[: j + 1]))
    for p in prefixes:
        for gen in (1, 2):
            for n in range(-extent, extent + 1):
                if n == 0:
                    h = p
                else:
                    h = mul(p, Word(2, ((gen, n),)))
                if h not in seen:
                    seen.add(h)
                    yield h


def special_float_f(fam, h):
    """F(h) in floats by the evaluator's one formula, base + (+-scale) H(e)
    for h ending in a syllable (x, e), the identity as (a, 0)."""
    x, e = h.syls[-1] if h.syls else (1, 0)
    c = float(fam.scale) if x == 1 else -float(fam.scale)
    return float(fam.base) + c * float(fam.bc.h_exact(e))


# rank-2 words of 1 to 5 syllables with exponents in [-300, 300]
long_words = st.tuples(st.integers(1, 2), st.lists(
    st.integers(-300, 300).filter(bool), min_size=1, max_size=5)).map(
    lambda t: Word(2, tuple((1 + (t[0] + i) % 2, e) for i, e in enumerate(t[1]))))


class TestSpecialWindow:
    """SpecialCocycle.window_values against the exact (Fraction, Word) values."""

    @settings(max_examples=30, deadline=None)
    @given(g=long_words, extent=st.integers(0, 2048), which=st.integers(0, 1))
    @example(g=w("a"), extent=0, which=0)
    @example(g=w("b^-300 a^300"), extent=2048, which=1)
    # exponents past 2 extent + 1: each line's two windows stay apart
    @example(g=w("a^-300 b^300 a^7 b^-1 a^2"), extent=100, which=0)
    def test_runs_match_the_prefix_sweep(self, g, extent, which):
        # c_g is 0 exactly at every sweep point the runs leave out, and the
        # window holds the sweep's other points with F(h) != F(g^-1 h), bit
        # for bit, grouped by axis line in the order the sweep first meets
        # each line and ascending along it (a point is on the line of its
        # last syllable, the identity on that of a)
        spec = SPECIAL_SPECS[which]
        fam = spec.family
        gi = inv(g)
        support = set(fam.support(g, extent))
        lines, kept = {}, []
        for h in prefix_sweep(g, extent):
            x, m = h.syls[-1] if h.syls else (1, 0)
            line = lines.setdefault((h.syls[:-1], x), len(lines))
            if h not in support:
                assert fam.f(h) == fam.f(mul(gi, h)), format_element(h)
            p, q = special_float_f(fam, h), special_float_f(fam, mul(gi, h))
            if p != q:
                kept.append((line, m, p, q))
        kept.sort()
        p, q = cocycles._window(spec, g, extent)
        assert p.tolist() == [r[2] for r in kept]
        assert q.tolist() == [r[3] for r in kept]

    @settings(max_examples=80, deadline=None)
    @given(g=words, extent=st.integers(0, 64), which=st.integers(0, 1))
    @example(g=w("a"), extent=0, which=0)
    @example(g=w("a"), extent=3000, which=0)
    @example(g=w("a b a^-1"), extent=5, which=1)
    @example(g=w("b^2 a^-1 b^-2"), extent=1, which=0)
    @example(g=w("b^2 a^-1 b^-2"), extent=64, which=1)
    # the H table's top index is reached by m (first) and by t + m (second)
    @example(g=w("b^3 a^-2 b a^5"), extent=2048, which=0)
    @example(g=w("b^-3 a^2 b^-1 a^-5"), extent=2048, which=1)
    def test_exact_coordinates(self, g, extent, which):
        spec = SPECIAL_SPECS[which]
        fam = spec.family
        gi = inv(g)
        points = list(fam.support(g, extent))
        assert len(set(points)) == len(points)
        exact = [(fam.f(h), fam.f(mul(gi, h))) for h in points]
        fh, fg = fam.window_values(g, extent)
        # support and window_values read the same runs: point by point, in
        # support's order; the evaluator rounds H before scaling it, so the
        # values agree with the exact ones to rounding
        assert len(fh) == len(fg) == len(exact)
        got = zip(fh.tolist(), fg.tolist())
        for (p, q), (a, b) in zip(exact, got):
            assert a == pytest.approx(p, rel=1e-15) and b == pytest.approx(q, rel=1e-15)
        total = sum((p - q) ** 2 for p, q in exact)
        assert float(((fh - fg) ** 2).sum()) == pytest.approx(float(total), rel=1e-12)
        if extent >= word_length(g):
            ov = norm_sq_bruteforce(spec, g, extent)
            head = ov.value - fam.tail(g, extent) / 2
            assert head == pytest.approx(float(total), rel=1e-12)

    def test_window_allocates_only_its_outputs(self):
        # each run is written into its slice of the outputs: window-sized
        # temporaries would show as a traced peak of several times the outputs
        import tracemalloc

        fam = preset("f2-dissipative").family
        g = w("b^2 a^-1 b^-2 a^7")
        fam.window_values(g, 2048)  # the H table and the bump memo are filled
        tracemalloc.start()
        try:
            fh, fg = fam.window_values(g, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the identity, then lines of 2050, 2049, 2050 and 2055 points
        assert fh.size == 8205
        assert peak < 1.25 * (fh.nbytes + fg.nbytes)

    def test_window_builds_the_syllable_lines_only(self):
        # line j holds m in [min(0, e_j), max(0, e_j) + extent], less its
        # m = 0 point past the first line: 2^20 + 2 and 2^21 + 6 points,
        # where the lines through every prefix in both generators built
        # 6,291,458 and 8,388,614
        fam = preset("f2-dissipative").family
        for text, size in (("a", 2**20 + 2), ("a^2 b^3", 2**21 + 6)):
            fh, fg = fam.window_values(w(text), 2**20)
            assert fh.size == fg.size == size

    @pytest.mark.parametrize("text", ["a", "b^-1", "a b a^-1", "b^2 a^-1 b^-2"])
    def test_work_does_not_grow_with_radius(self, text, monkeypatch):
        # counted work, not time: group multiplications, Word constructions
        # and the runs the windows are written in
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
        real_runs = SpecialCocycle._runs

        def counting_runs(self, g, extent):
            runs = real_runs(self, g, extent)
            counts["run"] += len(runs)
            return runs

        monkeypatch.setattr(SpecialCocycle, "_runs", counting_runs)
        spec = preset("f2-dissipative")
        g = w(text)
        seen = []
        for radius in (64, 2048):
            counts.clear()
            norm_sq_bruteforce(spec, g, radius)
            affinity_pairs(spec, g, radius)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        # two windows, each of at most the identity and three runs per line
        # of g: its two spans, one of them split at m = 0
        assert set(seen[0]) == {"run"}
        assert seen[0]["run"] <= 2 * (3 * len(g.syls) + 1)


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

    @pytest.mark.parametrize("make", [wsplit_spec, fpw_spec])
    def test_nonzero_only_at_prefixes_in_ball_order(self, make):
        # the fact a prefix support would rest on: on the ball of radius |g|,
        # c_g(h) != 0 only where h is a prefix of g, and `support` meets
        # those prefixes in ball order, shortest first
        spec = make()
        longest = 0
        for g in ball(F2, 4):
            prefixes = [w("")]
            for gen, exp in g.syls:
                letter = Word(2, ((gen, 1 if exp > 0 else -1),))
                for _ in range(abs(exp)):
                    prefixes.append(mul(prefixes[-1], letter))
            nonzero = [h for h in support_elements(spec, g, word_length(g))
                       if cocycle_coeff(spec, g, h) != 0]
            assert set(nonzero) <= set(prefixes), format_element(g)
            assert nonzero == [h for h in prefixes if h in nonzero], format_element(g)
            longest = max(longest, len(nonzero))
        assert longest >= 3  # the order is checked on more than one prefix


class TestFreeProductWNorm:
    @pytest.mark.parametrize("rank, radius", [(2, 4), (3, 3)])
    def test_closed_form_equals_ball_sum(self, rank, radius):
        mu0, mu1 = measures_from_lambda(Fraction(2, 5))
        for d in range(1, rank + 1):
            spec = ActionSpec(FreeGroup(rank), FreeProductW(mu0, mu1, d),
                              delta=Fraction(1, 5))
            for g in ball(FreeGroup(rank), radius):
                want = spec.family.ball_norm_sq(g, word_length(g))
                assert norm_sq(spec, g).exact == want, (d, format_element(g))

    def test_is_wsplit_with_beta_zero(self):
        spec = ActionSpec(F2, WSplit(Fraction(3, 5), Fraction(1, 2), Fraction(1, 2)),
                          delta=Fraction(1, 3))
        fpw = ActionSpec(F2, FreeProductW(marginals.BaseMeasure((Fraction(1, 2),) * 2),
                                          marginals.BaseMeasure((Fraction(3, 5),
                                                                 Fraction(2, 5)))),
                         delta=Fraction(1, 3))
        for g in ball(F2, 4):
            assert norm_sq(fpw, g).exact == norm_sq(spec, g).exact


def blocks(g):
    """A reduced word's blocks: its descending pairs x^e y^f (e >= 1,
    f <= -1) and its other syllables, left to right."""
    syls, out, i = g.syls, [], 0
    while i < len(syls):
        step = 2 if i + 1 < len(syls) and syls[i][1] >= 1 and syls[i + 1][1] <= -1 else 1
        out.append(Word(g.rank, syls[i:i + step]))
        i += step
    return out


BLOCK_SPECS = {
    "f2-wsplit": lambda: wsplit_spec(),
    "f2-wsplit-512": lambda: wsplit_spec(p_b="5/12"),
    "wsplit-negative-cross": lambda: wsplit_spec(p_a="9/20"),
    "f2-dissipative": lambda: preset("f2-dissipative"),
    "f2-dissipative(3)": lambda: preset("f2-dissipative(3)", power=2),
    "fpw-F2": fpw_spec,
    "fpw-F3-c": lambda: ActionSpec(FreeGroup(3), FreeProductW(
        *measures_from_lambda(Fraction(2, 5)), 3), delta=Fraction(1, 5)),
}


@pytest.mark.parametrize("name", list(BLOCK_SPECS))
@settings(max_examples=60, deadline=None)
@given(syls=st.lists(st.tuples(st.integers(1, 3), st.integers(-5, 5).filter(bool)),
                     max_size=7))
def test_norm_is_additive_over_blocks(name, syls):
    spec = BLOCK_SPECS[name]()
    rank = spec.group.rank
    g = Word(rank, ())
    for gen, e in syls:
        g = mul(g, Word(rank, ((min(gen, rank), e),)))
    parts = [norm_sq(spec, b) for b in blocks(g)]
    whole = norm_sq(spec, g)
    assert all(p.upper >= 0 for p in parts)
    if whole.exact is not None:
        assert sum((p.exact for p in parts), Fraction(0)) == whole.exact
    else:
        lo, hi = sum(p.lower for p in parts), sum(p.upper for p in parts)
        slack = 1e-12 * (1.0 + hi)
        assert lo <= whole.upper + slack and whole.lower <= hi + slack
        assert whole.value == pytest.approx(sum(p.value for p in parts), rel=1e-12)


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
