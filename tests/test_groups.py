import random

import pytest
from hypothesis import given, strategies as st

from bernlab.groups import (
    FreeGroup,
    GroupError,
    Integers,
    Word,
    ball,
    format_element,
    inv,
    mul,
    parse_element,
    reduce_letters,
    sphere,
    word_length,
)

F2 = FreeGroup(2)
Z = Integers()


def w(text):
    return parse_element(F2, text)


class TestReduction:
    def test_cancellation(self):
        assert mul(w("a"), w("a^-1")) == w("e")
        assert mul(w("a b"), w("b^-1 a")) == w("a^2")

    def test_parse_format_roundtrip(self):
        for text in ("e", "a", "a b^-1 a^2", "b^-3 a b"):
            assert format_element(w(text)) == text if text != "e" else True
            assert parse_element(F2, format_element(w(text))) == w(text)

    @staticmethod
    def letter_parse(rank, text):
        """The reference parse: every syllable expanded into its letters,
        then freely reduced."""
        letters = []
        for tok in text.split():
            name, _, exp = tok.partition("^")
            exp = int(exp) if exp else 1
            letters.extend([("abc".index(name) + 1, 1 if exp > 0 else -1)] * abs(exp))
        return reduce_letters(letters, rank)

    def test_parse_matches_letter_expansion(self):
        rng = random.Random(18)
        texts = ["a^3 a^-3 b", "a^0", "a^0 b^0", "b a^2 a^-2 b^-1", "a^5 b^0 a^-5",
                 "a b b^-1 a^-1 a", "c^-50 c^50", "a^50 a^-49 a^-1 b"]
        for _ in range(500):
            texts.append(" ".join(f"{rng.choice('abc')}^{rng.randint(-50, 50)}"
                                  for _ in range(rng.randint(1, 8))))
        for text in texts:
            assert parse_element(FreeGroup(3), text) == self.letter_parse(3, text), text

    def test_parse_huge_exponent(self):
        # each syllable is folded in whole, so the exponent's size costs nothing
        assert w("a^99999999999 b^-3 b^3").syls == ((1, 99999999999),)

    def test_unreduced_word_rejected(self):
        with pytest.raises(GroupError):
            Word(2, ((1, 1), (1, 2)))
        with pytest.raises(GroupError):
            Word(2, ((1, 0),))

    @given(st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, -1])),
                    max_size=30))
    def test_reduce_idempotent(self, letters):
        word = reduce_letters(letters, 2)
        relet = [(g, 1 if e > 0 else -1)
                 for g, e in word.syls for _ in range(abs(e))]
        assert reduce_letters(relet, 2) == word

    @given(st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, -1])),
                    max_size=20),
           st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, -1])),
                    max_size=20))
    def test_mul_inv_identity(self, la, lb):
        g, h = reduce_letters(la, 2), reduce_letters(lb, 2)
        assert mul(g, inv(g)) == Word(2, ())
        assert inv(mul(g, h)) == mul(inv(h), inv(g))

    def test_rank_needs_a_letter_per_generator(self):
        assert format_element(Word(26, ((26, -1),))) == "z^-1"
        with pytest.raises(GroupError, match="rank must be <= 26"):
            FreeGroup(27)


def letters_of(syls):
    return [(gen, 1 if exp > 0 else -1) for gen, exp in syls for _ in range(abs(exp))]


syllables3 = st.lists(st.tuples(st.integers(1, 3), st.integers(-6, 6).filter(bool)),
                      max_size=8)


def word3(syls):
    """The reduced rank-3 word of a syllable list that may repeat generators."""
    return reduce_letters(letters_of(syls), 3)


class TestJunctionMul:
    """`mul` walks only the junction of two reduced words; the reference is
    the letter-by-letter reduction of the concatenation."""

    @staticmethod
    def check(g, h):
        r = mul(g, h)
        assert r == reduce_letters(letters_of(g.syls) + letters_of(h.syls), 3)
        assert r == Word(3, r.syls)  # the invariants hold without the check
        assert inv(r) == Word(3, inv(r).syls)
        return r

    @given(syllables3, syllables3)
    def test_matches_letter_reduction(self, a, b):
        self.check(word3(a), word3(b))

    @given(syllables3, st.integers(0, 8), st.integers(-6, 6), syllables3)
    def test_cancelling_suffix(self, a, cut, shift, b):
        # h starts with the inverse of a suffix of g, so the junction cancels
        # fully or partly; `shift` changes the next exponent to leave a merged
        # syllable
        g = word3(a)
        cut = min(cut, len(g.syls))
        suffix = Word(3, g.syls[len(g.syls) - cut:])
        head = inv(suffix).syls
        if head and shift and head[-1][1] + shift:
            head = head[:-1] + ((head[-1][0], head[-1][1] + shift),)
        h = mul(Word(3, head), word3(b))
        r = self.check(g, h)
        if not shift:
            assert r == mul(Word(3, g.syls[:len(g.syls) - cut]), word3(b))

    @given(syllables3)
    def test_inv_is_valid(self, a):
        g = word3(a)
        r = inv(g)
        assert r == Word(3, r.syls)
        want = [(gen, -sign) for gen, sign in reversed(letters_of(g.syls))]
        assert letters_of(r.syls) == want

    def test_errors_stay(self):
        with pytest.raises(GroupError, match="different groups"):
            mul(w("a"), 3)
        with pytest.raises(GroupError, match="different groups"):
            mul(3, w("a"))
        with pytest.raises(GroupError, match="rank mismatch"):
            mul(w("a"), Word(3, ((1, 1),)))

    @staticmethod
    def count_validations(monkeypatch):
        counts = []
        post_init = Word.__post_init__

        def counting_post_init(self):
            counts.append(1)
            post_init(self)

        monkeypatch.setattr(Word, "__post_init__", counting_post_init)
        return counts

    def test_products_make_no_validations(self, monkeypatch):
        elems = list(ball(F2, 3))
        counts = self.count_validations(monkeypatch)
        for g in elems:
            for h in elems:
                mul(inv(g), mul(g, h))
        assert not counts

    def test_value_pairs_make_no_validations(self, monkeypatch):
        from bernlab.cli import preset
        from bernlab.cocycles import value_pairs

        spec = preset("f2-wsplit")
        g = w("a b^-1 a^2")
        counts = self.count_validations(monkeypatch)
        pairs = list(value_pairs(spec, g, 4))
        assert pairs and not counts


class TestEnumeration:
    def test_sphere_cardinality(self):
        # |S_n| = 4 * 3^(n-1) in F2
        for n in range(1, 7):
            assert len(list(sphere(F2, n))) == 4 * 3 ** (n - 1)
        assert list(sphere(F2, 0)) == [Word(2, ())]

    def test_sphere_distinct_and_correct_length(self):
        for n in range(5):
            elems = list(sphere(F2, n))
            assert len(set(elems)) == len(elems)
            assert all(word_length(g) == n for g in elems)

    @pytest.mark.parametrize("rank, radius", [(2, 7), (3, 4)])
    def test_sphere_matches_letter_dfs(self, rank, radius):
        # reference: the letter DFS with every leaf reduced from its letters
        letters = [(gen, sign) for gen in range(1, rank + 1) for sign in (1, -1)]

        def reference(prefix, n):
            if len(prefix) == n:
                yield reduce_letters(prefix, rank)
                return
            for gen, sign in letters:
                if prefix and prefix[-1] == (gen, -sign):
                    continue
                yield from reference(prefix + [(gen, sign)], n)

        for n in range(radius + 1):
            got = list(sphere(FreeGroup(rank), n))
            assert got == list(reference([], n))
            for g in got:
                assert g == Word(rank, g.syls)  # the invariants hold

    def test_ball_count(self):
        assert len(list(ball(F2, 5))) == 1 + sum(4 * 3 ** (n - 1)
                                                 for n in range(1, 6))

    def test_integers(self):
        assert sorted(ball(Z, 3)) == [-3, -2, -1, 0, 1, 2, 3]
        assert mul(4, -7) == -3 and inv(5) == -5 and word_length(-9) == 9

