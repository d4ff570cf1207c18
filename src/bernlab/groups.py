"""Reduced-word arithmetic and enumeration for free groups and the integers.

Free-group elements are stored run-length-encoded by syllable, so syllable
statistics (length, sign changes, last-letter classes) are O(#syllables).
Integer-group elements are plain Python ints.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

__all__ = [
    "FreeGroup",
    "Integers",
    "Word",
    "GroupError",
    "identity",
    "reduce_letters",
    "mul",
    "inv",
    "word_length",
    "descending_sign_changes",
    "sphere",
    "ball",
    "w_class",
    "w_last_positive",
    "e_class",
    "pi_a",
    "pi_b",
    "parse_element",
    "format_element",
]


class GroupError(ValueError):
    """Raised for malformed words, rank mismatches and invalid class queries."""


@dataclass(frozen=True)
class FreeGroup:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise GroupError(f"free group rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class Integers:
    pass


Group = Union[FreeGroup, Integers]

_GEN_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Word:
    """Freely reduced word, stored as alternating syllables (gen, exponent).

    Invariants: generators in 1..rank, exponents nonzero, adjacent syllables
    carry distinct generators.
    """

    rank: int
    syls: tuple  # tuple[tuple[int, int], ...]

    def __post_init__(self):
        for gen, exp in self.syls:
            if not (1 <= gen <= self.rank):
                raise GroupError(f"generator {gen} out of range for rank {self.rank}")
            if exp == 0:
                raise GroupError("zero exponent in syllable")
        for (g1, _), (g2, _) in zip(self.syls, self.syls[1:]):
            if g1 == g2:
                raise GroupError("adjacent syllables share a generator (not reduced)")

    def __str__(self):
        return format_element(self)


Element = Union[int, Word]


def identity(group: Group) -> Element:
    if isinstance(group, Integers):
        return 0
    return Word(group.rank, ())


def _push(syls: list, gen: int, exp: int) -> None:
    """Append a syllable to a reduced syllable stack, cancelling as needed."""
    if exp == 0:
        return
    while syls and syls[-1][0] == gen:
        pg, pe = syls.pop()
        exp += pe
        if exp == 0:
            return
    syls.append((gen, exp))


def reduce_letters(letters: Iterable, rank: int) -> Word:
    """Freely reduce a raw letter sequence [(gen, ±1), ...] into a Word."""
    syls: list = []
    for gen, sign in letters:
        if not (1 <= gen <= rank):
            raise GroupError(f"generator {gen} out of range for rank {rank}")
        if sign not in (1, -1):
            raise GroupError(f"letter sign must be ±1, got {sign}")
        _push(syls, gen, sign)
    return Word(rank, tuple(syls))


def mul(g: Element, h: Element) -> Element:
    if isinstance(g, int) and isinstance(h, int):
        return g + h
    if not (isinstance(g, Word) and isinstance(h, Word)):
        raise GroupError("cannot multiply elements of different groups")
    if g.rank != h.rank:
        raise GroupError(f"rank mismatch: {g.rank} vs {h.rank}")
    syls = list(g.syls)
    for gen, exp in h.syls:
        _push(syls, gen, exp)
    return Word(g.rank, tuple(syls))


def inv(g: Element) -> Element:
    if isinstance(g, int):
        return -g
    return Word(g.rank, tuple((gen, -exp) for gen, exp in reversed(g.syls)))


def word_length(g: Element) -> int:
    if isinstance(g, int):
        return abs(g)
    return sum(abs(exp) for _, exp in g.syls)


def descending_sign_changes(g: Word) -> int:
    """Count adjacent syllable-exponent pairs (e_j >= 1, e_{j+1} <= -1).

    These are exactly the pairs that contribute cross terms to the W-split
    cocycle norm; pairs in the other order do not.
    """
    if not isinstance(g, Word) or g.rank != 2:
        raise GroupError("descending_sign_changes requires a rank-2 word")
    count = 0
    for (_, e1), (_, e2) in zip(g.syls, g.syls[1:]):
        if e1 >= 1 and e2 <= -1:
            count += 1
    return count


def _letters(rank: int):
    # deterministic lexicographic letter order: (1,+1), (1,-1), (2,+1), ...
    out = []
    for gen in range(1, rank + 1):
        out.append((gen, 1))
        out.append((gen, -1))
    return out


def sphere(group: Group, n: int) -> Iterator[Element]:
    """All elements of word length exactly n, each exactly once.

    Deterministic DFS over non-backtracking extensions, lexicographic in the
    letter order (1,+1), (1,-1), (2,+1), (2,-1), ...
    """
    if n < 0:
        raise GroupError("sphere radius must be >= 0")
    if isinstance(group, Integers):
        if n == 0:
            yield 0
        else:
            yield n
            yield -n
        return
    rank = group.rank
    if n == 0:
        yield Word(rank, ())
        return
    alphabet = _letters(rank)

    def extend(prefix: list, depth: int):
        last = prefix[-1] if prefix else None
        for gen, sign in alphabet:
            if last is not None and last[0] == gen and last[1] == -sign:
                continue
            prefix.append((gen, sign))
            if depth == n:
                yield reduce_letters(prefix, rank)
            else:
                yield from extend(prefix, depth + 1)
            prefix.pop()

    yield from extend([], 1)


def ball(group: Group, n: int) -> Iterator[Element]:
    """All elements of word length <= n, identity first."""
    for r in range(n + 1):
        yield from sphere(group, r)


# --- last-letter classes for the free-product constructions ------------------

def w_last_positive(g: Word, distinguished: int) -> bool:
    """True iff the reduced word ends with a strictly positive power of the
    distinguished generator."""
    if not isinstance(g, Word):
        raise GroupError("w_last_positive requires a free-group word")
    if not g.syls:
        return False
    gen, exp = g.syls[-1]
    return gen == distinguished and exp > 0


def w_class(g: Word) -> str:
    """Classify a rank-2 word by its last syllable: 'W_a', 'W_b' or 'W'.

    W_a / W_b collect words ending in a strictly positive power of a / b;
    everything else (including e) lies in W.
    """
    if not isinstance(g, Word) or g.rank != 2:
        raise GroupError("w_class requires a rank-2 word")
    if w_last_positive(g, 1):
        return "W_a"
    if w_last_positive(g, 2):
        return "W_b"
    return "W"


def e_class(g: Word) -> str:
    """Classify a rank-2 word by the generator of its last syllable:
    'e', 'E_a' or 'E_b'."""
    if not isinstance(g, Word) or g.rank != 2:
        raise GroupError("e_class requires a rank-2 word")
    if not g.syls:
        return "e"
    gen, _ = g.syls[-1]
    return "E_a" if gen == 1 else "E_b"


def pi_a(g: Word) -> int:
    """Final a-exponent of a word in E_a."""
    if e_class(g) != "E_a":
        raise GroupError(f"pi_a undefined outside E_a (got {format_element(g)})")
    return g.syls[-1][1]


def pi_b(g: Word) -> int:
    """Final b-exponent of a word in E_b."""
    if e_class(g) != "E_b":
        raise GroupError(f"pi_b undefined outside E_b (got {format_element(g)})")
    return g.syls[-1][1]


# --- serialization -----------------------------------------------------------

_SYL_RE = re.compile(r"^([a-z])(?:\^(-?\d+))?$")


def parse_element(group: Group, text: str) -> Element:
    """Parse "a b^-1 a^2" (free groups) or a decimal integer (Z)."""
    text = text.strip()
    if isinstance(group, Integers):
        try:
            return int(text)
        except ValueError:
            raise GroupError(f"not an integer element: {text!r}")
    if text in ("", "e", "1"):
        return identity(group)
    letters = []
    for tok in text.split():
        m = _SYL_RE.match(tok)
        if not m:
            raise GroupError(f"bad syllable {tok!r}")
        gen = _GEN_NAMES.index(m.group(1)) + 1
        exp = int(m.group(2)) if m.group(2) else 1
        if gen > group.rank:
            raise GroupError(f"generator {m.group(1)!r} out of range for rank {group.rank}")
        sign = 1 if exp > 0 else -1
        letters.extend([(gen, sign)] * abs(exp))
    return reduce_letters(letters, group.rank)


def format_element(g: Element) -> str:
    if isinstance(g, int):
        return str(g)
    if not g.syls:
        return "e"
    parts = []
    for gen, exp in g.syls:
        name = _GEN_NAMES[gen - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)
