"""Reduced-word arithmetic and enumeration for free groups and the integers.

Free-group elements are stored run-length-encoded by syllable, so syllable
statistics (length, the last syllable) are O(#syllables).
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
    "is_identity",
    "sphere",
    "ball",
    "parse_element",
    "format_element",
]


class GroupError(ValueError):
    """Raised for malformed words, rank mismatches and negative radii."""


_GEN_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class FreeGroup:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise GroupError(f"free group rank must be >= 1, got {self.rank}")
        if self.rank > len(_GEN_NAMES):
            raise GroupError(
                f"free group rank must be <= {len(_GEN_NAMES)}, one letter per "
                f"generator, got {self.rank}")


@dataclass(frozen=True)
class Integers:
    pass


Group = Union[FreeGroup, Integers]


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

    @classmethod
    def _trusted(cls, rank: int, syls: tuple) -> "Word":
        """A Word from syllables already known to satisfy the invariants,
        built without checking them again."""
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "syls", syls)
        return w


Element = Union[int, Word]


def identity(group: Group) -> Element:
    if isinstance(group, Integers):
        return 0
    return Word._trusted(group.rank, ())


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
    """The reduced product g·h.

    For Words only the junction is walked: while g's last syllable and h's
    first share a generator and their exponents cancel exactly, both are
    dropped; then, if they still share a generator, they merge into one
    syllable. The result meets the Word invariants, so it is built with
    `Word._trusted`. Proof: g and h are reduced, so every syllable kept
    whole has its generator in range and a nonzero exponent, and a merged
    exponent is nonzero because the loop stopped short of exact
    cancellation. Adjacent pairs inside g's kept prefix or h's kept suffix
    were adjacent in g or h, hence distinct. The one new adjacency, g's last
    kept syllable against h's first, has distinct generators unless they
    merged; a merged syllable x^(e+f) sits between g's syllable before x^e
    and h's syllable after x^f, both of which differ from x because g and h
    are reduced.
    """
    if isinstance(g, int) and isinstance(h, int):
        return g + h
    if not (isinstance(g, Word) and isinstance(h, Word)):
        raise GroupError("cannot multiply elements of different groups")
    if g.rank != h.rank:
        raise GroupError(f"rank mismatch: {g.rank} vs {h.rank}")
    gs, hs = g.syls, h.syls
    i, j, n = len(gs), 0, len(hs)
    while i and j < n:
        gen, exp = gs[i - 1]
        hgen, hexp = hs[j]
        if gen != hgen:
            break
        if exp + hexp:
            return Word._trusted(g.rank, gs[:i - 1] + ((gen, exp + hexp),) + hs[j + 1:])
        i -= 1
        j += 1
    return Word._trusted(g.rank, gs[:i] + hs[j:])


def inv(g: Element) -> Element:
    if isinstance(g, int):
        return -g
    return Word._trusted(g.rank, tuple([(gen, -exp) for gen, exp in reversed(g.syls)]))


def word_length(g: Element) -> int:
    if isinstance(g, int):
        return abs(g)
    return sum(abs(exp) for _, exp in g.syls)


def is_identity(g: Element) -> bool:
    return g == 0 if isinstance(g, int) else not g.syls


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
    letter order (1,+1), (1,-1), (2,+1), (2,-1), ... The DFS carries the
    reduced syllable tuple: a letter either grows the last syllable or
    starts a new one, so every leaf is already reduced.
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
        yield identity(group)
        return
    alphabet = _letters(rank)

    def extend(syls: tuple, depth: int):
        last_gen, last_exp = syls[-1] if syls else (0, 0)
        for gen, sign in alphabet:
            if gen == last_gen:
                if (last_exp > 0) != (sign > 0):
                    continue  # the inverse of the last letter
                ext = syls[:-1] + ((gen, last_exp + sign),)
            else:
                ext = syls + ((gen, sign),)
            if depth == n:
                yield Word._trusted(rank, ext)
            else:
                yield from extend(ext, depth + 1)

    yield from extend((), 1)


def ball(group: Group, n: int) -> Iterator[Element]:
    """All elements of word length <= n, identity first."""
    for r in range(n + 1):
        yield from sphere(group, r)


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
    syls: list = []
    for tok in text.split():
        m = _SYL_RE.match(tok)
        if not m:
            raise GroupError(f"bad syllable {tok!r}")
        gen = _GEN_NAMES.index(m.group(1)) + 1
        exp = int(m.group(2)) if m.group(2) else 1
        if gen > group.rank:
            raise GroupError(f"generator {m.group(1)!r} out of range for rank {group.rank}")
        # fold the whole syllable in at once: O(tokens), whatever the exponents
        _push(syls, gen, exp)
    return Word(group.rank, tuple(syls))


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
