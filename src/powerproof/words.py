"""Word algebra over a free group with the case-inversion letter convention.

Words are tuples of nonzero signed integers: letter ``+g`` is the ``g``-th
generator, ``-g`` its inverse.  Generator 1 prints as ``a`` and its inverse
as ``A``, generator 2 as ``b``/``B``, and so on.  All operations are pure;
words are immutable and hashable, so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq, neg
from typing import Iterable, Iterator

Word = tuple[int, ...]


class ParseError(ValueError):
    """Raised when word or proof-word text is malformed.

    ``position`` is the 0-based index of the offending character in the
    original text; ``line`` and ``column`` are the 1-based line and column
    of that character.
    """

    def __init__(self, message: str, text: str, position: int):
        self.position = position
        self.line = text.count("\n", 0, position) + 1
        self.column = position - text.rfind("\n", 0, position)
        super().__init__(f"{message} at line {self.line}, column {self.column} (position {position})")


# The letter order a < A < b < B < ... < z < Z of the MAX_RANK generators, the
# one table that every letter encoding below is read from: LETTERS[i] is the
# letter of index i, and the inverse of the letter of index i has index i ^ 1.
# A letter outside it (0, or beyond +-MAX_RANK) raises KeyError in every encoding.
MAX_RANK = 26
LETTERS: tuple[int, ...] = tuple(x for g in range(1, MAX_RANK + 1) for x in (g, -g))
_TEXT = "".join(c + c.upper() for c in "abcdefghijklmnopqrstuvwxyz")
_INDEX = {x: i for i, x in enumerate(LETTERS)}
_STR = dict(zip(LETTERS, _TEXT))


@dataclass(frozen=True)
class Alphabet:
    """Generating set of a free group; generators map to 'a'..'z'."""

    rank: int = 2

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {self.rank}")


AB = Alphabet(2)


def scan(text: str, alphabet: Alphabet = AB, marks: str = "") -> Iterator[tuple[int, int | str]]:
    """Yield ``(position, item)`` for each letter and mark character of text.

    A letter comes as its signed int, a character of ``marks`` as itself;
    ``position`` is its index in text.  Whitespace is skipped, and so is
    every line whose first non-blank character is '#'.  Any other character
    raises ParseError.
    """
    # the alphabet's characters read as the first 2 * rank letters of the table
    chars = dict(zip(_TEXT, LETTERS[: 2 * alphabet.rank]))
    start = 0
    for line in text.split("\n"):
        if not line.lstrip().startswith("#"):
            for i, ch in enumerate(line, start):
                if letter := chars.get(ch):
                    yield i, letter
                elif ch in marks:
                    yield i, ch
                elif not ch.isspace():
                    raise ParseError(f"invalid character {ch!r} for rank-{alphabet.rank} alphabet", text, i)
        start += len(line) + 1


def parse_word(text: str, alphabet: Alphabet = AB) -> Word:
    """Parse word text into a letter tuple, skipping whitespace and '#'
    comment lines as ``scan`` does.

    The result is exactly the sequence written; it is NOT freely reduced.
    """
    return tuple(letter for _, letter in scan(text, alphabet))


def word_str(w: Word) -> str:
    """Format a word in the letter convention; the empty word prints as ''."""
    return "".join(map(_STR.__getitem__, w))


def free_reduce(w: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain, in a single stack
    pass over any iterable of letters."""
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w: Word) -> Word:
    """Reverse the word and negate every letter."""
    return tuple(-x for x in reversed(w))


# Order keys: one byte per letter, its index i, so that keys compare like
# their words in the letter order (a proper prefix first).  The beam search
# keeps its states as keys, and bracelet representatives and relator bases
# are named and sorted by them.  A bytes object's header is 16 bytes smaller
# than an ASCII str's on CPython 3.11 (8 from 3.12 on), and it hashes,
# slices and compares in C just as one does.
# bytes.translate table taking the key of each letter to the key of its
# inverse, index i to index i ^ 1.
KEY_INVERSE = bytes(i ^ 1 for i in range(256))


def order_key(w: Word) -> bytes:
    """The word as bytes, one letter index per letter, that sort in the
    a < A < b < B < ... letter order; the inverse word's key is
    ``order_key(w)[::-1].translate(KEY_INVERSE)``."""
    return bytes(map(_INDEX.__getitem__, w))


def key_word(key: bytes) -> Word:
    """The word whose order key is ``key``.  Subscripting the tuple inline
    beats mapping its slot-wrapper ``__getitem__``."""
    return tuple([LETTERS[b] for b in key])


def is_freely_reduced(w: Word) -> bool:
    """No letter is followed by its inverse."""
    return not any(map(eq, w[1:], map(neg, w)))


def is_cyclically_reduced(w: Word) -> bool:
    """No letter is followed, cyclically, by its inverse: freely reduced, and
    the last letter is not the inverse of the first."""
    return not any(map(eq, w, map(neg, w[1:] + w[:1])))


def conjugate(w: Word, u: Word) -> Word:
    """Freely reduced u^-1 w u."""
    return free_reduce(invert(u) + w + u)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w into a cyclically reduced core and a conjugator.

    Returns ``(core, u)`` with ``conjugate(core, u)`` equal to
    ``free_reduce(w)``.
    """
    v = free_reduce(w)
    i, j = 0, len(v)
    while j - i >= 2 and v[i] == -v[j - 1]:
        i += 1
        j -= 1
    return v[i:j], invert(v[:i])


def rotations(w: Word) -> set[Word]:
    """All cyclic shifts of a cyclically reduced word."""
    if not is_cyclically_reduced(w):
        raise ValueError(f"rotations requires a cyclically reduced word, got {word_str(w)!r}")
    if not w:
        return {()}
    return {w[k:] + w[:k] for k in range(len(w))}


def power(w: Word, e: int) -> Word:
    """e-fold concatenation of w."""
    if e < 1:
        raise ValueError(f"exponent must be positive, got {e}")
    return w * e
