"""Word algebra over a free group with the case-inversion letter convention.

Words are tuples of nonzero signed integers: letter ``+g`` is the ``g``-th
generator, ``-g`` its inverse.  Generator 1 prints as ``a`` and its inverse
as ``A``, generator 2 as ``b``/``B``, and so on.  All operations are pure;
words are immutable and hashable, so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Alphabet:
    """Generating set of a free group; generators map to 'a'..'z'."""

    rank: int = 2

    def __post_init__(self):
        if not 1 <= self.rank <= 26:
            raise ValueError(f"rank must be between 1 and 26, got {self.rank}")

    def letter(self, char: str) -> int:
        """Signed letter for a single character, or 0 if not a valid letter."""
        if "a" <= char <= "z":
            g = ord(char) - ord("a") + 1
            return g if g <= self.rank else 0
        if "A" <= char <= "Z":
            g = ord(char) - ord("A") + 1
            return -g if g <= self.rank else 0
        return 0


AB = Alphabet(2)


def parse_word(text: str, alphabet: Alphabet = AB) -> Word:
    """Parse word text into a letter tuple, ignoring whitespace.

    The result is exactly the sequence written; it is NOT freely reduced.
    """
    letters = []
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        letter = alphabet.letter(ch)
        if letter == 0:
            raise ParseError(f"invalid character {ch!r} for rank-{alphabet.rank} alphabet", text, i)
        letters.append(letter)
    return tuple(letters)


def word_str(w: Word) -> str:
    """Format a word in the letter convention; the empty word prints as ''."""
    return "".join(chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1) for x in w)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain (single stack pass)."""
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


def letter_index(x: int) -> int:
    """Position of a letter in the order a, A, b, B, ...; the inverse letter
    of index i has index i ^ 1."""
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


# Order keys: one code point chr(_KEY_ZERO + letter_index(x)) per letter x,
# so that keys compare like their words in the letter order a < A < b < B
# < ... (a proper prefix first) and stay within ASCII up to rank 26.  The
# beam search keeps its states as keys, and bracelet representatives and
# relator bases are named and sorted by them.  _KEY_CHARS[x] is the code
# point of letter x, negative letters indexing from the end of the list.
_KEY_ZERO = 0x41
_KEY_CHARS = [chr(_KEY_ZERO + letter_index(x)) if x else "" for x in (*range(27), *range(-26, 0))]
_KEY_LETTERS = {c: x for x in range(-26, 27) if (c := _KEY_CHARS[x])}
# str.translate table taking the key of each letter to the key of its
# inverse, index i to index i ^ 1.
KEY_INVERSE = str.maketrans({chr(_KEY_ZERO + i): chr(_KEY_ZERO + (i ^ 1)) for i in range(52)})


def order_key(w: Word) -> str:
    """The word as a string that sorts in the a < A < b < B < ... letter
    order; the inverse word's key is ``order_key(w)[::-1].translate(KEY_INVERSE)``."""
    return "".join(map(_KEY_CHARS.__getitem__, w))


def key_word(key: str) -> Word:
    """The word whose order key is ``key``."""
    return tuple(map(_KEY_LETTERS.__getitem__, key))


def is_freely_reduced(w: Word) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def is_cyclically_reduced(w: Word) -> bool:
    """Freely reduced and the first and last letters are not mutual inverses."""
    if not is_freely_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


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
