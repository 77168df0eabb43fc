"""Enumeration of base-word candidates.

A reduced bracelet is an equivalence class of freely and cyclically reduced
words under rotation and inversion (inversion playing the role that reversal
plays for ordinary bracelets).  The canonical representative of a class is
its lexicographically least member under the fixed letter order
a < A < b < B < c < ...  A "Lyndon word" here is a reduced bracelet whose
representative is not a proper power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Alphabet, Word, invert, is_cyclically_reduced, letter_index, rotations, word_str


def word_key(w: Word) -> tuple[int, ...]:
    """Sort key realising the a < A < b < B letter order."""
    return tuple(letter_index(x) for x in w)


@dataclass(frozen=True)
class BraceletClass:
    """One rotation+inversion class, named by its canonical representative."""

    canonical: Word


def bracelet_canon(w: Word) -> Word:
    """Canonical representative of the class of w."""
    if not w:
        raise ValueError("the empty word has no bracelet class")
    if not is_cyclically_reduced(w):
        raise ValueError(f"bracelet_canon requires a cyclically reduced word, got {word_str(w)!r}")
    return min(rotations(w) | rotations(invert(w)), key=word_key)


def is_proper_power(w: Word) -> bool:
    """True iff w = v^k for some k >= 2 (w cyclically reduced)."""
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[d:] + w[:d]:
            return True
    return False


def enumerate_reduced_bracelets(alphabet: Alphabet, length: int) -> list[BraceletClass]:
    """All reduced-bracelet classes of the given length, sorted by word_key.

    Backtracks over freely reduced strings whose letters all sort at or after
    the first letter (a canonical word starts with its least letter), then
    keeps the words equal to their own canonical form.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    letters = sorted(
        [g for g in range(1, alphabet.rank + 1)] + [-g for g in range(1, alphabet.rank + 1)],
        key=letter_index,
    )
    found: list[BraceletClass] = []
    prefix: list[int] = []

    def extend(allowed: list[int]):
        if len(prefix) == length:
            w = tuple(prefix)
            if w[0] != -w[-1] or length == 1:
                if bracelet_canon(w) == w:
                    found.append(BraceletClass(w))
            return
        last = prefix[-1]
        for x in allowed:
            if x != -last:
                prefix.append(x)
                extend(allowed)
                prefix.pop()

    for first in letters:
        allowed = [x for x in letters if letter_index(x) >= letter_index(first)]
        prefix = [first]
        extend(allowed)
    return found


def enumerate_lyndon(alphabet: Alphabet, length: int) -> list[BraceletClass]:
    """Reduced bracelets of the given length that are not proper powers."""
    return [c for c in enumerate_reduced_bracelets(alphabet, length) if not is_proper_power(c.canonical)]
