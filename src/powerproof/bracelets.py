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
from operator import eq

from .words import KEY_INVERSE, Alphabet, Word, key_word, order_key, word_str


@dataclass(frozen=True)
class BraceletClass:
    """One rotation+inversion class, named by its canonical representative."""

    canonical: Word


def bracelet_canon(w: Word) -> Word:
    """Canonical representative of the class of w.

    Works on order keys: with ``s`` the key of w and ``u`` the key of its
    letterwise inverse, the rotations of w are the length-n slices of s + s
    and those of its inverse the length-n slices of reversed u + u, and the
    least of them all is the representative.
    """
    if not w:
        raise ValueError("the empty word has no bracelet class")
    s = order_key(w)
    u = s.translate(KEY_INVERSE)
    # cyclically reduced: no letter is followed, cyclically, by its inverse
    if any(map(eq, s[1:] + s[:1], u)):
        raise ValueError(f"bracelet_canon requires a cyclically reduced word, got {word_str(w)!r}")
    n = len(s)
    ss, tt = s + s, (u + u)[::-1]
    return key_word(min([ss[k : k + n] for k in range(n)] + [tt[k : k + n] for k in range(n)]))


def is_proper_power(w: Word) -> bool:
    """True iff w = v^k for some k >= 2 (w cyclically reduced): w is then one
    of its own proper rotations."""
    s = order_key(w)
    return 0 < (s + s).find(s, 1) < len(s)


def enumerate_reduced_bracelets(alphabet: Alphabet, length: int) -> list[BraceletClass]:
    """All reduced-bracelet classes of the given length, sorted in the letter
    order (by ``order_key``).

    Backtracks over freely reduced words whose letters all sort at or after
    the first letter (a canonical word starts with its least letter), and
    keeps the cyclically reduced ones that equal their own canonical form.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    letters = [x for g in range(1, alphabet.rank + 1) for x in (g, -g)]
    found: list[BraceletClass] = []
    for i, first in enumerate(letters):
        _extend((first,), letters[i:], length, found)
    return found


# A module-level function, not a closure: a closure that calls itself is a
# reference cycle, which would hold each listing until the cyclic collector
# ran.
def _extend(prefix: Word, allowed: list[int], length: int, found: list[BraceletClass]):
    """Append to ``found`` the canonical words of the given length that
    extend ``prefix`` with letters from ``allowed``."""
    if len(prefix) == length:
        if prefix[0] != -prefix[-1] and bracelet_canon(prefix) == prefix:
            found.append(BraceletClass(prefix))
        return
    last = prefix[-1]
    for x in allowed:
        if x != -last:
            _extend(prefix + (x,), allowed, length, found)


def enumerate_lyndon(alphabet: Alphabet, length: int) -> list[BraceletClass]:
    """Reduced bracelets of the given length that are not proper powers."""
    return [c for c in enumerate_reduced_bracelets(alphabet, length) if not is_proper_power(c.canonical)]
