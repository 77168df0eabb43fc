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
from itertools import chain
from operator import eq, itemgetter
from typing import Iterable

from .words import KEY_INVERSE, LETTERS, Alphabet, Word, key_word, order_key, word_str


@dataclass(frozen=True)
class BraceletClass:
    """One rotation+inversion class, named by its canonical representative."""

    canonical: Word


# The longest word whose rotations are cut in one call: its 2n <= 64
# rotations, 2n^2 <= 2,048 characters, are alive at once.
_CUT_MAX = 32


def _rotation_starts(n: int) -> Iterable[int]:
    """Where the n rotations of an n-letter word and the n of its inverse
    start in the key ``ss + tt`` of ``bracelet_canon``."""
    return chain(range(n), range(2 * n, 3 * n))


class _RotationCuts(dict):
    """Length n <= ``_CUT_MAX`` -> an itemgetter of the 2n slices
    ``k:k + n`` at the rotation starts k, made on first use of each length.
    Its call cuts all 2n rotations out of the key at once, at most 64 of at
    most 32 letters, and since it holds at least two slices it always
    returns a tuple, also for a one-letter word.  The cache holds at most
    1,056 slices."""

    def __missing__(self, n: int) -> itemgetter:
        cut = self[n] = itemgetter(*(slice(k, k + n) for k in _rotation_starts(n)))
        return cut


_CUTS = _RotationCuts()


def bracelet_canon(w: Word) -> Word:
    """Canonical representative of the class of w, as a tuple.

    Works on order keys: with ``s`` the key of w and ``u`` the key of its
    letterwise inverse, w is cyclically reduced when no ``u[i]`` equals
    ``s[i + 1]`` (cyclically), the rotations of w are the length-n slices
    of ``ss = s + s`` and those of its inverse the length-n slices of
    ``tt``, reversed u + u.  For a word of at most ``_CUT_MAX`` letters, one
    call of the itemgetter cached for its length cuts all 2n rotations out
    of ``ss + tt`` in C, so at most 64 rotations are alive at once; a longer
    word's rotations are cut one at a time, so no more than two are.  The
    least rotation is the representative.  When that is s itself, as for
    every class the enumerator lists, w is returned as a tuple without
    decoding the key.
    """
    if not w:
        raise ValueError("the empty word has no bracelet class")
    s = order_key(w)
    u = s.translate(KEY_INVERSE)
    ss = s + s
    if any(map(eq, u, ss[1:])):
        raise ValueError(f"{word_str(w)!r} is not cyclically reduced, so it has no bracelet class")
    n = len(s)
    key = ss + (u + u)[::-1]
    if n <= _CUT_MAX:
        least = min(_CUTS[n](key))
    else:
        least = min(key[k : k + n] for k in _rotation_starts(n))
    return tuple(w) if least == s else key_word(least)


def primitive_root(w: Word) -> tuple[Word, int]:
    """(v, k) with w = v^k and v not a proper power, for a non-empty w: the
    length of v is the least shift at which w is one of its own rotations."""
    s = order_key(w)
    p = (s + s).find(s, 1)
    return tuple(w[:p]), len(s) // p


def is_proper_power(w: Word) -> bool:
    """True iff w = v^k for some k >= 2 (w cyclically reduced): w is then one
    of its own proper rotations."""
    return bool(w) and primitive_root(w)[1] > 1


def enumerate_reduced_bracelets(alphabet: Alphabet, length: int) -> list[BraceletClass]:
    """All reduced-bracelet classes of the given length, sorted in the letter
    order (by ``order_key``).

    Walks the freely reduced words in increasing letter order, depth first
    and without recursion, over the letter indices of ``words.LETTERS`` (the
    inverse of index i is i ^ 1).  The canonical word of a class is the least
    of its rotations, so it is a necklace, and every prefix of a necklace
    obeys the prefix rule of Fredricksen, Kessler and Maiorana: with ``p``
    the period of ``a[:t]`` (the length of its longest Lyndon prefix), the
    letter ``a[t]`` is at least ``a[t - p]``.  A smaller letter there makes
    the rotation at p smaller than the word, so no extension of that prefix
    is canonical, and the walk never builds one.  Two more rules drop
    necklaces that a rotation of the inverse word beats, with x = ``a[0]``:

    - position 0 takes lowercase letters only: the canonical word starts
      with the least letter of the word and its inverse, and that letter is
      lowercase;
    - no run of x^-1 is longer than the leading run of x, say L letters
      long: an x^-1-run of R > L letters is an x-run of the inverse word, and
      the rotation of the inverse starting there beats the word at position
      L.  L is final when the rule fires, since x^-1 cannot follow x.

    A full word is a necklace exactly when its period divides its length;
    only the cyclically reduced necklaces that pass the two rules reach
    ``bracelet_canon``, which still drops those whose inverse class has a
    smaller member.  Every rule only cuts words that are not canonical, so
    the listing is the same as filtering every reduced word, in the same
    order.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    letters = list(LETTERS[: 2 * alphabet.rank])
    top = len(letters)
    last = length - 1
    # a[t] is the letter index at position t and per[t] the period of a[:t];
    # per[0] is never read.  lead[t] is the length of the leading x-run of
    # a[:t + 1] and run[t] that of the x^-1-run ending at position t; x is
    # a[0] and xi its inverse, set whenever position 0 changes.
    a = [-1] * length
    per = [1] * (length + 1)
    lead = [1] * length
    run = [0] * length
    x = xi = -1
    found: list[BraceletClass] = []
    t = 0
    while t >= 0:
        j = a[t] + 1
        if t:
            if j == a[t - 1] ^ 1:
                j += 1
        elif j & 1:
            j += 1
        if j >= top:
            t -= 1
            continue
        a[t] = j
        if t:
            if j == xi:
                r = run[t - 1] + 1
                if r > lead[t - 1]:
                    continue
                run[t] = r
            else:
                run[t] = 0
            lead[t] = t + 1 if j == x and lead[t - 1] == t else lead[t - 1]
            p = per[t]
            per[t + 1] = p if j == a[t - p] else t + 1
        else:
            x, xi = j, j ^ 1
        if t < last:
            t += 1
            a[t] = a[t - per[t]] - 1
        elif length % per[length] == 0 and a[0] != j ^ 1:
            w = tuple(map(letters.__getitem__, a))
            if bracelet_canon(w) == w:
                found.append(BraceletClass(w))
    return found


def enumerate_lyndon(alphabet: Alphabet, length: int) -> list[BraceletClass]:
    """Reduced bracelets of the given length that are not proper powers."""
    return [c for c in enumerate_reduced_bracelets(alphabet, length) if not is_proper_power(c.canonical)]
