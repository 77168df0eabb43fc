"""Commutators and Engel words."""

from __future__ import annotations

from .words import Word, free_reduce, invert

_A: Word = (1,)
_B: Word = (2,)
# The largest Engel index built: the raw expansion of E_n has 3 * 2^n - 2
# letters, 3,145,726 at n = 20, and is made in full before it is reduced.
MAX_ENGEL = 20


def commutator(x: Word, y: Word) -> Word:
    """Freely reduced [x, y] = x^-1 y^-1 x y."""
    return free_reduce(invert(x) + invert(y) + x + y)


def engel_word_expansion(n: int) -> Word:
    """The n-th Engel word on (a, b) as written, without free reduction.

    E_1 = [a, b] and E_n = [E_{n-1}, b]; the raw expansion has length
    2 * len(E_{n-1}) + 2, that is 3 * 2^n - 2.  n runs from 1 to MAX_ENGEL.
    """
    if n < 1:
        raise ValueError(f"Engel words are defined for n >= 1, got {n}")
    if n > MAX_ENGEL:
        raise ValueError(f"Engel words are built up to n = MAX_ENGEL = {MAX_ENGEL}, got {n}")
    e: Word = invert(_A) + invert(_B) + _A + _B
    for _ in range(n - 1):
        e = invert(e) + invert(_B) + e + _B
    return e


def engel_word(n: int) -> Word:
    """The freely reduced n-th Engel word on (a, b)."""
    return free_reduce(engel_word_expansion(n))
