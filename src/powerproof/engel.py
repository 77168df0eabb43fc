"""Commutators and Engel words."""

from __future__ import annotations

from .words import Word, free_reduce, invert

_A: Word = (1,)
_B: Word = (2,)
# The largest Engel index built: each step reduces, and the reduced E_n has
# 2^(n+1) + 2n - 2 letters, 2,097,190 at n = 20, built in about 0.6 s.
MAX_ENGEL = 20


def commutator(x: Word, y: Word) -> Word:
    """Freely reduced [x, y] = x^-1 y^-1 x y."""
    return free_reduce(invert(x) + invert(y) + x + y)


def engel_word(n: int) -> Word:
    """The freely reduced n-th Engel word on (a, b): E_1 = [a, b] and
    E_n = [E_{n-1}, b].  n runs from 1 to MAX_ENGEL."""
    if n < 1:
        raise ValueError(f"Engel words are defined for n >= 1, got {n}")
    if n > MAX_ENGEL:
        raise ValueError(f"Engel words are built up to n = MAX_ENGEL = {MAX_ENGEL}, got {n}")
    e = commutator(_A, _B)
    for _ in range(n - 1):
        e = commutator(e, _B)
    return e
