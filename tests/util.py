"""Shared test helpers: an independent string-based word oracle, the tuple
bracelet-canon oracle, seeded random generators for words and valid proof
words, and base-word lists."""

from __future__ import annotations

import random

from powerproof.bracelets import enumerate_reduced_bracelets
from powerproof.proofwords import ProofWord, RelatorSet
from powerproof.words import AB, Word, free_reduce, invert, letter_index, rotations


def reduce_str(s: str) -> str:
    """Independent free reduction on letter strings (case swap = inverse)."""
    out: list[str] = []
    for ch in s:
        if out and out[-1] == ch.swapcase() and ch != out[-1]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def invert_str(s: str) -> str:
    return s[::-1].swapcase()


def bracelet_canon_oracle(w: Word) -> Word:
    """Least rotation of w or of its inverse, compared as tuples of letter
    indices: the a < A < b < B letter order, without string keys."""
    return min(rotations(w) | rotations(invert(w)), key=lambda v: tuple(letter_index(x) for x in v))


def random_letters(rng: random.Random, length: int, rank: int = 2) -> Word:
    """Arbitrary (not necessarily reduced) word."""
    pool = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    return tuple(rng.choice(pool) for _ in range(length))


def random_reduced_word(rng: random.Random, length: int, rank: int = 2) -> Word:
    """Freely reduced word of exactly the given length (random walk)."""
    pool = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(pool)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def bracelet_bases(max_len: int) -> list[Word]:
    """Canonical representatives of every reduced bracelet up to max_len."""
    return [c.canonical for n in range(1, max_len + 1) for c in enumerate_reduced_bracelets(AB, n)]


def random_proof(rng: random.Random, relators: RelatorSet, n_relators: int, conj_len: int) -> ProofWord:
    """Valid-by-construction proof word for the target it flattens to.

    Conjugator segments are random freely reduced words; the trailing
    segment is the inverse of the rest, so the excision word is trivial.
    """
    members = sorted(relators.members)
    rels = tuple(rng.choice(members) for _ in range(n_relators))
    conjs = [random_reduced_word(rng, rng.randrange(conj_len + 1)) for _ in range(n_relators)]
    closing: list[int] = []
    for c in conjs:
        closing.extend(c)
    conjs.append(free_reduce(invert(tuple(closing))))
    return ProofWord(tuple(conjs), rels)
