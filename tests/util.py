"""Shared test helpers: an independent string-based word oracle, the tuple
bracelet-canon oracle, the naive append filter and the reference beam,
seeded random generators for words and valid proof words, and base-word
lists."""

from __future__ import annotations

import random

from powerproof.bracelets import enumerate_reduced_bracelets
from powerproof.proofwords import Append, Conjugate, ProofWord, RelatorSet
from powerproof.search import MoveLog, SearchConfig, apply_move
from powerproof.words import AB, Word, cyclic_reduce, free_reduce, invert, letter_index, rotations


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


def naive_appendable(relators: RelatorSet, w: Word) -> list[Word]:
    """Members, by (length, word), that cancel at least half of themselves
    against w, plus every member longer than w."""
    out = []
    for r in sorted(relators.members, key=lambda r: (len(r), r)):
        k = 0
        while k < min(len(w), len(r)) and w[-1 - k] == -r[k]:
            k += 1
        if len(w) < len(r) or 2 * k >= len(r):
            out.append(r)
    return out


def reference_search(
    target: Word, relators: RelatorSet, config: SearchConfig
) -> tuple[MoveLog | None, int, int]:
    """The beam search with no length cutoff: (log, states_visited,
    moves_tried) of one attempt, so configs that sample bases are out of
    scope.

    States are tuples moved by apply_move; every candidate of a depth is
    built, first found first kept, and the whole set is ranked by (length,
    word), words longer than four times the core dropped.
    """
    core, outer = cyclic_reduce(target)
    lead = tuple(Conjugate(g) for g in invert(outer))
    start = invert(core)
    if start == ():
        return MoveLog(invert(target), lead), 0, 0
    letters = sorted({abs(x) for r in relators.members for x in r} | {abs(x) for x in core})
    conjugations = [Conjugate(s * g) for g in letters for s in (1, -1)]
    max_len = 4 * len(start)
    visited = {start}
    beam: list[tuple[Word, tuple]] = [(start, ())]
    states = moves_tried = 0
    for _ in range(config.max_moves):
        candidates: dict[Word, tuple] = {}
        for w, path in beam:
            offered = conjugations + [Append(r) for r in naive_appendable(relators, w)]
            moves_tried += len(offered)
            for move in offered:
                u = apply_move(w, move)
                if len(u) <= max_len and u not in visited and u not in candidates:
                    candidates[u] = path + (move,)
        if not candidates:
            break
        if () in candidates:
            return MoveLog(invert(target), lead + candidates[()]), states, moves_tried
        beam = sorted(candidates.items(), key=lambda item: (len(item[0]), item[0]))[: config.beam_width]
        visited.update(w for w, _ in beam)
        states += len(beam)
    return None, states, moves_tried


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
