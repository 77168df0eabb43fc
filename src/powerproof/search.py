"""Proof generation by reduction: drive the inverted target to the empty word.

A target T is trivial in the presented group exactly when some sequence of
moves starting from T^-1 reaches the empty word, where a move is conjugation
by a single signed generator or appending a relator from the symmetrized set.
A completed move log is a constructive certificate: the standardized proof
word is recovered from it by reading the conjugation letters between appends
as the conjugating strings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .proofwords import (
    Append,
    Conjugate,
    Move,
    ProofWord,
    RelatorSet,
    flatten,
    fold,
    power_base,
    symmetrize,
    verify,
)
from .words import Word, conjugate, cyclic_reduce, free_reduce, invert, is_freely_reduced, order_key, word_str


@dataclass(frozen=True)
class MoveLog:
    """A start word plus the moves applied to it, in order."""

    start: Word
    moves: tuple[Move, ...]


def apply_move(w: Word, move: Move) -> Word:
    if isinstance(move, Conjugate):
        return conjugate(w, (move.letter,))
    return free_reduce(w + move.relator)


def replay(log: MoveLog) -> Word:
    """The word reached by applying all moves of the log to its start."""
    w = log.start
    for move in log.moves:
        w = apply_move(w, move)
    return w


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 1000
    max_moves: int = 256
    restarts: int = 0
    seed: int = 0
    base_subset_size: int | None = None

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.base_subset_size is not None and self.base_subset_size < 1:
            raise ValueError("base_subset_size must be >= 1")


@dataclass
class SearchResult:
    log: MoveLog | None
    states_visited: int = 0
    moves_tried: int = 0
    elapsed: float = 0.0
    restarts_used: int = 0

    @property
    def found(self) -> bool:
        return self.log is not None


class _Node:
    __slots__ = ("word", "parent", "move")

    def __init__(self, word: str, parent: "_Node | None", move: Move | None):
        self.word = word
        self.parent = parent
        self.move = move


def _moves_of(node: _Node) -> tuple[Move, ...]:
    moves = []
    while node.move is not None:
        moves.append(node.move)
        node = node.parent
    return tuple(reversed(moves))


def _beam_attempt(
    start: Word,
    relators: RelatorSet,
    letters: list[int],
    config: SearchConfig,
    result: SearchResult,
) -> tuple[Move, ...] | None:
    """One deterministic beam run; returns the moves reaching the empty word
    from start, or None.

    States are order keys (see words.order_key): they hash once, slice in
    C, and rank in the a < A < b < B letter order.
    """
    if start == ():
        return ()
    max_len = 4 * len(start)
    width = config.beam_width
    # Conjugation by g maps w to g^-1 w g: (g, g^-1, move) as keys.
    conjugations = [(order_key((g,)), order_key((-g,)), Conjugate(g)) for g in letters]
    start_key = order_key(start)
    visited = {start_key}
    beam = [_Node(start_key, None, None)]
    for _ in range(config.max_moves):
        # Each new word's parent and move; nodes are made for the chosen only.
        # Only this insertion-ordered dict is iterated: str hashes are salted
        # per process, so iterating a set of keys would not be deterministic.
        candidates: dict[str, tuple[_Node, Move]] = {}
        by_length: list[list[str]] = [[] for _ in range(max_len + 1)]
        # Words longer than the cutoff are never built.  It falls only while
        # at least `width` candidates are strictly shorter than it, so no
        # word beyond it could be chosen, and every word that could is still
        # found first from the same parent.
        cutoff = max_len
        kept = 0  # candidates no longer than the cutoff
        for node in beam:
            w = node.word
            for g, g_inv, move in conjugations:
                u = w[1:] if w.startswith(g) else g_inv + w
                word = u[:-1] if u.endswith(g_inv) else u + g
                if len(word) <= cutoff and word not in visited and word not in candidates:
                    candidates[word] = (node, move)
                    by_length[len(word)].append(word)
                    kept += 1
            # The index counts the members the half rule offers and returns,
            # in (length, key) order, just those whose appended word stays
            # within the cutoff, bucketed with a cancellation they have
            # already established; the exact one is counted up from there.
            offered, buckets = relators.appends(w, cutoff)
            result.moves_tried += len(conjugations) + offered
            n = len(w)
            for least, bucket in buckets:
                for move, key, inverse_prefixes in bucket:
                    k, m = least, len(key)
                    while k < m and w.endswith(inverse_prefixes[k + 1]):
                        k += 1
                    word = w[: n - k] + key[k:]
                    if word not in visited and word not in candidates:
                        candidates[word] = (node, move)
                        by_length[len(word)].append(word)
                        kept += 1
            while kept - len(by_length[cutoff]) >= width:
                kept -= len(by_length[cutoff])
                cutoff -= 1
        if not candidates:
            return None
        if by_length[0]:
            return _moves_of(_Node("", *candidates[""]))
        # Rank by (length, key): sort each length natively, shortest first,
        # until the beam is full.
        chosen: list[str] = []
        for bucket in by_length[: cutoff + 1]:
            chosen += sorted(bucket)[: width - len(chosen)]
            if len(chosen) == width:
                break
        beam = [_Node(word, *candidates[word]) for word in chosen]
        visited.update(chosen)
        result.states_visited += len(beam)
    return None


def search(target: Word, relators: RelatorSet, config: SearchConfig | None = None) -> SearchResult:
    """Beam search for a move log proving the freely reduced target trivial.

    The beam runs from the inverse of the target's cyclically reduced core.
    It is ordered by freely reduced word length, ties broken in the
    a < A < b < B letter order; a visited set prunes re-entered states.
    Words longer than a per-depth cutoff are never built: it starts at four
    times the core and falls while at least beam_width candidates are
    strictly shorter, so no word beyond it could be chosen; the relator
    index is looked up at the cancellation the cutoff needs, so such appends
    are not even fetched.  Restarts re-run the beam
    over random base subsets, so they run only when base_subset_size is
    smaller than the number of bases; they are deterministic for a fixed seed.
    A found log starts at the inverse of the target: one conjugation per
    letter of the inverse outer conjugator leads it to the inverted core,
    then the beam's moves follow.
    """
    if config is None:
        config = SearchConfig()
    if not is_freely_reduced(target):
        raise ValueError(f"search target must be freely reduced, got {word_str(target)!r}")
    core, outer = cyclic_reduce(target)
    lead = tuple(Conjugate(g) for g in invert(outer))
    start = invert(core)
    letters = sorted({abs(x) for r in relators.members for x in r} | {abs(x) for x in core})
    letters = [s * g for g in letters for s in (1, -1)]
    rng = random.Random(config.seed)
    sampling = config.base_subset_size is not None and config.base_subset_size < len(relators.bases)
    active = relators
    result = SearchResult(log=None)
    t0 = time.perf_counter()
    for attempt in range(config.restarts + 1 if sampling else 1):
        if attempt:
            subset = rng.sample(relators.bases, config.base_subset_size)
            active = symmetrize(subset, relators.exponent)
        result.restarts_used = attempt
        moves = _beam_attempt(start, active, letters, config, result)
        if moves is not None:
            result.log = MoveLog(invert(target), lead + moves)
            break
    result.elapsed = time.perf_counter() - t0
    return result


def reconstruct(log: MoveLog) -> ProofWord:
    """Turn a completed move log into a folded proof word for the target,
    the inverse of the log's start word.

    The conjugation letters before the first append form the leading
    conjugating string, the letters between consecutive appends the inner
    strings, and the trailing string is the inverse of everything before the
    last append.
    """
    if replay(log) != ():
        raise ValueError("move log does not reach the empty word")
    conjs: list[Word] = []
    rels: list[Word] = []
    run: list[int] = []
    before_last: list[int] = []
    for move in log.moves:
        if isinstance(move, Conjugate):
            run.append(move.letter)
        else:
            conjs.append(free_reduce(tuple(run)))
            before_last.extend(run)
            rels.append(move.relator)
            run = []
    if rels:
        conjs.append(free_reduce(invert(tuple(before_last))))
    else:
        conjs = [()]
    return fold(ProofWord(tuple(conjs), tuple(rels)))


def decompile(p: ProofWord) -> MoveLog:
    """Move certificate for a proof word: replaying it from the inverse of
    the flattened target reaches the empty word."""
    start = invert(flatten(p))
    moves: list[Move] = []
    for c, r in zip(p.conjugators, p.relators):
        moves.extend(Conjugate(x) for x in c)
        moves.append(Append(r))
    log = MoveLog(start, tuple(moves))
    if replay(log) != ():
        raise ValueError("proof word does not replay to the empty word (excision is non-trivial)")
    return log


def reduce_presentation(
    relators: list[Word], exponent: int, config: SearchConfig | None = None
) -> list[Word]:
    """Greedily drop relators that the remaining ones prove within budget.

    Each candidate is searched for as a target over the symmetrized set of
    the surviving bases; it is removed only when the reconstructed proof
    passes verification, so the presented group never changes.
    """
    survivors = list(relators)
    for r in list(survivors):
        others = [s for s in survivors if s != r]
        if not others:
            continue
        bases = [power_base(s, exponent) for s in others]
        active = symmetrize(bases, exponent)
        result = search(r, active, config)
        if result.found:
            proof = reconstruct(result.log)
            if verify(proof, r, relators=active).valid:
                survivors = others
    return survivors
