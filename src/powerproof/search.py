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

from .proofwords import ProofWord, RelatorSet, flatten, fold, power_base, symmetrize, verify
from .words import Word, concat_reduce, free_reduce, invert, is_cyclically_reduced, word_str


@dataclass(frozen=True)
class Conjugate:
    """Conjugation by one signed generator letter: w -> g^-1 w g."""

    letter: int


@dataclass(frozen=True)
class Append:
    """Right-multiplication by a relator: w -> w r."""

    relator: Word


Move = Conjugate | Append


@dataclass(frozen=True)
class MoveLog:
    """A start word plus the moves applied to it, in order."""

    start: Word
    moves: tuple[Move, ...]


def apply_move(w: Word, move: Move) -> Word:
    if isinstance(move, Conjugate):
        g = move.letter
        u = w[1:] if w and w[0] == g else (-g,) + w
        return u[:-1] if u and u[-1] == -g else u + (g,)
    return concat_reduce(w, move.relator)


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
    max_word_length: int | None = None  # default: 4 * len(target)
    restarts: int = 0
    seed: int = 0
    base_subset_size: int | None = None

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_moves < 1:
            raise ValueError("max_moves must be >= 1")


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

    def __init__(self, word: Word, parent: "_Node | None", move: Move | None):
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
    max_len: int,
    result: SearchResult,
) -> MoveLog | None:
    """One deterministic beam run; returns a completed log or None."""
    if start == ():
        return MoveLog(start, ())
    conjugations = [Conjugate(g) for g in letters]
    appends = {r: Append(r) for r in relators.members}
    visited = {start}
    beam = [_Node(start, None, None)]
    for _ in range(config.max_moves):
        candidates: dict[Word, _Node] = {}
        for node in beam:
            w = node.word
            # Appends must cancel at least half the relator, except from
            # states already shorter than the relator.
            moves = conjugations + [appends[r] for r in relators.appendable(w)]
            result.moves_tried += len(moves)
            for move in moves:
                word = apply_move(w, move)
                if len(word) <= max_len and word not in visited and word not in candidates:
                    candidates[word] = _Node(word, node, move)
        if not candidates:
            return None
        if () in candidates:
            return MoveLog(start, _moves_of(candidates[()]))
        # Rank by (length, word): sort each length natively, shortest first,
        # until the beam is full.
        by_length: dict[int, list[Word]] = {}
        for word in candidates:
            by_length.setdefault(len(word), []).append(word)
        chosen: list[Word] = []
        for length in sorted(by_length):
            chosen += sorted(by_length[length])[: config.beam_width - len(chosen)]
            if len(chosen) == config.beam_width:
                break
        beam = [candidates[word] for word in chosen]
        visited.update(chosen)
        result.states_visited += len(beam)
    return None


def search(target: Word, relators: RelatorSet, config: SearchConfig | None = None) -> SearchResult:
    """Beam search for a move log proving the target trivial.

    The beam is ordered by freely reduced word length, ties broken
    lexicographically; a visited set prunes re-entered states.  Restarts
    re-run the beam over random base subsets (when base_subset_size is set)
    and are deterministic for a fixed seed.
    """
    if config is None:
        config = SearchConfig()
    if not is_cyclically_reduced(target):
        raise ValueError(f"search target must be cyclically reduced, got {word_str(target)!r}")
    start = invert(target)
    max_len = config.max_word_length if config.max_word_length is not None else 4 * len(target)
    max_len = max(max_len, len(target))
    letters = sorted({abs(x) for r in relators.members for x in r} | {abs(x) for x in target})
    letters = [s * g for g in letters for s in (1, -1)]
    rng = random.Random(config.seed)
    all_bases = [c.canonical for c in relators.bases]
    result = SearchResult(log=None)
    t0 = time.perf_counter()
    for attempt in range(config.restarts + 1):
        if attempt == 0 or config.base_subset_size is None or config.base_subset_size >= len(all_bases):
            active = relators
        else:
            subset = rng.sample(all_bases, config.base_subset_size)
            active = symmetrize(subset, relators.exponent)
        result.restarts_used = attempt
        log = _beam_attempt(start, active, letters, config, max_len, result)
        if log is not None:
            result.log = log
            break
    result.elapsed = time.perf_counter() - t0
    return result


def reconstruct(log: MoveLog, target: Word, outer_conjugator: Word = ()) -> ProofWord:
    """Turn a completed move log into a folded proof word.

    The conjugation letters before the first append form the leading
    conjugating string, the letters between consecutive appends the inner
    strings, and the trailing string is the inverse of everything before the
    last append.  The outer conjugator wraps the finished proof, so the
    result flattens to conjugate(target, outer_conjugator).
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
        conjs[0] = free_reduce(invert(outer_conjugator) + conjs[0])
        conjs[-1] = free_reduce(conjs[-1] + outer_conjugator)
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
            proof = reconstruct(result.log, r)
            if verify(proof, r, relators=active).valid:
                survivors = others
    return survivors
