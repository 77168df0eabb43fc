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
from .words import LETTERS, Word, conjugate, cyclic_reduce, free_reduce, invert, is_freely_reduced, order_key, word_str


# A move is a signed generator letter g, conjugation w -> g^-1 w g, or a
# relator word r, right-multiplication w -> w r.
Move = int | Word


@dataclass(frozen=True)
class MoveLog:
    """A start word plus the moves applied to it, in order."""

    start: Word
    moves: tuple[Move, ...]


def apply_move(w: Word, move: Move) -> Word:
    if isinstance(move, int):
        return conjugate(w, (move,))
    return free_reduce(w + move)


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


def _moves_of(node: tuple) -> tuple[Move, ...]:
    """The moves from the start to node."""
    moves = []
    while node[2] is not None:
        moves.append(node[2])
        node = node[1]
    return tuple(reversed(moves))


# How many of a state's last letters key the half rule's memo: on the E5
# search 6 ran about 10 % faster than 4 or 8.
_TAIL = 6


class _HalfRuleMemo(dict):
    """memo[w[memo.tail], min(len(w), memo.longest)]: (m, h, levels) for
    each member length m that can offer members to the state w, in index
    order, made on first use; the state's bucket is levels[h][w's last h
    letters].  Members longer than w are all offered, so h = 0.  Otherwise
    h = ceil(m/2), and m is kept if a key at level h ends in w's last
    min(h, _TAIL) letters; any other length has no bucket for w."""

    def __init__(self, append_index: tuple[list[dict], ...]):
        # one entry (m, h, levels, the last _TAIL letters of each key at
        # level h) per member length m
        self.tail = slice(-_TAIL, None)
        self.index = []
        for levels in append_index:
            m = len(levels) - 1
            h = (m + 1) // 2
            self.index.append((m, h, levels, {key[self.tail] for key in levels[h]}))
        self.longest = self.index[-1][0] if self.index else 0

    def __missing__(self, near: tuple[str, int]) -> list:
        # t is w[-_TAIL:].  If h <= _TAIL, tails is the key set of level h;
        # if not, n >= m > 2 * _TAIL, so t[-h:] is t.
        t, n = near
        kept = self[near] = [
            (m, 0 if m > n else h, levels) for m, h, levels, tails in self.index if m > n or t[-h:] in tails
        ]
        return kept


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
    C, and rank in the a < A < b < B letter order.  A conjugation child's
    length is read from the end letters of its parent before it is built,
    and a child of the conjugation by g never builds its conjugation by
    g^-1, which is its parent.  moves_tried still counts every conjugation
    of every state.  Appends follow the half rule: a member no longer than
    the state is offered only if it cancels at least half of itself against
    the state, and every longer member is offered; moves_tried counts every
    offered member.  Each member length that _HalfRuleMemo keeps for the
    state is looked up once, at the level h it gives: the half rule's, or
    0, whose one bucket lists every member, when the members are longer
    than the state.  A length it leaves out would find no bucket, so
    nothing offered changes.  Of the offered members, only the ones whose
    appended word is within the length cutoff are built: the relator set's
    append index is read again at the level of the cancellation the cutoff
    needs, when that is more than h.

    Words longer than the cutoff could never be chosen.  The cutoff of the
    first depth starts at four times the start; each later depth starts it
    at the cutoff the depth before ended with.  A depth whose start admits
    fewer than beam_width candidates starts over at four times the start,
    from no candidates and the depth's starting moves_tried, so it ends as
    a single sweep from there would.
    """
    if start == ():
        return ()
    max_len = 4 * len(start)
    width = config.beam_width
    half_rule = _HalfRuleMemo(relators.append_index)
    tail_of, longest = half_rule.tail, half_rule.longest
    # Conjugation by g maps w to g^-1 w g: (g, g^-1, letter, onward) with g
    # and g^-1 as keys.  onward lists the conjugations the child tries: all
    # but the one by g^-1, which would give back the parent, always visited.
    conjugations = [(order_key((g,)), order_key((-g,)), g, []) for g in letters]
    for _, g_inv, _, onward in conjugations:
        onward += [c for c in conjugations if c[0] != g_inv]
    start_key = order_key(start)
    visited = {start_key}
    # A node is (word, parent, move, the conjugations it tries), the move
    # being its conjugation letter or its appended member.
    beam = [(start_key, None, None, conjugations)]
    # Words longer than the cutoff are never built.  It falls only while at
    # least `width` candidates are strictly shorter than it, so no word
    # beyond it could be chosen, and every word that could is still found
    # first from the same parent.  The first depth starts it at max_len,
    # every later one at the cutoff the depth before ended with.
    cutoff = max_len
    for _ in range(config.max_moves):
        while True:
            # Each new word's node, which joins the beam as it is if chosen.
            # Only this insertion-ordered dict is iterated: str hashes are
            # salted per process, so iterating a set of keys would not be
            # deterministic.
            candidates: dict[str, tuple] = {}
            by_length: list[list[str]] = [[] for _ in range(max_len + 1)]
            kept = 0  # candidates no longer than the cutoff
            # every state counts every conjugation, built or not
            tried = result.moves_tried + len(beam) * len(conjugations)
            for node in beam:
                w, _, _, tries = node
                n = len(w)
                head, tail = w[0], w[-1]
                for g, g_inv, letter, onward in tries:
                    # The end letters give the child's length before it is
                    # built: g^-1 cancels a leading g, and g a trailing g^-1.
                    # The cutoff can fall below n, so rotations are tested too.
                    if g == head:
                        if g_inv == tail:
                            if n - 2 > cutoff:
                                continue
                            word = w[1:-1]
                        elif n > cutoff:
                            continue
                        else:
                            word = w[1:] + g
                    elif g_inv == tail:
                        if n > cutoff:
                            continue
                        word = g_inv + w[:-1]
                    elif n + 2 > cutoff:
                        continue
                    else:
                        word = g_inv + w + g
                    if word not in visited and word not in candidates:
                        candidates[word] = (word, node, letter, onward)
                        by_length[len(word)].append(word)
                        kept += 1
                for m, h, levels in half_rule[w[tail_of], n if n < longest else longest]:
                    # The half rule's bucket: members of length m that
                    # cancel at least h letters; at h = 0, all of them.
                    bucket = levels[h].get(w[n - h :])
                    if bucket is None:
                        continue
                    tried += len(bucket)
                    # Within the cutoff needs a cancellation of k letters;
                    # above h only the members in the k-level bucket have it.
                    k = (n + m - cutoff + 1) // 2
                    if k > h:
                        if k > m or k > n:
                            continue
                        bucket = levels[k].get(w[n - k :])
                        if bucket is None:
                            continue
                    else:
                        k = h
                    # each member's exact cancellation is counted up from k
                    for member, key, inverse_prefixes in bucket:
                        j = k
                        while j < m and w.endswith(inverse_prefixes[j + 1]):
                            j += 1
                        word = w[: n - j] + key[j:]
                        if word not in visited and word not in candidates:
                            candidates[word] = (word, node, member, conjugations)
                            by_length[len(word)].append(word)
                            kept += 1
                while kept - len(by_length[cutoff]) >= width:
                    kept -= len(by_length[cutoff])
                    cutoff -= 1
            # Fewer than `width` words within the carried start leave room
            # for longer ones, so the depth starts over at max_len.
            if kept >= width or cutoff == max_len:
                break
            cutoff = max_len
        # written once per depth, before any way out of the attempt
        result.moves_tried = tried
        if not candidates:
            return None
        if by_length[0]:
            return _moves_of(candidates[""])
        # Rank by (length, key): sort each length natively, shortest first,
        # until the beam is full.
        chosen: list[str] = []
        for bucket in by_length[: cutoff + 1]:
            chosen += sorted(bucket)[: width - len(chosen)]
            if len(chosen) == width:
                break
        beam = [candidates[word] for word in chosen]
        visited.update(chosen)
        result.states_visited += len(beam)
    return None


def search(target: Word, relators: RelatorSet, config: SearchConfig | None = None) -> SearchResult:
    """Beam search for a move log proving the freely reduced target trivial.

    The beam runs from the inverse of the target's cyclically reduced core.
    It is ordered by freely reduced word length, ties broken in the
    a < A < b < B letter order; a visited set prunes re-entered states.
    How a depth offers, counts and prunes its moves, and the length cutoff
    beyond which it builds no word, is told in _beam_attempt.  Restarts
    re-run the beam over random base subsets, so they run only when
    base_subset_size is smaller than the number of bases; they are
    deterministic for a fixed seed.
    A found log starts at the inverse of the target: one conjugation per
    letter of the inverse outer conjugator leads it to the inverted core,
    then the beam's moves follow.
    """
    if config is None:
        config = SearchConfig()
    if not is_freely_reduced(target):
        raise ValueError(f"search target must be freely reduced, got {word_str(target)!r}")
    core, outer = cyclic_reduce(target)
    start = invert(core)
    used = {abs(x) for b in relators.bases for x in b} | {abs(x) for x in core}
    letters = [x for x in LETTERS if abs(x) in used]
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
            result.log = MoveLog(invert(target), invert(outer) + moves)
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
        if isinstance(move, int):
            run.append(move)
        else:
            conjs.append(free_reduce(tuple(run)))
            before_last.extend(run)
            rels.append(move)
            run = []
    conjs.append(free_reduce(invert(tuple(before_last))))
    return fold(ProofWord(tuple(conjs), tuple(rels)))


def decompile(p: ProofWord) -> MoveLog:
    """Move certificate for a proof word: replaying it from the inverse of
    the flattened target reaches the empty word."""
    start = invert(flatten(p))
    moves: list[Move] = []
    for c, r in zip(p.conjugators, p.relators):
        moves.extend(c)
        moves.append(r)
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
    i = 0
    while i < len(survivors):
        # only this occurrence is left out, so an exact twin may prove it
        r, others = survivors[i], survivors[:i] + survivors[i + 1 :]
        if others:
            active = symmetrize([power_base(s, exponent) for s in others], exponent)
            result = search(r, active, config)
            if result.found and verify(reconstruct(result.log), r, relators=active).valid:
                survivors = others
                continue
        i += 1
    return survivors
