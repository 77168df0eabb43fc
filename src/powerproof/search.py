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
import zlib
from dataclasses import dataclass
from itertools import chain

from .proofwords import ProofWord, RelatorSet, flatten, fold, power_base, symmetrize, verify
from .words import (
    LETTERS,
    Word,
    conjugate,
    cyclic_reduce,
    free_reduce,
    invert,
    is_freely_reduced,
    order_key,
    word_str,
)


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


# The widest beam the CLI's --beam takes.  The beam's memory grows with its
# width and with the depths it runs.  The E5 search over the Lyndon bases up
# to length 5 (found after about 95 depths) peaked at 79 MB RSS at width
# 10,000 and 142 MB at 20,000; a search that fails through all 256 default
# depths (E5 over the Lyndon bases up to length 3) peaked at 43 MB at width
# 2,000 and 135 MB at 8,000, about 16 KB per unit of width, so it would
# cross 1 GB near 65,000.  The CLI also bounds the width times the depths,
# at MAX_BEAM times the default max_moves.
# SearchConfig takes any width and depths, since a wide beam run for a few
# depths stays small.
MAX_BEAM = 20_000


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
    """A search's move log and counters, and the verified proof it found."""

    log: MoveLog | None
    states_visited: int = 0
    moves_tried: int = 0
    elapsed: float = 0.0
    restarts_used: int = 0
    proof: ProofWord | None = None

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

    def __missing__(self, near: tuple[bytes, int]) -> list:
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

    States are order keys (see words.order_key), bytes: they hash once,
    slice in C, and rank in the a < A < b < B letter order.  A conjugation
    child's length and first letter are read from its parent's letters w[0],
    w[1] and w[-1], letter indices, before it is built, and a child of the
    conjugation by g never builds its conjugation by g^-1, which is its
    parent.  An empty key, b"", is the empty word.  moves_tried still
    counts every conjugation of every state.  Appends follow the half rule:
    a member no longer than the state is offered only if it cancels at
    least half of itself against the state, and every longer member is
    offered; moves_tried counts every offered member.  Each member length
    that _HalfRuleMemo keeps for the state is looked up once, at the level h
    it gives: the half rule's, or 0, whose one bucket lists every member,
    when the members are longer than the state.  A length it leaves out
    would find no bucket, so nothing offered changes.  Of the offered
    members, only the ones whose appended word is within the class cutoff
    are built: the relator set's append index is read again at the level of
    the cancellation that the cutoff's length needs, when that is more than
    h, and each member's exact cancellation then gives its word's class.

    A word's class is (length, first letter), the index len * span + the
    first letter's index, span being 1 + the largest letter index of
    letters; the empty word is class 0.  The cutoff of the first depth
    starts at the top class, whose words are four times as long as the
    start; each later depth starts it one class above the class the depth
    before ended with.  A depth whose start admits fewer than beam_width
    candidates starts over at the top class, from no candidates and the
    depth's starting moves_tried, so it ends as a single sweep from there
    would.

    The visited set holds only the words of the classes that a child of the
    beam can be of.  After each depth's selection, reach is the top class of
    length max(n + 2, min(n, longest - 1) + longest), n being the length of
    the beam's longest word: a conjugation child is at most n + 2 letters
    long, an append of a member no longer than the state cancels at least
    half of it, and a longer member gives at most n + longest letters.  The
    visited words of each class above reach are frozen, joined, len bytes
    per word, compressed by zlib at level 1 into one bytes, and taken out of
    the set; a class with no words freezes to b"", uncompressed.  A frozen
    class that a later reach covers again is decompressed and split back
    into its words, which return to the set.  Every word the node loop
    looks up is a child of the beam, so it finds the set as if every
    visited word were in it.
    """
    if start == ():
        return ()
    span = 1 + max(order_key(letters))
    two_spans = 2 * span
    top = 4 * len(start) * span + span - 1
    width = config.beam_width
    half_rule = _HalfRuleMemo(relators.append_index)
    tail_of, longest = half_rule.tail, half_rule.longest
    # Conjugation by g maps w to g^-1 w g: (g, g^-1, g's key, g^-1's key,
    # letter, onward), with g and g^-1 as letter indices, the ints that a
    # key's letters w[0], w[1] and w[-1] are, beside their 1-byte keys to
    # concatenate.  onward lists the conjugations the child tries: all but
    # the one by g^-1, which would give back the parent, always visited.
    conjugations = []
    for g in letters:
        key = order_key((g, -g))
        conjugations.append((key[0], key[1], key[:1], key[1:], g, []))
    for _, g_inv, _, _, _, onward in conjugations:
        onward += [c for c in conjugations if c[0] != g_inv]
    start_key = order_key(start)
    visited = {start_key}
    # The words chosen into the beam, by class: a list of words that are in
    # visited, up to reach, the top class a child of the beam can be of;
    # above it, frozen, one bytes of the words joined and compressed, or b""
    # for no words, none of them in visited.  The start stays in visited.
    reach = top
    by_visit: list[list[bytes] | bytes] = [[] for _ in range(top + 1)]
    # A node is (word, parent, move, the conjugations it tries), the move
    # being its conjugation letter or its appended member.
    beam = [(start_key, None, None, conjugations)]
    # Words of a class above the cutoff are never built.  It falls only
    # while at least `width` candidates are of a class strictly below it.
    # In (length, key) order every word of a class comes before every word
    # of the next, so no word beyond the cutoff could be chosen, and every
    # word that could is still found first from the same parent.
    cutoff = top
    for _ in range(config.max_moves):
        while True:
            # Each new word's node, which joins the beam as it is if chosen.
            # Only this insertion-ordered dict is iterated: bytes hashes are
            # salted per process, so iterating a set of keys would not be
            # deterministic.
            candidates: dict[bytes, tuple] = {}
            by_class: list[list[bytes]] = [[] for _ in range(cutoff + 1)]
            kept = 0  # candidates of a class no higher than the cutoff
            # every state counts every conjugation, built or not
            tried = result.moves_tried + len(beam) * len(conjugations)
            for node in beam:
                w, _, _, tries = node
                n = len(w)
                head, tail = w[0], w[-1]
                # the class of a word of length n, less its first letter's
                # index, and of one of length n + 2
                base = n * span
                grown = base + two_spans
                for g, g_inv, g_key, g_inv_key, letter, onward in tries:
                    # The end letters give the child's class before it is
                    # built: g^-1 cancels a leading g, and g a trailing g^-1.
                    # The cutoff can fall below w's class, so rotations are
                    # tested too.  At n = 1 the rotation is w, always visited.
                    if g == head:
                        if g_inv == tail:
                            c = base - two_spans + w[1]
                            if c > cutoff:
                                continue
                            word = w[1:-1]
                        elif n == 1:
                            continue
                        else:
                            c = base + w[1]
                            if c > cutoff:
                                continue
                            word = w[1:] + g_key
                    elif g_inv == tail:
                        c = base + g_inv
                        if c > cutoff:
                            continue
                        word = g_inv_key + w[:-1]
                    else:
                        c = grown + g_inv
                        if c > cutoff:
                            continue
                        word = g_inv_key + w + g_key
                    if word not in visited and word not in candidates:
                        candidates[word] = (word, node, letter, onward)
                        by_class[c].append(word)
                        kept += 1
                for m, h, levels in half_rule[w[tail_of], n if n < longest else longest]:
                    # The half rule's bucket: members of length m that
                    # cancel at least h letters; at h = 0, all of them.
                    bucket = levels[h].get(w[n - h :])
                    if bucket is None:
                        continue
                    tried += len(bucket)
                    # Within the cutoff's length needs a cancellation of k
                    # letters; above h only the members in the k-level
                    # bucket have it.
                    k = (n + m - cutoff // span + 1) // 2
                    if k > h:
                        if k > m or k > n:
                            continue
                        bucket = levels[k].get(w[n - k :])
                        if bucket is None:
                            continue
                    else:
                        k = h
                    # the class of the word that cancels j < n letters, at j = 0
                    appended = base + m * span + head
                    # each member's exact cancellation is counted up from k;
                    # it gives the word's class before the word is built
                    for member, key, inverse_prefixes in bucket:
                        j = k
                        while j < m and w.endswith(inverse_prefixes[j + 1]):
                            j += 1
                        if j < n:
                            c = appended - j * two_spans
                        elif j < m:
                            c = (m - n) * span + key[n]
                        else:
                            c = 0  # the empty word
                        if c > cutoff:
                            continue
                        word = w[: n - j] + key[j:]
                        if word not in visited and word not in candidates:
                            candidates[word] = (word, node, member, conjugations)
                            by_class[c].append(word)
                            kept += 1
                while kept - len(by_class[cutoff]) >= width:
                    kept -= len(by_class[cutoff])
                    cutoff -= 1
            # Fewer than `width` words within the carried start leave room
            # for others, so the depth starts over at the top class.
            if kept >= width or cutoff == top:
                break
            cutoff = top
        # written once per depth, before any way out of the attempt
        result.moves_tried = tried
        if not candidates:
            return None
        if b"" in candidates:
            return _moves_of(candidates[b""])
        # Rank by (length, key): sort each class natively, lowest first,
        # until the beam is full; most classes are empty.
        chosen: list[bytes] = []
        for bucket in filter(None, by_class[: cutoff + 1]):
            taken = sorted(bucket)[: width - len(chosen)]
            by_visit[len(bucket[0]) * span + bucket[0][0]] += taken
            chosen += taken
            if len(chosen) == width:
                break
        beam = [candidates[word] for word in chosen]
        visited.update(chosen)
        result.states_visited += len(beam)
        # A child of the beam is at most n + 2 letters long by a conjugation,
        # n by the half rule's append, and n + longest by a member longer
        # than its state, n being the length of the beam's last, longest,
        # word.  Freeze the classes the new reach leaves, thaw those it adds.
        n = len(chosen[-1])
        old, reach = reach, min(max(n + 2, min(n, longest - 1) + longest) * span + span - 1, top)
        for c in range(reach + 1, old + 1):
            visited.difference_update(by_visit[c])
            by_visit[c] = zlib.compress(b"".join(by_visit[c]), 1) if by_visit[c] else b""
        for c in range(old + 1, reach + 1):
            frozen, n = by_visit[c], c // span
            frozen = zlib.decompress(frozen) if frozen else b""
            by_visit[c] = [frozen[i : i + n] for i in range(0, len(frozen), n)]
            visited.update(by_visit[c])
        # the next depth starts one class above the class this one ended at
        cutoff = min(cutoff + 1, top)
    return None


def search(target: Word, relators: RelatorSet, config: SearchConfig | None = None) -> SearchResult:
    """Beam search for a move log proving the freely reduced target trivial.

    The beam runs from the inverse of the target's cyclically reduced core,
    ordered by freely reduced length, ties broken in the a < A < b < B
    letter order; a visited set prunes re-entered states, and holds only the
    classes a child of the beam can reach.  _beam_attempt tells how a depth
    offers, counts and prunes its moves, its class cutoff, and how it
    freezes the visited classes out of reach.  Restarts re-run the beam over
    random base subsets, so they run only when base_subset_size is below
    the number of bases; a fixed seed makes them deterministic.  A found log
    starts at the inverse of the target: one conjugation per letter of the
    inverse outer conjugator leads it to the inverted core, then the beam's
    moves follow.  The log's reconstruction is verified against all of
    relators, also when an attempt sampled a subset, and is result.proof;
    one that fails raises ValueError.
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
            result.proof = reconstruct(result.log)
            if not verify(result.proof, target, relators=relators).valid:
                raise ValueError("the reconstructed proof does not verify")
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
    for move in log.moves:
        if isinstance(move, int):
            run.append(move)
        else:
            conjs.append(free_reduce(tuple(run)))
            rels.append(move)
            run = []
    conjs.append(invert(free_reduce(chain.from_iterable(conjs))))
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
    the surviving bases; it is removed only when found, and search verifies
    every proof it finds, so the presented group never changes.  Every
    relator's base is worked out before the first search, so a relator that
    is not an e-th power raises ValueError at once.
    """
    survivors = list(relators)
    bases = [power_base(r, exponent) for r in survivors]
    i = 0
    while i < len(survivors):
        # only this occurrence is left out, so an exact twin may prove it
        r, others = survivors[i], bases[:i] + bases[i + 1 :]
        if others:
            active = symmetrize(others, exponent)
            if search(r, active, config).found:
                del survivors[i], bases[i]
                continue
        i += 1
    return survivors
