"""Shared test helpers: an independent string-based word oracle, the tuple
bracelet-canon oracle, the naive append filter, the reference beam, the
row-major reference coset enumerator, its relator filter and the coset-table
certificate by its definition, seeded random generators for words and valid
proof words, base-word lists, and the environment of a ``python -m
powerproof`` child."""

from __future__ import annotations

import os
import random
from collections import deque

import powerproof
from powerproof.bracelets import enumerate_lyndon, enumerate_reduced_bracelets
from powerproof.cosets import UNDEF, CosetTable, Presentation
from powerproof.proofwords import ProofWord, RelatorSet
from powerproof.search import MoveLog, SearchConfig, apply_move
from powerproof.words import AB, Alphabet, Word, cyclic_reduce, free_reduce, invert, order_key, power, rotations


def package_env(**extra: str) -> dict[str, str]:
    """The environment for a ``python -m powerproof`` child: ``PYTHONPATH``
    names the directory that holds the imported package (the source tree or
    an installed copy), so the child runs the package under test."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(powerproof.__file__)), **extra}


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
    """Least rotation of w or of its inverse, compared as order keys, the
    bytes of their letter indices: the a < A < b < B letter order."""
    return min(rotations(w) | rotations(invert(w)), key=order_key)


def naive_appendable(relators: RelatorSet, w: Word) -> list[Word]:
    """Members, by (length, key), that cancel at least half of themselves
    against w, plus every member longer than w."""
    out = []
    for r in sorted(relators.members, key=lambda r: (len(r), order_key(r))):
        k = 0
        while k < min(len(w), len(r)) and w[-1 - k] == -r[k]:
            k += 1
        if len(w) < len(r) or 2 * k >= len(r):
            out.append(r)
    return out


def reference_search(
    target: Word, relators: RelatorSet, config: SearchConfig
) -> tuple[MoveLog | None, int, int]:
    """The beam search with no cutoff: (log, states_visited,
    moves_tried) of one attempt, so configs that sample bases are out of
    scope.

    States are tuples moved by apply_move; every candidate of a depth is
    built, first found first kept, and the whole set is ranked by (length,
    key), words longer than four times the core dropped.
    """
    core, outer = cyclic_reduce(target)
    lead = invert(outer)
    start = invert(core)
    if start == ():
        return MoveLog(invert(target), lead), 0, 0
    letters = sorted({abs(x) for r in relators.members for x in r} | {abs(x) for x in core})
    conjugations = [s * g for g in letters for s in (1, -1)]
    max_len = 4 * len(start)
    visited = {start}
    beam: list[tuple[Word, tuple]] = [(start, ())]
    states = moves_tried = 0
    for _ in range(config.max_moves):
        candidates: dict[Word, tuple] = {}
        for w, path in beam:
            offered = conjugations + naive_appendable(relators, w)
            moves_tried += len(offered)
            for move in offered:
                u = apply_move(w, move)
                if len(u) <= max_len and u not in visited and u not in candidates:
                    candidates[u] = path + (move,)
        if not candidates:
            break
        if () in candidates:
            return MoveLog(invert(target), lead + candidates[()]), states, moves_tried
        beam = sorted(candidates.items(), key=lambda item: (len(item[0]), order_key(item[0])))[: config.beam_width]
        visited.update(w for w, _ in beam)
        states += len(beam)
    return None, states, moves_tried


def naive_scan_list(relators: tuple[Word, ...]) -> list[Word]:
    """The relators left once every implied one is dropped: relator i goes
    when its cyclic core is a rotation of d^m or of its inverse, with d the
    core of another relator j and m >= 2, or m = 1 and j < i."""
    cores = [cyclic_reduce(r)[0] for r in relators]

    def implied(i: int) -> bool:
        c = cores[i]
        for j, d in enumerate(cores):
            m, rest = divmod(len(c), len(d))
            if j != i and not rest and (m >= 2 or j < i):
                if c in rotations(power(d, m)) | rotations(invert(power(d, m))):
                    return True
        return False

    return [r for i, r in enumerate(relators) if not implied(i)]


class _RowMajorEnumerator:
    def __init__(self, pres: Presentation, max_cosets: int, scan_all: bool, subgroup: tuple[Word, ...]):
        self.ncols = 2 * pres.alphabet.rank
        relators = pres.relators if scan_all else naive_scan_list(pres.relators)
        self.relators = list(map(order_key, relators))
        self.subgroup = list(map(order_key, subgroup))
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[UNDEF] * self.ncols]
        self.parent = [0]  # union-find; parent[c] <= c, live iff parent[c] == c
        self.coincidences = 0
        self.live_peak = 1

    def rep(self, c: int) -> int:
        r = c
        parent = self.parent
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def define(self, c: int, col: int) -> int:
        d = len(self.table)
        if d >= self.max_cosets:
            raise _Overflow
        self.table.append([UNDEF] * self.ncols)
        self.parent.append(d)
        self.table[c][col] = d
        self.table[d][col ^ 1] = c
        self.live_peak = max(self.live_peak, len(self.table) - self.coincidences)
        return d

    def merge(self, a: int, b: int, queue: deque[int]):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.parent[b] = a
            self.coincidences += 1
            queue.append(b)

    def coincidence(self, a: int, b: int):
        queue: deque[int] = deque()
        self.merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            row = self.table[dead]
            for col in range(self.ncols):
                d = row[col]
                if d == UNDEF:
                    continue
                self.table[d][col ^ 1] = UNDEF
                mu, nu = self.rep(dead), self.rep(d)
                if self.table[mu][col] != UNDEF:
                    self.merge(nu, self.table[mu][col], queue)
                elif self.table[nu][col ^ 1] != UNDEF:
                    self.merge(mu, self.table[nu][col ^ 1], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def scan_and_fill(self, c: int, cols: bytes):
        table = self.table
        f, i = c, 0
        b, j = c, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] != UNDEF:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] != UNDEF:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            f = self.define(f, cols[i])
            i += 1

    def run(self) -> None:
        for cols in self.subgroup:
            self.scan_and_fill(0, cols)
        c = 0
        while c < len(self.table):
            if self.parent[c] == c:
                for cols in self.relators:
                    self.scan_and_fill(c, cols)
                    if self.parent[c] != c:
                        break
                if self.parent[c] == c:
                    for col in range(self.ncols):
                        if self.table[c][col] == UNDEF:
                            self.define(c, col)
            c += 1


class _Overflow(Exception):
    pass


def reference_enumerate_cosets(
    pres: Presentation, max_cosets: int = 2_000_000, scan_all: bool = False, subgroup: tuple[Word, ...] = ()
) -> CosetTable:
    """HLT enumeration on a row-major table, one row list per coset: each
    ``subgroup`` word scanned from coset 0 first, then every relator of
    ``naive_scan_list`` (of every relator, with ``scan_all``) scanned by
    ``scan_and_fill``, the live count checked after every definition: the
    reference that the library's column-major enumerator must match coset
    for coset and counter for counter.

    Returns the index of the subgroup (the group order over the trivial
    subgroup) on success; an overflow result (order None) when more than
    ``max_cosets`` cosets would need to be defined.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    enum = _RowMajorEnumerator(pres, max_cosets, scan_all, subgroup)
    try:
        enum.run()
    except _Overflow:
        return CosetTable(
            order=None,
            cosets_defined=len(enum.table),
            coincidences=enum.coincidences,
            live_peak=enum.live_peak,
            subgroup=subgroup,
        )
    # compact live cosets to 0..n-1
    index = {}
    for c in range(len(enum.table)):
        if enum.parent[c] == c:
            index[c] = len(index)
    columns = [[index[enum.rep(enum.table[c][col])] for c in index] for col in range(enum.ncols)]
    return CosetTable(
        order=len(index),
        cosets_defined=len(enum.table),
        coincidences=enum.coincidences,
        live_peak=enum.live_peak,
        columns=columns,
        subgroup=subgroup,
    )


def reference_certifies(table: CosetTable, pres: Presentation) -> bool:
    """``CosetTable.certifies`` by its definition, one coset at a time: a
    complete table whose every column each inverse column undoes, in which
    ``trace`` takes every relator of ``pres`` from every coset back to it and
    every subgroup generator from coset 0 back to 0."""
    if table.overflowed:
        return False
    cosets = range(table.order)
    columns = table.columns
    return (
        all(d in cosets for column in columns for d in column)
        and all(columns[k ^ 1][columns[k][c]] == c for k in range(len(columns)) for c in cosets)
        and all(table.trace(c, r) == c for r in pres.relators for c in cosets)
        and all(table.trace(0, h) == 0 for h in table.subgroup)
    )


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


def bracelet_bases(max_len: int, rank: int = 2) -> list[Word]:
    """Canonical representatives of every reduced bracelet of the given rank
    up to max_len."""
    return [c.canonical for n in range(1, max_len + 1) for c in enumerate_reduced_bracelets(Alphabet(rank), n)]


def lyndon_bases(max_len: int) -> list[Word]:
    """The Lyndon words over a and b up to max_len, shortest first."""
    return [c.canonical for n in range(1, max_len + 1) for c in enumerate_lyndon(AB, n)]


def random_proof(
    rng: random.Random, relators: RelatorSet, n_relators: int, conj_len: int, rank: int = 2
) -> ProofWord:
    """Valid-by-construction proof word for the target it flattens to.

    Conjugator segments are random freely reduced words of the given rank;
    the trailing segment is the inverse of the rest, so the excision word is
    trivial.
    """
    members = sorted(relators.members)
    rels = tuple(rng.choice(members) for _ in range(n_relators))
    conjs = [random_reduced_word(rng, rng.randrange(conj_len + 1), rank) for _ in range(n_relators)]
    closing: list[int] = []
    for c in conjs:
        closing.extend(c)
    conjs.append(free_reduce(invert(tuple(closing))))
    return ProofWord(tuple(conjs), rels)
