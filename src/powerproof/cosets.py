"""Coset enumeration over the trivial subgroup.

HLT-style Todd-Coxeter: cosets are processed in definition order, every
relator is scanned from every coset with gaps filled by new definitions, and
coincidences are resolved with a union-find over coset numbers.  When the
enumeration completes, the live cosets carry a full action of the generators
and their count is the order of the presented group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .words import Alphabet, Word, is_freely_reduced, letter_index, word_str

UNDEF = -1


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: alphabet plus freely reduced relator words."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        for r in self.relators:
            if not r:
                raise ValueError("relators must be non-empty")
            if any(abs(x) > self.alphabet.rank for x in r):
                raise ValueError(f"relator {word_str(r)!r} uses letters beyond rank {self.alphabet.rank}")
            if not is_freely_reduced(r):
                raise ValueError(f"relator {word_str(r)!r} is not freely reduced")


@dataclass
class CosetTable:
    """Result of an enumeration run.

    ``order`` is None when the table limit was hit (inconclusive).  On
    success ``rows`` is the compacted action table:
    ``rows[c][letter_index(g)]`` is the coset reached from c by g, with
    coset 0 the subgroup coset.
    """

    order: int | None
    cosets_defined: int
    rows: list[list[int]] = field(default_factory=list)

    @property
    def overflowed(self) -> bool:
        return self.order is None

    def trace(self, coset: int, w: Word) -> int:
        """Image of a coset under a word (table must be complete)."""
        for x in w:
            coset = self.rows[coset][letter_index(x)]
        return coset


class _Enumerator:
    def __init__(self, pres: Presentation, max_cosets: int):
        self.ncols = 2 * pres.alphabet.rank
        self.relators = [tuple(letter_index(x) for x in r) for r in pres.relators]
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[UNDEF] * self.ncols]
        self.parent = [0]  # union-find; parent[c] <= c, live iff parent[c] == c

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
        return d

    def merge(self, a: int, b: int, queue: deque[int]):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.parent[b] = a
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

    def scan_and_fill(self, c: int, cols: tuple[int, ...]):
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


def enumerate_cosets(pres: Presentation, max_cosets: int = 2_000_000) -> CosetTable:
    """Enumerate cosets of the trivial subgroup.

    Returns the group order on success; an overflow result (order None) when
    more than ``max_cosets`` cosets would need to be defined.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    enum = _Enumerator(pres, max_cosets)
    try:
        enum.run()
    except _Overflow:
        return CosetTable(order=None, cosets_defined=len(enum.table))
    # compact live cosets to 0..n-1
    index = {}
    for c in range(len(enum.table)):
        if enum.parent[c] == c:
            index[c] = len(index)
    rows = [
        [index[enum.rep(enum.table[c][col])] for col in range(enum.ncols)]
        for c in index
    ]
    return CosetTable(order=len(index), cosets_defined=len(enum.table), rows=rows)
