"""Coset enumeration over the trivial subgroup.

HLT-style Todd-Coxeter: cosets are processed in definition order, every
relator is scanned from every coset with gaps filled by new definitions, and
coincidences are resolved with a union-find over coset numbers.  When the
enumeration completes, the live cosets carry a full action of the generators
and their count is the order of the presented group.

The table is stored by column, one list per letter, padded so that a gap
absorbs a walk: ``_Enumerator.run`` walks each relator with no test per letter
and hands only a walk that ended in a gap to ``scan_and_fill``.  Both paths
visit cosets and relators in the same HLT order, so the definitions, the count
of cosets defined and the compacted table are those of a row-per-coset table.
``_Enumerator.coincidence`` runs its finds and unions inline, with no call per
deduction, and the compaction renumbers the live cosets one column at a time
with ``map`` and transposes the columns into rows with ``zip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import Alphabet, Word, is_freely_reduced, letter_index, word_str

UNDEF = -1
# the default bound on cosets defined, for callers and the CLI alike
MAX_COSETS = 2_000_000


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: alphabet plus freely reduced relator words."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        for r in self.relators:
            if not r:
                raise ValueError("relators must be non-empty")
            if not all(0 < abs(x) <= self.alphabet.rank for x in r):
                # r need not be printable in the letter convention
                raise ValueError(f"relator {r} uses letters beyond rank {self.alphabet.rank}")
            if not is_freely_reduced(r):
                raise ValueError(f"relator {word_str(r)!r} is not freely reduced")


@dataclass
class CosetTable:
    """Result of an enumeration run.

    ``order`` is None when the table limit was hit (inconclusive).  On
    success ``rows`` is the compacted action table:
    ``rows[c][letter_index(g)]`` is the coset reached from c by g, with
    coset 0 the subgroup coset.  ``coincidences`` counts the cosets merged
    away and ``live_peak`` the most cosets live at once; on a complete table
    ``coincidences == cosets_defined - order``.
    """

    order: int | None
    cosets_defined: int
    rows: list[list[int]] = field(default_factory=list)
    coincidences: int = 0
    live_peak: int = 0

    @property
    def overflowed(self) -> bool:
        return self.order is None

    def trace(self, coset: int, w: Word) -> int:
        """Image of a coset under a word.

        Raises ValueError on an incomplete (overflowed) table, a coset not
        in the table and a letter beyond the table's rank.
        """
        rows = self.rows
        if not rows:
            raise ValueError("cannot trace in an incomplete coset table: the enumeration overflowed")
        if not 0 <= coset < len(rows):
            raise ValueError(f"coset {coset} is not in the table of order {len(rows)}")
        rank = len(rows[0]) // 2
        for x in w:
            if not 0 < abs(x) <= rank:
                raise ValueError(f"letter {x} is beyond rank {rank}")
            coset = rows[coset][letter_index(x)]
        return coset


class _Enumerator:
    """The enumeration state, stored by column: ``cols[k][c]`` is the image
    of coset c under the letter of index k, or UNDEF.

    Every slot from ``len(parent)`` on is UNDEF, the last one included, so
    ``column[UNDEF]`` is UNDEF and a walk that meets a gap ends at UNDEF.  A
    definition that would take the last slot doubles every column in place:
    a relator's ``fwd[i]`` (column of its letter i) and ``inv[i]`` (column of
    that letter's inverse) alias the columns, so none is ever rebound.
    """

    def __init__(self, pres: Presentation, max_cosets: int):
        self.cols: list[list[int]] = [[UNDEF, UNDEF] for _ in range(2 * pres.alphabet.rank)]
        self.relators = []
        for r in pres.relators:
            idx = tuple(letter_index(x) for x in r)
            self.relators.append((idx, tuple(self.cols[k] for k in idx), tuple(self.cols[k ^ 1] for k in idx)))
        # (column, inverse) of each letter, for the coincidence loop
        self.pairs = tuple((column, self.cols[k ^ 1]) for k, column in enumerate(self.cols))
        self.max_cosets = max_cosets
        self.parent = [0]  # union-find; parent[c] <= c, live iff parent[c] == c
        self.coincidences = 0  # cosets merged away, so len(parent) - coincidences are live
        self.live_peak = 1  # taken where the live count stops rising: entering coincidence, ending run

    def define(self, c: int, col: int) -> int:
        d = len(self.parent)
        if d >= self.max_cosets:
            raise _Overflow
        if d == len(self.cols[0]) - 1:  # keep the last slot UNDEF
            for column in self.cols:
                column.extend([UNDEF] * len(column))
        self.parent.append(d)
        self.cols[col][c] = d
        self.cols[col ^ 1][d] = c
        return d

    def coincidence(self, a: int, b: int):
        """Merge the live cosets a and b and every pair that this forces.

        Merged-away cosets are queued in the order they die.  Each one's
        entries move, column by column, to the representative of its class:
        where that representative (or, backwards, the image's representative)
        already has an entry, the two cosets reached are one, the next pair to
        unite; otherwise the entry is copied across.  The finds (path halving)
        and the union are written inline rather than as calls: a benchmark
        job's two enumerations make about 131,000 finds and 25,000 unions
        here, and making them as calls cost about a tenth of the enumeration
        time.
        """
        parent = self.parent
        self.live_peak = max(self.live_peak, len(parent) - self.coincidences)
        # a and b are distinct live cosets: callers reach them by walks from a
        # live coset, and between coincidences no entry names a dead one
        if a > b:
            a, b = b, a
        parent[b] = a
        queue = [b]  # FIFO: the loop runs on over what it appends
        for dead in queue:
            for column, inverse in self.pairs:
                d = column[dead]
                if d == UNDEF:
                    continue
                inverse[d] = UNDEF
                mu = dead  # the representatives of dead and d, by path halving
                while parent[mu] != mu:
                    parent[mu] = mu = parent[parent[mu]]
                nu = d
                while parent[nu] != nu:
                    parent[nu] = nu = parent[parent[nu]]
                x = column[mu]
                if x != UNDEF:
                    y = nu
                else:
                    x = inverse[nu]
                    if x == UNDEF:
                        column[mu] = nu
                        inverse[nu] = mu
                        continue
                    y = mu
                # y is a representative; unite it with that of x
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                if x != y:
                    if x > y:
                        x, y = y, x
                    parent[y] = x
                    queue.append(y)
        self.coincidences += len(queue)

    def scan_and_fill(self, c: int, idx: tuple[int, ...], fwd: tuple[list[int], ...], inv: tuple[list[int], ...]):
        # Called only for a walk from c that meets a gap, so each forward
        # scan stops at a gap, i <= j: first at the walk's gap, then at the
        # coset just defined, whose one entry leads back the way it came
        # (relators are freely reduced).
        f, i = c, 0
        b, j = c, len(fwd) - 1
        while True:
            while i <= j and fwd[i][f] != UNDEF:
                f = fwd[i][f]
                i += 1
            while j >= i and inv[j][b] != UNDEF:
                b = inv[j][b]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                fwd[i][f] = b
                inv[i][b] = f
                return
            f = self.define(f, idx[i])
            i += 1

    def run(self) -> None:
        parent, cols = self.parent, self.cols
        c = 0
        try:
            while c < len(parent):
                if parent[c] == c:
                    for idx, fwd, inv in self.relators:
                        # a gap absorbs the walk, so only its end is tested
                        f = c
                        for column in fwd:
                            f = column[f]
                        if f != c:
                            if f < 0:  # UNDEF, the only negative entry
                                self.scan_and_fill(c, idx, fwd, inv)
                            else:
                                self.coincidence(f, c)
                            if parent[c] != c:
                                break
                    if parent[c] == c:
                        for col, column in enumerate(cols):
                            if column[c] == UNDEF:
                                self.define(c, col)
                c += 1
        finally:
            self.live_peak = max(self.live_peak, len(parent) - self.coincidences)


class _Overflow(Exception):
    pass


def enumerate_cosets(pres: Presentation, max_cosets: int = MAX_COSETS) -> CosetTable:
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
        order, rows = None, []
    else:
        # compact live cosets to 0..n-1; no live entry names a dead coset
        live = [c for c, p in enumerate(enum.parent) if p == c]
        index = [UNDEF] * len(enum.parent)
        for i, c in enumerate(live):
            index[c] = i
        order = len(live)
        # one lazy column per letter, transposed by zip: the per-coset work
        # runs in C
        columns = [map(index.__getitem__, map(column.__getitem__, live)) for column in enum.cols]
        rows = list(map(list, zip(*columns)))
    return CosetTable(order, len(enum.parent), rows, enum.coincidences, enum.live_peak)
