"""Coset enumeration over the trivial subgroup.

HLT-style Todd-Coxeter: cosets are processed in definition order, every
relator is scanned from every coset with gaps filled by new definitions, and
coincidences are resolved with a union-find over coset numbers.  When the
enumeration completes, the live cosets carry a full action of the generators
and their count is the order of the presented group.

A relator whose cyclic core is, up to rotation and inversion, a power v^k of
another relator's core v is left out of the scan list when k >= 2, or when
k = 1 and the other relator comes first: it lies in the normal closure of
the other, so the group is the same, and its walks would only repeat the
other's.  ``Presentation.relators`` keeps every relator.

The table is stored by column, one list per letter, padded so that a gap
absorbs a walk: ``_Enumerator.run`` walks each relator with no test per letter
and hands only a walk that ended in a gap to ``scan_and_fill``.  Both paths
visit cosets and relators in the same HLT order, so the definitions, the count
of cosets defined and the compacted table are those of a row-per-coset table
over the same scan list.  ``_Enumerator.coincidence`` runs its finds and
unions inline, with no call per deduction.  The result keeps the parent list
and columns, and compacts them into rows only when ``CosetTable.rows`` is
first read, so ``order`` builds no row table: the compaction renumbers the
live cosets one column at a time with ``map`` and transposes the columns into
rows with ``zip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

from .bracelets import bracelet_canon, primitive_root
from .words import Alphabet, Word, cyclic_reduce, is_freely_reduced, letter_index, word_str

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


_COMPARED = attrgetter("order", "cosets_defined", "coincidences", "live_peak", "rows")


@dataclass(eq=False)
class CosetTable:
    """Result of an enumeration run.

    ``order`` is None when the table limit was hit (inconclusive).
    ``coincidences`` counts the cosets merged away and ``live_peak`` the most
    cosets live at once; on a complete table
    ``coincidences == cosets_defined - order``.

    A complete table keeps the enumerator's union-find ``parent`` list (a
    coset c is live iff ``parent[c] == c``) and its ``columns``, one per
    letter and indexed by coset.  ``rows`` derives from them on first read:
    the compacted action table, ``rows[c][letter_index(g)]`` the coset
    reached from c by g, with coset 0 the subgroup coset; it is empty on an
    overflowed table.  Tables are equal when their counts and rows are.
    """

    order: int | None
    cosets_defined: int
    coincidences: int = 0
    live_peak: int = 0
    parent: list[int] = field(default_factory=list, repr=False)
    columns: list[list[int]] = field(default_factory=list, repr=False)

    @property
    def overflowed(self) -> bool:
        return self.order is None

    @cached_property
    def rows(self) -> list[list[int]]:
        # compact live cosets to 0..n-1; no live entry names a dead coset
        live = [c for c, p in enumerate(self.parent) if p == c]
        index = [UNDEF] * len(self.parent)
        for i, c in enumerate(live):
            index[c] = i
        # one lazy column per letter, transposed by zip: the per-coset work
        # runs in C
        columns = [map(index.__getitem__, map(column.__getitem__, live)) for column in self.columns]
        return list(map(list, zip(*columns)))

    def __eq__(self, other):
        if not isinstance(other, CosetTable):
            return NotImplemented
        return _COMPARED(self) == _COMPARED(other)

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


def _scan_list(relators: tuple[Word, ...]) -> list[Word]:
    """The relators that the enumerator scans, in their given order: each
    core is keyed by the bracelet class of its primitive root and its power,
    and a relator is left out when another's core has the same root and a
    power that properly divides its own, or when an earlier one has the same
    key."""
    keys = []
    powers: dict[Word, set[int]] = {}
    for r in relators:
        v, k = primitive_root(cyclic_reduce(r)[0])
        root = bracelet_canon(v)
        keys.append((root, k))
        powers.setdefault(root, set()).add(k)
    seen = set()
    kept = []
    for r, (root, k) in zip(relators, keys):
        if (root, k) not in seen and not any(k % j == 0 for j in powers[root] if j < k):
            kept.append(r)
        seen.add((root, k))
    return kept


class _Enumerator:
    """The enumeration state, stored by column: ``cols[k][c]`` is the image
    of coset c under the letter of index k, or UNDEF.  A letter is named by
    its pair ``(column, inverse)`` from ``pairs``, and a relator by its two
    column tuples ``(fwd, inv)``: ``fwd[i]`` is the column of its letter i
    and ``inv[i]`` the column of that letter's inverse.

    Every slot from ``len(parent)`` on is UNDEF, the last one included, so
    ``column[UNDEF]`` is UNDEF and a walk that meets a gap ends at UNDEF.  A
    definition that would take the last slot doubles every column in place:
    the pairs and relator tuples alias the columns, so none is ever rebound.
    """

    def __init__(self, pres: Presentation, max_cosets: int):
        self.cols: list[list[int]] = [[UNDEF, UNDEF] for _ in range(2 * pres.alphabet.rank)]
        # (column, inverse) of each letter, in letter-index order
        self.pairs = tuple((column, self.cols[k ^ 1]) for k, column in enumerate(self.cols))
        self.relators = [
            tuple(zip(*(self.pairs[letter_index(x)] for x in r))) for r in _scan_list(pres.relators)
        ]
        self.max_cosets = max_cosets
        self.parent = [0]  # union-find; parent[c] <= c, live iff parent[c] == c
        self.coincidences = 0  # cosets merged away, so len(parent) - coincidences are live
        self.live_peak = 1  # taken where the live count stops rising: entering coincidence, ending run

    def define(self, c: int, column: list[int], inverse: list[int]) -> int:
        d = len(self.parent)
        if d >= self.max_cosets:
            raise _Overflow
        if d == len(column) - 1:  # keep the last slot UNDEF
            for col in self.cols:
                col.extend([UNDEF] * len(col))
        self.parent.append(d)
        column[c] = d
        inverse[d] = c
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

    def scan_and_fill(self, c: int, fwd: tuple[list[int], ...], inv: tuple[list[int], ...]):
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
            f = self.define(f, fwd[i], inv[i])
            i += 1

    def run(self) -> None:
        parent = self.parent
        c = 0
        try:
            while c < len(parent):
                if parent[c] == c:
                    for fwd, inv in self.relators:
                        # a gap absorbs the walk, so only its end is tested
                        f = c
                        for column in fwd:
                            f = column[f]
                        if f != c:
                            if f < 0:  # UNDEF, the only negative entry
                                self.scan_and_fill(c, fwd, inv)
                            else:
                                self.coincidence(f, c)
                            if parent[c] != c:
                                break
                    if parent[c] == c:
                        for column, inverse in self.pairs:
                            if column[c] == UNDEF:
                                self.define(c, column, inverse)
                c += 1
        finally:
            self.live_peak = max(self.live_peak, len(parent) - self.coincidences)


class _Overflow(Exception):
    pass


def enumerate_cosets(pres: Presentation, max_cosets: int = MAX_COSETS) -> CosetTable:
    """Enumerate cosets of the trivial subgroup.

    Returns the group order on success; an overflow result (order None) when
    more than ``max_cosets`` cosets would need to be defined.  The order is
    the live count, ``len(parent) - coincidences``; the row table is built
    only if ``rows`` is read.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    enum = _Enumerator(pres, max_cosets)
    try:
        enum.run()
    except _Overflow:
        return CosetTable(None, len(enum.parent), enum.coincidences, enum.live_peak)
    defined = len(enum.parent)
    return CosetTable(
        defined - enum.coincidences, defined, enum.coincidences, enum.live_peak, parent=enum.parent, columns=enum.cols
    )
