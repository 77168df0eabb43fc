"""Coset enumeration, and group orders read from it.

HLT-style Todd-Coxeter: the subgroup's generators are scanned from coset 0,
then cosets are processed in definition order, every relator is scanned from
every coset with gaps filled by new definitions, and coincidences are
resolved with a union-find over coset numbers.  When the enumeration
completes, the live cosets carry a full action of the generators and their
count is the index of the subgroup; over the trivial subgroup, the default,
that is the order of the presented group.

``group_order`` enumerates the cosets of a cyclic subgroup <x> whose order it
can certify, which defines fewer cosets than the trivial subgroup: x is the
generator with the largest k, the gcd of the exponents of the relators whose
cyclic core is a power of x or x^-1, so x^k = 1 and the order of x divides
k.  The permutation of x on the complete table is an image of <x>, so when
the lcm of its cycle lengths is k, x has order exactly k and the group order
is index * k.  Otherwise, and when no relator is a letter power or the
subgroup run overflows, it enumerates over the trivial subgroup.
``CosetTable.certifies`` checks a table independently of the enumerator:
a complete permutation action in which every scanned relator fixes every
coset and every subgroup generator fixes coset 0.

A relator whose cyclic core is, up to rotation and inversion, a power v^k of
another relator's core v is left out of the scan list when k >= 2, or when
k = 1 and the other relator comes first: it lies in the normal closure of
the other, so the group is the same, and its walks would only repeat the
other's.  ``Presentation.relators`` keeps every relator.

The enumerator stores its table by column, one list per letter, padded so
that a gap absorbs a walk: ``_Enumerator.run`` walks each relator with no test
per letter and hands only a walk that ended in a gap to ``scan_and_fill``.
Both paths visit cosets and relators in the same HLT order, so the
definitions, the count of cosets defined and the compacted table are those of
a row-per-coset table over the same scan list.  ``_Enumerator.coincidence``
runs its finds and unions inline, with no call per deduction.  A complete run
is compacted once, its live cosets renumbered with ``map``, and the
``CosetTable`` stores only those columns: ``rows`` is a transpose derived on
first read, which ``order`` never builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm

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
        _check_words(self.relators, self.alphabet.rank, "relator")


def _check_words(words: tuple[Word, ...], rank: int, kind: str) -> None:
    for r in words:
        if not r:
            raise ValueError(f"{kind}s must be non-empty")
        if not all(0 < abs(x) <= rank for x in r):
            # r need not be printable in the letter convention
            raise ValueError(f"{kind} {r} uses letters beyond rank {rank}")
        if not is_freely_reduced(r):
            raise ValueError(f"{kind} {word_str(r)!r} is not freely reduced")


@dataclass
class CosetTable:
    """Result of an enumeration run over the subgroup generated by
    ``subgroup``, trivial when it is empty.

    ``order`` is the number of cosets, the index of the subgroup (over the
    trivial subgroup, the group order), or None when the table limit was hit
    (inconclusive).  ``coincidences`` counts the cosets merged away and
    ``live_peak`` the most cosets live at once; on a complete table
    ``coincidences == cosets_defined - order``.

    ``columns`` is the one stored table: the compacted action of a complete
    run, ``columns[letter_index(g)][c]`` the coset reached from c by g, with
    coset 0 the subgroup coset; it is empty on an overflowed table.  ``rows``
    is its transpose, ``rows[c][letter_index(g)]``, derived on first read.
    Tables are equal when their counts, subgroups and columns are.
    """

    order: int | None
    cosets_defined: int
    coincidences: int = 0
    live_peak: int = 0
    subgroup: tuple[Word, ...] = ()
    columns: list[list[int]] = field(default_factory=list, repr=False)

    @property
    def overflowed(self) -> bool:
        return self.order is None

    @cached_property
    def rows(self) -> list[list[int]]:
        return list(map(list, zip(*self.columns)))

    def _letter_columns(self, w: Word) -> list[list[int]]:
        """The columns of a word's letters, in order.  Raises ValueError on
        an incomplete (overflowed) table and a letter beyond its rank."""
        if self.overflowed:
            raise ValueError("cannot trace in an incomplete coset table: the enumeration overflowed")
        rank = len(self.columns) // 2
        for x in w:
            if not 0 < abs(x) <= rank:
                raise ValueError(f"letter {x} is beyond rank {rank}")
        return [self.columns[letter_index(x)] for x in w]

    def trace(self, coset: int, w: Word) -> int:
        """Image of a coset under a word.

        Raises ValueError on an incomplete (overflowed) table, a letter
        beyond the table's rank and a coset not in the table.
        """
        columns = self._letter_columns(w)
        if not 0 <= coset < self.order:
            raise ValueError(f"coset {coset} is not in the table of order {self.order}")
        for column in columns:
            coset = column[coset]
        return coset

    def permutation(self, w: Word) -> list[int]:
        """The image of every coset under a word, indexed by coset.

        Raises ValueError on an incomplete (overflowed) table and a letter
        beyond the table's rank.
        """
        columns = self._letter_columns(w)
        perm = list(range(self.order))
        for column in columns:
            perm = list(map(column.__getitem__, perm))
        return perm

    def fixes(self, w: Word) -> bool:
        """True when the word maps every coset to itself.

        A word fixes every coset exactly when its cyclic core does, and a
        core v^k exactly when the k-th power of v's permutation is the
        identity, which is taken by repeated squaring: the fourth power of a
        base of n letters costs n + 2 compositions, not 4n.
        """
        core = cyclic_reduce(w)[0]
        root, k = primitive_root(core) if core else (core, 1)
        perm = self.permutation(root)
        power = None
        while True:
            if k & 1:
                power = perm if power is None else list(map(perm.__getitem__, power))
            k >>= 1
            if not k:
                return power == list(range(len(power)))
            perm = list(map(perm.__getitem__, perm))

    def certifies(self, pres: Presentation) -> bool:
        """True when the table is a coset table of its subgroup in the group
        that ``pres`` presents: complete, a permutation action (each letter's
        column undone by its inverse's), with every relator of the scan list
        fixing every coset and every subgroup generator fixing coset 0.
        Relators left out of the scan list are implied by those kept."""
        if self.overflowed:
            return False
        columns = self.columns
        identity = list(range(self.order))
        return (
            not any(UNDEF in column for column in columns)
            and all(
                list(map(inverse.__getitem__, column)) == identity
                for column, inverse in zip(columns[::2], columns[1::2])
            )
            and all(map(self.fixes, _scan_list(pres.relators)))
            and all(self.permutation(h)[0] == 0 for h in self.subgroup)
        )


def _root_powers(relators: tuple[Word, ...]) -> list[tuple[Word, int]]:
    """(root, k) for each relator: its cyclic core is v^k with v primitive,
    and root is v's bracelet class, a rotation of v or of v^-1."""
    roots = [primitive_root(cyclic_reduce(r)[0]) for r in relators]
    return [(bracelet_canon(v), k) for v, k in roots]


def _scan_list(relators: tuple[Word, ...]) -> list[Word]:
    """The relators that the enumerator scans, in their given order: each
    core is keyed by its root and power, and a relator is left out when
    another's core has the same root and a power that properly divides its
    own, or when an earlier one has the same key."""
    keys = _root_powers(relators)
    powers: dict[Word, set[int]] = {}
    for root, k in keys:
        powers.setdefault(root, set()).add(k)
    first: dict[tuple[Word, int], Word] = {}
    for r, key in zip(relators, keys):
        first.setdefault(key, r)
    return [r for (root, k), r in first.items() if not any(k % j == 0 for j in powers[root] if j < k)]


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

    def __init__(self, pres: Presentation, max_cosets: int, subgroup: tuple[Word, ...] = ()):
        self.cols: list[list[int]] = [[UNDEF, UNDEF] for _ in range(2 * pres.alphabet.rank)]
        # (column, inverse) of each letter, in letter-index order
        self.pairs = tuple((column, self.cols[k ^ 1]) for k, column in enumerate(self.cols))
        self.subgroup = [self.walk(h) for h in subgroup]
        self.relators = [self.walk(r) for r in _scan_list(pres.relators)]
        self.max_cosets = max_cosets
        self.parent = [0]  # union-find; parent[c] <= c, live iff parent[c] == c
        self.coincidences = 0  # cosets merged away, so len(parent) - coincidences are live
        self.live_peak = 1  # taken where the live count stops rising: entering coincidence, ending run

    def walk(self, w: Word) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
        """The ``(fwd, inv)`` column tuples of a word."""
        return tuple(zip(*(self.pairs[letter_index(x)] for x in w)))

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
            # HLT's start: each subgroup generator is scanned from coset 0,
            # which stays live, being the least coset
            for fwd, inv in self.subgroup:
                f = 0
                for column in fwd:
                    f = column[f]
                if f < 0:
                    self.scan_and_fill(0, fwd, inv)
                elif f:
                    self.coincidence(f, 0)
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


def enumerate_cosets(
    pres: Presentation, max_cosets: int = MAX_COSETS, subgroup: tuple[Word, ...] = ()
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the ``subgroup``
    words, the trivial subgroup by default.

    Returns the index, which over the trivial subgroup is the group order,
    on success; an overflow result (order None) when more than
    ``max_cosets`` cosets would need to be defined.  A complete table is
    compacted once, here, into its ``columns``.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    subgroup = tuple(subgroup)
    _check_words(subgroup, pres.alphabet.rank, "subgroup generator")
    enum = _Enumerator(pres, max_cosets, subgroup)
    try:
        enum.run()
    except _Overflow:
        return CosetTable(None, len(enum.parent), enum.coincidences, enum.live_peak, subgroup=subgroup)
    # the live cosets renumbered 0..n-1, the per-coset work in C; an entry
    # that is UNDEF or names a dead coset reads UNDEF, which certifies rejects
    live = [c for c, p in enumerate(enum.parent) if p == c]
    index = [UNDEF] * (len(enum.parent) + 1)
    for i, c in enumerate(live):
        index[c] = i
    columns = [list(map(index.__getitem__, map(column.__getitem__, live))) for column in enum.cols]
    return CosetTable(len(live), len(enum.parent), enum.coincidences, enum.live_peak, subgroup, columns)


def _letter_power(relators: tuple[Word, ...]) -> tuple[int, int]:
    """(x, k): the generator x with the largest k, the gcd of the exponents of
    the relators whose cyclic core is a power of x or x^-1, ties going to
    the earlier generator; (0, 0) when no relator is such a power."""
    exponents: dict[int, int] = {}
    for root, k in _root_powers(relators):
        if len(root) == 1:  # bracelet_canon names the class of x^-1 by x
            exponents[root[0]] = gcd(exponents.get(root[0], 0), k)
    return max(exponents.items(), key=lambda item: (item[1], -item[0]), default=(0, 0))


def _cycle_lcm(perm: list[int]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        length, c = 0, start
        while not seen[c]:
            seen[c] = True
            c = perm[c]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def group_order(pres: Presentation, max_cosets: int = MAX_COSETS) -> tuple[int | None, CosetTable]:
    """The order of the presented group, or None when the enumeration
    overflowed, and the complete or overflowed table it was read from.

    The table is that of a certified cyclic subgroup <x> of order k, and the
    order is its index times k, when some relator is a power of a letter and
    the permutation of x on the table has order k (see the module
    docstring); else it is the table of the trivial subgroup and the order is
    its index.  Either run may define up to ``max_cosets`` cosets.
    """
    x, k = _letter_power(pres.relators)
    if k:
        table = enumerate_cosets(pres, max_cosets, ((x,),))
        if not table.overflowed and _cycle_lcm(table.permutation((x,))) == k:
            return table.order * k, table
    table = enumerate_cosets(pres, max_cosets)
    return table.order, table
