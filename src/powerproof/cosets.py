"""Coset enumeration, and group orders read from it.

HLT-style Todd-Coxeter: cosets are processed in definition order, every
relator is scanned from every coset, coset 0 scanning the subgroup's
generators first, with gaps filled by new definitions, and coincidences are
resolved with a union-find over coset numbers.  When the enumeration
completes, the live cosets carry a full action of the generators and their
count is the index of the subgroup; over the trivial subgroup, the default,
that is the order of the presented group.

``group_order`` enumerates the cosets of a cyclic subgroup <x> whose order it
can certify, which defines fewer cosets than the trivial subgroup: x is the
generator with the largest k, the gcd of the exponents of the relators whose
cyclic core is a power of x or x^-1, so x^k = 1 and the order of x divides
k.  The permutation of x on the complete table is an image of <x>, so when
the least divisor d of k at which x^d is the identity on the table is k
itself, x has order exactly k and the group order is index * k.  Otherwise,
and when no relator is a letter power or the subgroup run overflows, it
enumerates over the trivial subgroup.  It reads an order only from a table
that ``CosetTable.certifies``, independently of the enumerator and its scan
list: a complete permutation action in which every relator fixes every
coset, checked once per primitive root v of the cyclic cores as v to the gcd
of their powers, and every subgroup generator fixes coset 0.

Every question about a finished table is answered by composing whole
columns in C: a word through one prefix walk, shared in the certificate by
its roots and subgroup generators, and a power by squaring.  ``trace`` walks
one coset letter by letter, the scalar reference for the tests.

A relator whose cyclic core is, up to rotation and inversion, a power v^k of
another relator's core v is left out of the scan list when k >= 2, or when
k = 1 and the other relator comes first: it lies in the normal closure of
the other, so the group is the same, and its walks would only repeat the
other's.  ``Presentation.relators`` keeps every relator, and ``certifies``
checks them all; the scan list and the letter power belong to the
presentation, worked out once on first use.

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
from math import gcd
from operator import itemgetter

from .bracelets import bracelet_canon, primitive_root
from .words import Alphabet, Word, cyclic_reduce, is_freely_reduced, letter_index, word_str

UNDEF = -1
# the default bound on cosets defined, for callers and the CLI alike
MAX_COSETS = 2_000_000


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: alphabet plus freely reduced relator words.

    The scan list and the letter power, which the enumerator and
    ``group_order`` read, are derived once, on first use, so equality and
    hashing never touch them."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        _check_words(self.relators, self.alphabet.rank, "relator")

    @cached_property
    def _scan_list(self) -> tuple[tuple[Word, Word, int], ...]:
        """(relator, root, k) for each relator the enumerator scans, in their
        given order: its cyclic core is v^k with v primitive, and root is v's
        bracelet class.  A relator is left out when another's core has the
        same root and a power that properly divides its own, or when an
        earlier one has the same root and power."""
        first: dict[tuple[Word, int], Word] = {}
        powers: dict[Word, set[int]] = {}
        for r in self.relators:
            v, k = primitive_root(cyclic_reduce(r)[0])
            root = bracelet_canon(v)
            first.setdefault((root, k), r)
            powers.setdefault(root, set()).add(k)
        return tuple(
            (r, root, k) for (root, k), r in first.items() if not any(k % j == 0 for j in powers[root] if j < k)
        )

    @cached_property
    def _letter_power(self) -> tuple[int, int]:
        """(x, k): the generator x with the largest k, the gcd of the exponents
        of the relators whose cyclic core is a power of x or x^-1, ties going
        to the earlier generator; (0, 0) when no relator is such a power.
        The scan list gives the same gcd as every relator: a relator left
        out has the root of a kept one and a multiple of its power."""
        exponents: dict[int, int] = {}
        for _, root, k in self._scan_list:
            if len(root) == 1:  # bracelet_canon names the class of x^-1 by x
                exponents[root[0]] = gcd(exponents.get(root[0], 0), k)
        return max(exponents.items(), key=lambda item: (item[1], -item[0]), default=(0, 0))


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

    def _walk(self, w: Word, memo: dict[Word, tuple[int, ...]]) -> tuple[int, ...]:
        """The image of every coset under a word, as a tuple.  ``memo`` maps ()
        to the identity, which an empty memo gains, and each prefix walked with
        it to its permutation, so a prefix is composed once per memo."""
        columns = self._letter_columns(w)
        if not memo:
            memo[()] = tuple(range(self.order))
        perm = memo[()]
        for i, column in enumerate(columns, 1):
            prefix = w[:i]
            if prefix not in memo:
                memo[prefix] = _compose(perm, column)
            perm = memo[prefix]
        return perm

    def permutation(self, w: Word) -> list[int]:
        """The image of every coset under a word, indexed by coset.

        Raises ValueError on an incomplete (overflowed) table and a letter
        beyond the table's rank.
        """
        return list(self._walk(w, {}))

    def fixes(self, w: Word) -> bool:
        """True when the word maps every coset to itself.

        A word fixes every coset exactly when its cyclic core does, and a
        core v^k exactly when the k-th power of v's permutation is the
        identity, which is taken by repeated squaring: the fourth power of a
        base of n letters costs n + 2 compositions, not 4n.
        """
        root, k = primitive_root(cyclic_reduce(w)[0])
        memo: dict[Word, tuple[int, ...]] = {}
        return _power(self._walk(root, memo), k) == memo[()]

    def certifies(self, pres: Presentation) -> bool:
        """True when the table is a coset table of its subgroup in the group
        that ``pres`` presents: complete, a permutation action (each letter's
        column undone by its inverse's), with every relator of ``pres``
        fixing every coset and every subgroup generator fixing coset 0.  Cores
        v^k1, ..., v^kn, v primitive, all fix every coset exactly when
        v^gcd(k1, ..., kn) does; the roots and the subgroup generators share
        one prefix memo."""
        if self.overflowed:
            return False
        columns = self.columns
        powers: dict[Word, int] = {}
        for r in pres.relators:
            v, k = primitive_root(cyclic_reduce(r)[0])
            powers[v] = gcd(powers.get(v, 0), k)
        identity = tuple(range(self.order))
        memo = {(): identity}
        return (
            not any(UNDEF in column for column in columns)
            and all(_compose(column, inverse) == identity for column, inverse in zip(columns[::2], columns[1::2]))
            and all(_power(self._walk(v, memo), k) == identity for v, k in powers.items())
            and all(self._walk(h, memo)[0] == 0 for h in self.subgroup)
        )


def _compose(perm: list[int] | tuple[int, ...], column: list[int]) -> tuple[int, ...]:
    """The map c -> column[perm[c]]: perm, then column, cut in C."""
    if len(perm) == 1:  # itemgetter of one item returns the bare entry
        return (column[perm[0]],)
    return itemgetter(*perm)(column)


def _power(perm: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The k-th power of a permutation, k >= 1, by repeated squaring."""
    if k == 1:
        return perm
    half = _power(_compose(perm, perm), k >> 1)
    return _compose(half, perm) if k & 1 else half


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
        self.relators = [self.walk(r) for r, _, _ in pres._scan_list]
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
        and the union are written inline rather than as calls: one ``order``
        job of the benchmark (its two presentations, relators in canonical
        order) makes 670 calls here, with about 26,400 finds and 6,400
        unions, and a nested ``find`` function read slower in A/B runs of
        ``group_order``.
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
        # HLT's start: coset 0 scans the subgroup generators before the
        # relators, and stays live, being the least coset
        scans = self.subgroup + self.relators
        try:
            while c < len(parent):
                if parent[c] == c:
                    for fwd, inv in scans:
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
                scans = self.relators
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


def _has_order(perm: tuple[int, ...], k: int) -> bool:
    """True when a permutation has order exactly k: the least divisor d of k
    with perm^d the identity is k itself."""
    identity = tuple(range(len(perm)))
    return next((d for d in range(1, k + 1) if k % d == 0 and _power(perm, d) == identity), None) == k


def group_order(pres: Presentation, max_cosets: int = MAX_COSETS) -> tuple[int | None, CosetTable]:
    """The order of the presented group, or None when the enumeration
    overflowed, and the complete or overflowed table it was read from.

    The table is that of a cyclic subgroup <x> of order k, and the order is
    its index times k, when some relator is a power of a letter and x has
    order k on the table, read from its powers (see the module docstring);
    else it is the trivial subgroup's, and the order its index.  Either run
    may define up to ``max_cosets`` cosets.  A complete table is returned
    only if it ``certifies`` the presentation; if not, ValueError is raised.
    """
    x, k = pres._letter_power
    table = enumerate_cosets(pres, max_cosets, ((x,),)) if k else None
    if not k or table.overflowed or not _has_order(table._walk((x,), {}), k):
        table, k = enumerate_cosets(pres, max_cosets), 1
    if not (table.overflowed or table.certifies(pres)):
        raise ValueError("the coset table fails its check: a relator or subgroup generator moves a coset")
    return (None if table.overflowed else table.order * k), table
