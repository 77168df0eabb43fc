import dataclasses
import hashlib
import random
from functools import lru_cache
from itertools import permutations
from operator import eq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerproof import cosets
from powerproof.bracelets import enumerate_reduced_bracelets
from powerproof.cosets import (
    UNDEF,
    CosetTable,
    Presentation,
    _Enumerator,
    _Overflow,
    enumerate_cosets,
    group_order,
)
from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof
from powerproof.proofwords import distinct_presentation, flatten, symmetrize, verify
from powerproof.search import SearchConfig, reconstruct, search
from powerproof.words import AB, Alphabet, cyclic_reduce, free_reduce, invert, parse_word as P, power, word_str

from util import (
    bracelet_bases,
    lyndon_bases,
    naive_scan_list,
    random_proof,
    random_reduced_word,
    reference_certifies,
    reference_enumerate_cosets,
)


def pres(*texts, rank=2):
    alphabet = Alphabet(rank)
    return Presentation(alphabet, tuple(P(t) for t in texts))


def perm_closure(gens):
    """Brute-force closure of a set of permutations under composition."""
    group = set(gens)
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(p[i] for i in q)
            if r not in group:
                group.add(r)
                frontier.append(r)
    return group


def test_cyclic_group():
    table = enumerate_cosets(pres("aaaa", rank=1))
    assert table.order == 4


def test_symmetric_group_against_permutation_oracle():
    # a = (0 1), b = (1 2) generate all permutations of three points
    oracle = perm_closure({(1, 0, 2), (0, 2, 1)})
    assert len(oracle) == 6
    table = enumerate_cosets(pres("aa", "bb", "ababab"))
    assert table.order == len(oracle)


def test_quaternion_and_alternating_groups():
    # <a,b | a^4, a^2 = b^2, b^-1 a b = a^-1> is Q8
    assert enumerate_cosets(pres("aaaa", "aaBB", "Baba")).order == 8
    # <a,b | a^3, b^3, (ab)^2> is A4
    assert enumerate_cosets(pres("aaa", "bbb", "abab")).order == 12


def test_exponent_three_group():
    cubes = tuple(power(P(w), 3) for w in ("a", "b", "ab", "aB"))
    table = enumerate_cosets(Presentation(AB, cubes))
    assert table.order == 27


def test_agrees_with_sympy_on_small_presentations():
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    F, a, b = free_group("a b")
    cases = [
        (("aa", "bb", "ababab"), [a**2, b**2, (a * b) ** 3],),
        (("aaa", "bbb", "abab"), [a**3, b**3, (a * b) ** 2],),
        (("aaaa", "aaBB", "Baba"), [a**4, a**2 * b**-2, b**-1 * a * b * a],),
    ]
    for texts, sympy_rels in cases:
        assert enumerate_cosets(pres(*texts)).order == FpGroup(F, sympy_rels).order()


def test_order_invariant_under_relator_permutation():
    rels = ("aa", "bb", "ababab")
    orders = {enumerate_cosets(pres(*p)).order for p in permutations(rels)}
    assert orders == {6}


def test_order_invariant_under_redundant_relators():
    base = enumerate_cosets(pres("aaa", "bbb", "abab")).order
    # rotation and inverse of an existing relator are redundant
    assert enumerate_cosets(pres("aaa", "bbb", "abab", "baba")).order == base
    assert enumerate_cosets(pres("aaa", "bbb", "abab", "AAA")).order == base


def test_adding_relators_never_increases_order():
    small = [
        (("aa", "bb", "ababab"), ("abab",)),
        (("aa", "bb", "abababababab"), ("ababab",)),
        (("aaa", "bbb", "abab"), ("ab",)),
    ]
    for rels, extra in small:
        before = enumerate_cosets(pres(*rels)).order
        after = enumerate_cosets(pres(*(rels + extra))).order
        assert after <= before


def test_relators_trace_to_identity_everywhere():
    for texts in (("aa", "bb", "ababab"), ("aaa", "bbb", "abab")):
        p = pres(*texts)
        table = enumerate_cosets(p)
        for c in range(table.order):
            for r in p.relators:
                assert table.trace(c, r) == c


def test_table_is_a_permutation_action():
    table = enumerate_cosets(pres("aaa", "bbb", "abab"))
    for c, row in enumerate(table.rows):
        for col, d in enumerate(row):
            assert table.rows[d][col ^ 1] == c


def test_overflow_is_a_value():
    table = enumerate_cosets(pres("aa"), max_cosets=500)
    assert table.overflowed
    assert table.order is None
    # define raises exactly when the table reaches the limit; <a, b | aa> is
    # infinite and HLT merges nothing, so every coset defined is live
    assert (table.cosets_defined, table.live_peak, table.coincidences) == (500, 500, 0)


@pytest.mark.parametrize("max_cosets", [1, 2, 3, 4, 5, 8, 9])
def test_overflow_where_the_columns_double(max_cosets):
    # the limits cross the points where the padded columns double
    table = enumerate_cosets(pres("aa"), max_cosets=max_cosets)
    assert table.overflowed
    assert table.order is None
    assert (table.cosets_defined, table.live_peak, table.coincidences) == (max_cosets, max_cosets, 0)


def test_malformed_relators_rejected():
    with pytest.raises(ValueError):
        Presentation(AB, ((),))
    with pytest.raises(ValueError):
        Presentation(Alphabet(1), (P("ab"),))
    with pytest.raises(ValueError, match="'aA' is not freely reduced"):
        Presentation(AB, ((1, -1),))
    # letters that no character prints, beyond z or the zero letter
    for bad in ((1, 30), (-40,), (1, 0)):
        with pytest.raises(ValueError, match="uses letters beyond rank 2"):
            Presentation(AB, (bad,))


def test_max_cosets_must_be_positive():
    with pytest.raises(ValueError, match="max_cosets must be positive"):
        enumerate_cosets(pres("aa"), max_cosets=0)


def test_cr_presentation_order():
    rels = distinct_presentation(e5_proof(), 4)
    assert len(rels) == 13
    table = enumerate_cosets(Presentation(AB, tuple(rels)))
    assert table.order == 8192 == 2 * 2**12
    assert table.cosets_defined < 2_000_000


@st.composite
def presentations(draw):
    """Random presentations: rank 1-3, 1-4 freely reduced relators of length 1-8."""
    rank = draw(st.integers(1, 3))
    letters = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    relators = []
    for _ in range(draw(st.integers(1, 4))):
        w = [draw(st.sampled_from(letters))]
        for _ in range(draw(st.integers(0, 7))):
            w.append(draw(st.sampled_from([x for x in letters if x != -w[-1]])))
        relators.append(tuple(w))
    return Presentation(Alphabet(rank), tuple(relators))


# relators implied by another: a power before its root; an inverse
# duplicate, whose earlier copy is the one scanned; a rotated inverse; a
# relator whose cyclic core is another relator; a chain of implications,
# longest first.  In the last, neither relator is implied: a^4 and a^6 are
# not powers of each other.
IMPLIED = [
    pres("aaaaaa", "aaa", rank=1),
    pres("aaa", "AAA", rank=1),
    pres("abAB", "BAba", "aa", "bb"),
    pres("aaa", "bb", "abab", "baaaB"),
    pres("aaaaaaaaaaaa", "aaaaaa", "aaa", rank=1),
    pres("aaaa", "aaaaaa", rank=1),
]


def with_examples(examples):
    def decorate(test):
        for presentation in reversed(examples):
            test = example(presentation, 2000)(test)
        return test

    return decorate


@settings(deadline=None)
@given(presentations(), st.sampled_from([50, 300, 2000]))
# order 2 from 10 cosets: 8 coincidences, whose deductions take both
# branches of the coincidence loop (the representative's own entry is
# defined, or only the image's inverse entry is) and queue further merges
@example(pres("aaa", "bbbb", "abab", "abAB"), 2000)
@with_examples(IMPLIED)
def test_enumeration_matches_the_reference_enumerator(pres, max_cosets):
    # the definition order is the algorithm: complete and overflowed tables
    # alike must agree coset for coset, and on the merges and the live peak
    table = enumerate_cosets(pres, max_cosets)
    ref = reference_enumerate_cosets(pres, max_cosets)
    assert table == ref
    if not table.overflowed:
        assert table.coincidences == table.cosets_defined - table.order
        assert table.order <= table.live_peak <= table.cosets_defined


# order 3, but A4, of order 12, without its last relator: a scan list that
# leaves out a relator it needs enumerates 12
A4_QUOTIENT = pres("aa", "bbb", "ababab", "abAB")


@settings(deadline=None)
@given(presentations(), st.sampled_from([50, 300, 2000]))
@example(A4_QUOTIENT, 2000)
@with_examples(IMPLIED)
def test_skipped_relators_leave_the_order_unchanged(pres, max_cosets):
    # the scan list presents the same group as the full relator list
    table = enumerate_cosets(pres, max_cosets)
    full = reference_enumerate_cosets(pres, max_cosets, scan_all=True)
    if not table.overflowed and not full.overflowed:
        assert table.order == full.order
        assert all(table.trace(c, r) == c for r in pres.relators for c in range(table.order))


def test_scan_list_examples():
    kept = [[word_str(r) for r in naive_scan_list(p.relators)] for p in IMPLIED]
    assert kept == [["aaa"], ["aaa"], ["abAB", "aa", "bb"], ["aaa", "bb", "abab"], ["aaa"], ["aaaa", "aaaaaa"]]
    assert [enumerate_cosets(p).order for p in IMPLIED] == [3, 3, 4, 6, 3, 2]


@settings(deadline=None)
@given(presentations(), st.sampled_from([1, 2, 3, 50, 300, 2000]))
@example(pres("aaa", "bbb", "abab"), 2000)
@example(pres("aa"), 9)
def test_padded_columns_absorb_gaps_and_name_no_dead_coset(pres, max_cosets):
    # after a complete or an overflowed run: every slot past the last coset
    # is UNDEF, so column[UNDEF] is too, and no entry of a live coset names
    # a dead one, which lets the compaction skip the find
    enum = _Enumerator(pres, max_cosets)
    try:
        enum.run()
    except _Overflow:
        pass
    n = len(enum.parent)
    live = [c for c, p in enumerate(enum.parent) if p == c]
    for column in enum.cols:
        assert len(column) > n and set(column[n:]) == {UNDEF}
        assert all(column[c] == UNDEF or enum.parent[column[c]] == column[c] for c in live)


def benchmark_relators(order):
    """The two benchmark presentations, in their canonical relator order: the
    bundled proof's 13 distinct fourth powers (order 8192) and the fourth
    powers of the 25 bracelets of length at most 4 (order 4096)."""
    if order == 8192:
        return distinct_presentation(e5_proof(), 4)
    return [power(b, 4) for b in bracelet_bases(4)]


@lru_cache(maxsize=None)
def canonical_table(order):
    """The complete trivial-subgroup table of a benchmark presentation."""
    return enumerate_cosets(Presentation(AB, tuple(benchmark_relators(order))))


@pytest.mark.parametrize(
    "order, defined, rows_sha256",
    [
        (8192, 25_078, "9b0a9d67fc77a26872be72fc232b6aec2d38e24a8bc4923aed739a67d0d4a24a"),
        (4096, 11_851, "c04438e148e4e2abe6a807de0b7fdd4fc65afc58e2758f080210881fbe3c7102"),
    ],
)
def test_benchmark_presentations_fingerprints(order, defined, rows_sha256):
    # captured with the row-major enumerator; a change of definition order
    # shows here first
    table = canonical_table(order)
    assert table.order == order
    assert table.cosets_defined == defined
    assert hashlib.sha256(repr(table.rows).encode()).hexdigest() == rows_sha256


def test_enumerator_counters():
    table = canonical_table(8192)
    assert table.coincidences == table.cosets_defined - table.order == 16_886
    assert table.order <= table.live_peak == 9_187 <= table.cosets_defined
    bracelets = canonical_table(4096)
    assert (bracelets.cosets_defined, bracelets.live_peak, bracelets.coincidences) == (11_851, 5_912, 7_755)
    small = enumerate_cosets(pres("aaa", "bbb", "abab"))
    assert small.coincidences == small.cosets_defined - small.order
    assert small.order <= small.live_peak <= small.cosets_defined


def test_the_lyndon_4_table_certifies_e5_without_a_proof():
    # The fourth powers of the 17 Lyndon words up to length 4 present a group
    # of order 4096.  B(2,4) is a quotient of it and has that order, so the
    # table is the regular action of B(2,4): a word is trivial there exactly
    # when it fixes a coset, and then it fixes every coset.
    relators = [power(b, 4) for b in lyndon_bases(4)]
    pres = Presentation(AB, tuple(relators))
    table = enumerate_cosets(pres)
    assert (len(relators), table.order, table.cosets_defined) == (17, 4096, 11_851)
    # a permutation action in which every relator holds: a complete table
    assert table.certifies(pres)
    assert all(map(table.fixes, relators))
    e5, e4 = engel_word(5), engel_word(4)
    assert table.fixes(e5)
    assert not any(map(eq, table.permutation(e4), range(table.order)))


def power_presentation(alphabet, bases, e):
    """The relator set of the bases' e-th powers, and the presentation of the
    group that those powers present."""
    relators = symmetrize(bases, e)
    return relators, Presentation(alphabet, tuple(power(b, e) for b in relators.bases))


@st.composite
def power_presentations(draw):
    """A power_presentation kept small: rank 1-3, e from 2 to 5 - rank, and as
    bases the letters, the bracelets of length 2 less a drawn subset, and up
    to three more words of length 2-4."""
    rank = draw(st.integers(1, 3))
    e = draw(st.integers(2, 5 - rank))
    alphabet = Alphabet(rank)
    letters = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    pairs = [c.canonical for c in enumerate_reduced_bracelets(alphabet, 2)]
    dropped = draw(st.sets(st.sampled_from(pairs)))
    extra = draw(st.lists(st.lists(st.sampled_from(letters), min_size=2, max_size=4), max_size=3))
    bases = [(g,) for g in range(1, rank + 1)] + [w for w in pairs if w not in dropped]
    bases += [core for w in extra if (core := cyclic_reduce(free_reduce(w))[0])]
    return power_presentation(alphabet, bases, e)


# mixed exponents: <a | a^4, a^6> has order 2, so a^2 holds in it, and the
# proof that Random(1) draws over symmetrize([a], 2) flattens to AA; a scan
# list that drops a^6 enumerates Z4, in which AA moves a coset
MIXED_EXPONENTS = (symmetrize([P("a")], 2), pres("aaaa", "aaaaaa", rank=1))


@settings(deadline=None)
@given(power_presentations(), st.randoms(use_true_random=False))
@example(power_presentation(AB, [P("a"), P("b"), P("ab"), P("aB")], 3), random.Random(0))
@example(MIXED_EXPONENTS, random.Random(1))
def test_the_proof_checker_and_the_coset_table_agree(setup, rng):
    # a word that a valid proof flattens to is trivial in the group, so it
    # fixes every coset; a search therefore finds no proof of a word that
    # moves one, and a proof it finds verifies.  The table is enumerated
    # here, at most 2,000 cosets, so a fault in the enumerator shows.
    relators, presentation = setup
    table = enumerate_cosets(presentation, 2000)
    if table.overflowed:
        return
    rank = presentation.alphabet.rank
    proof = random_proof(rng, relators, rng.randrange(1, 4), 3, rank)
    word = flatten(proof)
    assert verify(proof, word, relators=relators).valid
    assert table.fixes(word)
    target = word if word and rng.random() < 0.5 else random_reduced_word(rng, rng.randrange(1, 7), rank)
    result = search(target, relators, SearchConfig(beam_width=20, max_moves=12))
    if not table.fixes(target):
        assert not result.found
    elif result.found:
        assert verify(reconstruct(result.log), target, relators=relators).valid


def test_trace_rejects_an_incomplete_table():
    table = enumerate_cosets(pres("aa"), max_cosets=50)
    with pytest.raises(ValueError, match="incomplete"):
        table.trace(0, P("a"))


def test_trace_rejects_a_letter_beyond_the_rank():
    table = enumerate_cosets(pres("aa", "bb", "ababab"))
    with pytest.raises(ValueError, match="beyond rank 2"):
        table.trace(0, (1, 3))
    with pytest.raises(ValueError, match="beyond rank 2"):
        table.trace(0, (-3,))


def test_trace_rejects_a_coset_not_in_the_table():
    table = enumerate_cosets(pres("aa", "bb", "ababab"))
    for coset in (-1, 6):
        with pytest.raises(ValueError, match="not in the table of order 6"):
            table.trace(coset, P("a"))


def test_letter_power_takes_the_largest_gcd_and_the_earlier_generator():
    cases = [
        (("aa", "bb", "ababab"), (1, 2)),  # a tie goes to a
        (("bbbb", "aaaa"), (1, 4)),
        (("bbb", "aaaaaa", "AAAA"), (2, 3)),  # a's gcd is 2
        (("BBBBBB", "bbbb", "aBaB"), (2, 2)),
        (("baaaB", "abab"), (1, 3)),  # a conjugate of a^3
        (("ab", "aB"), (0, 0)),
    ]
    for texts, expected in cases:
        for order in permutations(texts):
            assert pres(*order)._letter_power == expected


def subgroups(rank):
    """1-2 freely reduced subgroup generators of length 1-4."""
    letters = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]

    @st.composite
    def word(draw):
        w = [draw(st.sampled_from(letters))]
        for _ in range(draw(st.integers(0, 3))):
            w.append(draw(st.sampled_from([x for x in letters if x != -w[-1]])))
        return tuple(w)

    return st.lists(word(), min_size=1, max_size=2).map(tuple)


@settings(deadline=None)
@given(st.data(), presentations(), st.sampled_from([3, 50, 300, 2000]))
@example(None, pres("aa", "bb", "ababab"), 2000)
def test_subgroup_enumeration_matches_the_reference_enumerator(data, pres, max_cosets):
    # the subgroup's generators are scanned from coset 0 before its relators,
    # in the reference as in the library; a complete table certifies
    subgroup = ((1,),) if data is None else data.draw(subgroups(pres.alphabet.rank))
    table = enumerate_cosets(pres, max_cosets, subgroup)
    assert table == reference_enumerate_cosets(pres, max_cosets, subgroup=subgroup)
    if not table.overflowed:
        assert table.certifies(pres)
        assert all(table.permutation(h)[0] == 0 for h in subgroup)


def test_subgroup_generators_are_checked():
    with pytest.raises(ValueError, match="subgroup generators must be non-empty"):
        enumerate_cosets(pres("aa"), 10, ((),))
    with pytest.raises(ValueError, match="subgroup generator 'aA' is not freely reduced"):
        enumerate_cosets(pres("aa"), 10, ((1, -1),))
    with pytest.raises(ValueError, match="uses letters beyond rank 1"):
        enumerate_cosets(pres("aa", rank=1), 10, ((2,),))


# One presentation per path of group_order, with (order, index, subgroup):
# certified over <a>; a fallback because x's order is less than k, with b
# chosen (k = 4, index 1) and with a central a of order 3; rank 1, index 1;
# no letter power; both runs overflowing.
GROUP_ORDER_PATHS = [
    (pres("aa", "bb", "ababab"), 2000, (6, 3, ((1,),))),
    (pres("aaa", "bbb", "abab"), 5, (12, 4, ((1,),))),
    (pres("aaa", "bbbb", "abab", "abAB"), 2000, (2, 2, ())),
    (pres("aaaaaa", "AAA", "aaa", "bb", "abAB", "BAba"), 2000, (6, 6, ())),
    (pres("aaaa", rank=1), 2000, (4, 4, ())),
    (pres("ab", "aB"), 2000, (2, 2, ())),
    (pres("aaa", "bbb", "abab"), 3, (None, None, ())),
]


@pytest.mark.parametrize("presentation, max_cosets, expected", GROUP_ORDER_PATHS)
def test_group_order_paths(presentation, max_cosets, expected):
    order, table = group_order(presentation, max_cosets)
    assert (order, table.order, table.subgroup) == expected


def with_path_examples(test):
    for presentation, max_cosets, _ in reversed(GROUP_ORDER_PATHS):
        test = example(presentation, max_cosets)(test)
    return test


@settings(deadline=None)
@given(presentations(), st.sampled_from([3, 50, 300, 2000]))
@example(A4_QUOTIENT, 2000)
@with_path_examples
@with_examples(IMPLIED)
def test_group_order_matches_the_trivial_enumeration(pres, max_cosets):
    order, table = group_order(pres, max_cosets)
    full = enumerate_cosets(pres, max_cosets)
    if not full.overflowed:
        assert order == full.order
    if order is None:
        # the subgroup run, if any, overflowed, and so did the fallback
        assert table.overflowed and table == full
    elif table.subgroup:
        x, k = pres._letter_power
        assert table.subgroup == ((x,),) and order == table.order * k
        assert table.certifies(pres)
    else:
        assert table == full and table.certifies(pres)


def shuffled_benchmark_orders(seed):
    """The relator orders of the benchmark's eight coset_order jobs: one
    shuffle of each presentation per job, the 8192 one first."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(8):
        for order in (8192, 4096):
            relators = benchmark_relators(order)
            rng.shuffle(relators)
            jobs.append((order, relators))
    return jobs


def test_group_order_of_the_benchmark_presentations():
    # canonical order first, with its counts, then the eight shuffles of seed
    # 1: the subgroup is <a> of order 4 in every order
    index = {8192: 2048, 4096: 1024}
    canonical = [(order, benchmark_relators(order)) for order in (8192, 4096)]
    counts = {}
    for k, (order, relators) in enumerate(canonical + shuffled_benchmark_orders(1)):
        presentation = Presentation(AB, tuple(relators))
        found, table = group_order(presentation)
        assert (found, table.order, table.subgroup) == (order, index[order], ((1,),))
        assert table.certifies(presentation)
        if k < 2:
            counts[order] = (table.cosets_defined, table.live_peak, table.coincidences)
    assert counts == {8192: (6_434, 2_379, 4_386), 4096: (2_994, 1_857, 1_970)}


def test_group_order_does_not_walk_with_trace(monkeypatch):
    # group_order answers both of its questions about a finished table, the
    # order of x and the certificate, by composing columns: trace is only the
    # scalar reference that the tests compare against
    def refuse(table, coset, w):
        raise RuntimeError("trace was called")

    monkeypatch.setattr(CosetTable, "trace", refuse)
    for order, index in ((8192, 2048), (4096, 1024)):
        found, table = group_order(Presentation(AB, tuple(benchmark_relators(order))))
        assert (found, table.order, table.subgroup) == (order, index, ((1,),))
    for presentation, max_cosets, expected in GROUP_ORDER_PATHS:
        order, table = group_order(presentation, max_cosets)
        assert (order, table.order, table.subgroup) == expected


@settings(deadline=None)
@given(presentations(), st.data())
@example(pres("aa", "bb", "ababab"), None)
def test_fixes_matches_trace(pres, data):
    # a word's permutation, and its powers by squaring, against the row walk
    table = enumerate_cosets(pres, 300)
    if table.overflowed:
        return
    rank = pres.alphabet.rank
    if data is None:
        words = [P("ab"), P("abababab"), P("Aababa"), P("bab")]
    else:
        letters = st.sampled_from([g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)])
        base = tuple(data.draw(st.lists(letters, min_size=0, max_size=5)))
        u = tuple(data.draw(st.lists(letters, max_size=3)))
        words = [base, power(base, data.draw(st.integers(1, 7))), u + base + invert(u)]
    cosets = range(table.order)
    for w in words:
        assert table.permutation(w) == [table.trace(c, w) for c in cosets]
        assert table.fixes(w) == all(table.trace(c, w) == c for c in cosets)


def test_certifies_rejects_a_table_that_does_not_hold():
    s3 = pres("aa", "bb", "ababab")
    table = enumerate_cosets(s3)
    assert table.certifies(s3)
    # the table of another group: ababab moves a coset of the Klein group's
    assert not enumerate_cosets(pres("aa", "bb", "abab")).certifies(s3)
    # a subgroup generator that moves coset 0
    assert not dataclasses.replace(table, subgroup=((2,),)).certifies(s3)
    # a column that is no permutation, and one with a gap, at coset 0
    for k, entry in ((0, 0), (2, UNDEF)):
        broken = dataclasses.replace(table, columns=[list(column) for column in table.columns])
        broken.columns[k][0] = entry
        assert not broken.certifies(s3)
    assert not enumerate_cosets(pres("aa"), 50).certifies(pres("aa"))
    # relators with one root are checked as its gcd power: a^4 and a^6 give
    # a^2, which moves a coset of Z4
    z4 = enumerate_cosets(pres("aaaa", "b"))
    assert z4.order == 4 and z4.certifies(pres("aaaa", "b"))
    assert not z4.certifies(pres("aaaa", "aaaaaa", "b"))


@settings(deadline=None)
@given(presentations(), st.sampled_from([3, 50, 300]), st.data())
# a one-coset table, over <a> of order 1, which takes the single-item branch
# of _compose; and a root whose powers come from several relators
@example(pres("a", "b"), 50, None)
@example(pres("aaaa", "aaaaaaaa", "b"), 50, None)
def test_certifies_matches_its_definition(pres, max_cosets, data):
    # the group_order table and the trivial subgroup's, each as enumerated,
    # with one more relator (a^6 in the examples) and with one column entry
    # moved (coset 0's under a, to the next coset, in the examples)
    rank = pres.alphabet.rank
    letters = st.sampled_from([g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)])
    for table in (group_order(pres, max_cosets)[1], enumerate_cosets(pres, max_cosets)):
        if data is None:
            extra, (k, c, d) = (1,) * 6, (0, 0, (table.columns[0][0] + 1) % table.order)
        else:
            extra = cyclic_reduce(free_reduce(data.draw(st.lists(letters, min_size=1, max_size=8))))[0] or (1,)
            coset = st.integers(0, (table.order or 1) - 1)
            k, c, d = data.draw(st.tuples(st.integers(0, 2 * rank - 1), coset, coset))
        more = Presentation(pres.alphabet, pres.relators + (extra,))
        cases = [(table, pres), (table, more)]
        if not table.overflowed:
            moved = dataclasses.replace(table, columns=[list(column) for column in table.columns])
            moved.columns[k][c] = d
            cases.append((moved, pres))
        for t, p in cases:
            assert t.certifies(p) == reference_certifies(t, p)


def test_certifies_composes_each_prefix_once_and_each_root_once(monkeypatch):
    # the <a> tables of both benchmark presentations: two inverse checks, one
    # composition per distinct prefix of the roots (18 prefixes of 13 roots
    # of 44 letters; 21 of 17 roots of 54 letters, from 25 relators), and two
    # squarings per root, each a fourth power.  Walking each relator's root
    # anew took 73 and 129 column maps.
    composed = []

    def spy(perm, column):
        composed.append(len(perm))
        return compose(perm, column)

    compose = cosets._compose
    counts = {}
    for order in (8192, 4096):
        presentation = Presentation(AB, tuple(benchmark_relators(order)))
        _, table = group_order(presentation)
        monkeypatch.setattr(cosets, "_compose", spy)
        composed.clear()
        assert table.certifies(presentation)
        counts[order] = len(composed)
        monkeypatch.setattr(cosets, "_compose", compose)
    assert counts == {8192: 46, 4096: 57}


def test_permutation_rejects_an_incomplete_table_and_a_letter_beyond_the_rank():
    with pytest.raises(ValueError, match="incomplete"):
        enumerate_cosets(pres("aa"), max_cosets=50).fixes(P("a"))
    table = enumerate_cosets(pres("aa", "bb", "ababab"))
    with pytest.raises(ValueError, match="beyond rank 2"):
        table.permutation((1, 3))
    assert table.permutation(()) == list(range(6)) and table.fixes(())
