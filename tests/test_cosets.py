import hashlib
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerproof.bracelets import enumerate_lyndon, enumerate_reduced_bracelets
from powerproof.cosets import UNDEF, Presentation, _Enumerator, _Overflow, enumerate_cosets
from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof
from powerproof.proofwords import distinct_presentation
from powerproof.words import AB, Alphabet, parse_word as P, power, word_str

from util import naive_scan_list, reference_enumerate_cosets


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


@settings(deadline=None)
@given(presentations(), st.sampled_from([50, 300, 2000]))
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


@lru_cache(maxsize=None)
def canonical_table(order):
    """The complete tables of the two benchmark presentations, in their
    canonical relator order: the bundled proof's 13 distinct fourth powers
    (order 8192) and the fourth powers of the 25 bracelets of length at most
    4 (order 4096)."""
    if order == 8192:
        relators = distinct_presentation(e5_proof(), 4)
    else:
        relators = [power(c.canonical, 4) for n in range(1, 5) for c in enumerate_reduced_bracelets(AB, n)]
    return enumerate_cosets(Presentation(AB, tuple(relators)))


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
    relators = [power(c.canonical, 4) for n in range(1, 5) for c in enumerate_lyndon(AB, n)]
    table = enumerate_cosets(Presentation(AB, tuple(relators)))
    assert (len(relators), table.order, table.cosets_defined) == (17, 4096, 11_851)
    cosets = range(table.order)
    # a permutation action in which every relator holds: a complete table
    assert all(sorted(column) == list(cosets) for column in zip(*table.rows))
    assert all(table.trace(c, r) == c for r in relators for c in cosets)
    e5, e4 = engel_word(5), engel_word(4)
    assert all(table.trace(c, e5) == c for c in cosets)
    assert not any(table.trace(c, e4) == c for c in cosets)


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
