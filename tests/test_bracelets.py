import random
import tracemalloc
from itertools import groupby, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powerproof import bracelets
from powerproof.bracelets import (
    bracelet_canon,
    enumerate_lyndon,
    enumerate_reduced_bracelets,
    is_proper_power,
    primitive_root,
)
from powerproof.proofwords import symmetrize
from powerproof.words import (
    AB,
    Alphabet,
    invert,
    is_cyclically_reduced,
    order_key,
    parse_word as P,
    rotations,
)
from util import bracelet_canon_oracle

# Base word counts on two generators, lengths 1..10.
REDUCED_COUNTS = [2, 4, 6, 13, 26, 66, 158, 418, 1098, 2968]
LYNDON_COUNTS = [2, 2, 4, 9, 24, 58, 156, 405, 1092, 2940]


def test_canon_identifies_rotation_and_inverse_classes():
    assert bracelet_canon(P("bAA")) == bracelet_canon(P("AbA")) == bracelet_canon(P("aaB"))
    assert bracelet_canon(P("a")) == bracelet_canon(P("A"))


def test_canon_invariant_under_rotation():
    rng = random.Random(11)
    from util import random_reduced_word

    seen = 0
    while seen < 100:
        w = random_reduced_word(rng, rng.randrange(1, 10))
        if not is_cyclically_reduced(w):
            continue
        seen += 1
        for r in rotations(w):
            assert bracelet_canon(r) == bracelet_canon(w)
        assert bracelet_canon(invert(w)) == bracelet_canon(w)


@st.composite
def cyclically_reduced_words(draw, max_rank=26, max_length=12):
    """A random walk that never steps back, closing with a letter that does
    not cancel against the first."""
    rank = draw(st.integers(1, max_rank))
    letters = [x for g in range(1, rank + 1) for x in (g, -g)]
    n = draw(st.integers(1, max_length))
    w: list[int] = []
    for i in range(n):
        banned = set()
        if w:
            banned.add(-w[-1])
            if i == n - 1:
                banned.add(-w[0])
        w.append(draw(st.sampled_from([x for x in letters if x not in banned])))
    return tuple(w)


@given(cyclically_reduced_words())
@example(P("aabAB"))  # already canonical: the word comes back as it is
@example(P("abABa"))  # a rotation of it
@example(P("bAA"))  # a rotation of the inverse, aaB, is least
@example(P("aBAb"))  # its own least rotation, but the inverse's abAB beats it
@example(P("abab"))  # a proper power: rotations repeat
@example(P("a"))
@example(P("B"))
@example(P("Ab"))  # two letters: the least rotation is the inverse's aB
@example(P("bbaBAA" * 11 + "baBa"))  # 70 letters, past the one-call cut
def test_canon_matches_tuple_oracle(w):
    assert is_cyclically_reduced(w)
    assert bracelet_canon(w) == bracelet_canon_oracle(w)


def test_canon_memory_is_bounded_on_long_words():
    # 2,000 letters: cutting all 4,000 rotations at once would hold about
    # 8 MB; one at a time, the canon holds a few keys of 8 KB at most
    w = P("bbaBAA" * 333 + "ba")
    assert len(w) == 2000
    tracemalloc.start()
    try:
        canon = bracelet_canon(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert canon == bracelet_canon_oracle(w)
    assert peak < 1_000_000


def test_canon_returns_a_tuple_for_a_list():
    # a canonical word comes back without being decoded, but as a tuple, so
    # relator sets built from lists can still hash their bases
    for w in ([1, 2], [2], [1, 2, -1, -2], [-2, -1, -1]):
        canon = bracelet_canon(w)
        assert type(canon) is tuple and canon == bracelet_canon_oracle(tuple(w))
    assert symmetrize([[1, 2], [2]], 4) == symmetrize([P("ab"), P("b")], 4)


def test_canon_rejects_bad_input():
    with pytest.raises(ValueError, match="the empty word has no bracelet class"):
        bracelet_canon(())
    for bad in ("abA", "aAb", "Aa"):
        with pytest.raises(ValueError, match=f"^'{bad}' is not cyclically reduced, so it has no bracelet class$"):
            bracelet_canon(P(bad))


def test_enumeration_rejects_length_below_one():
    for enumerate_classes in (enumerate_reduced_bracelets, enumerate_lyndon):
        with pytest.raises(ValueError, match="length must be positive, got 0"):
            enumerate_classes(AB, 0)


def test_is_proper_power():
    assert is_proper_power(P("abab"))
    assert is_proper_power(P("aaa"))
    assert not is_proper_power(P("aaBa"))
    assert not is_proper_power(P("a"))
    assert not is_proper_power(())
    assert primitive_root(P("abab")) == (P("ab"), 2)
    assert primitive_root(P("aaa")) == (P("a"), 3)
    assert primitive_root(P("aaBa")) == (P("aaBa"), 1)
    assert primitive_root(P("aBAbaBAb")) == (P("aBAb"), 2)


@pytest.mark.parametrize("length,expected", list(enumerate(REDUCED_COUNTS, start=1)))
def test_reduced_bracelet_counts(length, expected):
    assert len(enumerate_reduced_bracelets(AB, length)) == expected


@pytest.mark.parametrize("length,expected", list(enumerate(LYNDON_COUNTS, start=1)))
def test_lyndon_counts(length, expected):
    assert len(enumerate_lyndon(AB, length)) == expected


def test_cumulative_lyndon_counts():
    upto4 = sum(len(enumerate_lyndon(AB, n)) for n in range(1, 5))
    upto5 = upto4 + len(enumerate_lyndon(AB, 5))
    assert upto4 == 17
    assert upto5 == 41


def test_enumeration_is_canonical_sorted_and_duplicate_free():
    for length in range(1, 7):
        classes = enumerate_reduced_bracelets(AB, length)
        canons = [c.canonical for c in classes]
        assert len(set(canons)) == len(canons)
        assert canons == sorted(canons, key=order_key)
        for c in classes:
            assert bracelet_canon(c.canonical) == c.canonical
            assert len(c.canonical) == length


def _all_cyclically_reduced(length, rank=2):
    for letters in product([x for g in range(1, rank + 1) for x in (g, -g)], repeat=length):
        ok = all(letters[i] != -letters[i + 1] for i in range(length - 1))
        if ok and (length == 1 or letters[0] != -letters[-1]):
            yield letters


def test_class_sizes_partition_all_reduced_words():
    for length in range(1, 8):
        total = sum(1 for _ in _all_cyclically_reduced(length))
        classes = enumerate_reduced_bracelets(AB, length)
        sizes = [len(rotations(c.canonical) | rotations(invert(c.canonical))) for c in classes]
        assert sum(sizes) == total


def test_against_orbit_partition_oracle():
    # independent enumeration: partition every cyclically reduced word into
    # rotation+inversion orbits; the listing is each orbit's least member,
    # sorted in the letter order
    for rank, max_length in [(1, 10), (2, 8), (3, 6), (4, 5)]:
        for length in range(1, max_length + 1):
            words = set(_all_cyclically_reduced(length, rank))
            least = []
            while words:
                w = words.pop()
                orbit = rotations(w) | rotations(invert(w))
                words -= orbit
                least.append(min(orbit, key=order_key))
            listed = [c.canonical for c in enumerate_reduced_bracelets(Alphabet(rank), length)]
            assert listed == sorted(least, key=order_key), (rank, length)


def test_prefix_rule_prunes_canon_calls(monkeypatch):
    # only cyclically reduced necklaces that start with a lowercase letter x
    # and hold no x^-1-run longer than their leading x-run reach
    # bracelet_canon (9,518 calls before those two rules); every class is
    # one of them, as perfbench's tracer self-test assumes
    calls = 0

    def counting_canon(w):
        nonlocal calls
        calls += 1
        return bracelet_canon(w)

    monkeypatch.setattr(bracelets, "bracelet_canon", counting_canon)
    classes = sum(len(enumerate_reduced_bracelets(AB, n)) for n in range(1, 11))
    assert classes == sum(REDUCED_COUNTS) == 4759
    assert calls == 5962
    assert calls >= classes


def test_canon_sees_no_necklace_the_inverse_beats(monkeypatch):
    # the walk hands bracelet_canon no word starting with an uppercase
    # letter, nor one with an x^-1-run longer than its leading x-run
    seen = []

    def spying_canon(w):
        seen.append(w)
        return bracelet_canon(w)

    monkeypatch.setattr(bracelets, "bracelet_canon", spying_canon)
    for rank, max_length in [(1, 10), (2, 8), (3, 6), (4, 5)]:
        for length in range(1, max_length + 1):
            enumerate_reduced_bracelets(Alphabet(rank), length)
    assert seen
    for w in seen:
        assert w[0] > 0, w
        runs = [(y, len(list(g))) for y, g in groupby(w)]
        assert all(n <= runs[0][1] for y, n in runs if y == -w[0]), w
