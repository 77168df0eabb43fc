import importlib
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof
from powerproof.proofwords import flatten, fold, parse_proof, symmetrize, verify
from powerproof.search import (
    MoveLog,
    SearchConfig,
    _HalfRuleMemo,
    apply_move,
    decompile,
    reconstruct,
    reduce_presentation,
    replay,
    search,
)
from powerproof.words import (
    AB,
    conjugate,
    cyclic_reduce,
    free_reduce,
    invert,
    order_key,
    parse_word as P,
    power,
    word_str,
)
from util import (
    bracelet_bases,
    lyndon_bases,
    naive_appendable,
    random_proof,
    random_reduced_word,
    reference_search,
)


SMALL = SearchConfig(beam_width=500, max_moves=16)


def test_apply_move_examples():
    assert apply_move(P("ab"), 1) == P("ba")
    assert apply_move(P("AAAA"), P("aaaa")) == ()
    assert apply_move((), P("abab")) == P("abab")
    assert apply_move((), 2) == ()


def test_apply_move_matches_definition():
    rng = random.Random(3)
    for _ in range(300):
        w = random_reduced_word(rng, rng.randrange(12))
        g = rng.choice([1, -1, 2, -2])
        assert apply_move(w, g) == conjugate(w, (g,))
        r = random_reduced_word(rng, rng.randrange(1, 9))
        assert apply_move(w, r) == free_reduce(w + r)


def test_replay():
    log = MoveLog(P("AAAA"), (P("aaaa"),))
    assert replay(log) == ()


def test_search_single_append():
    rs = symmetrize([P("a")], 4)
    result = search(P("aaaa"), rs, SMALL)
    assert result.found
    assert list(result.log.moves) == [P("aaaa")]


def test_search_commutator_of_squares():
    # oracle identity: ABab = (AB)^2 (baB)^2 (b)^2 freely reduces to ABab
    identity = free_reduce(power(P("AB"), 2) + power(P("baB"), 2) + power(P("b"), 2))
    assert identity == P("ABab")
    rs = symmetrize(bracelet_bases(3), 2)
    result = search(P("ABab"), rs, SearchConfig(beam_width=1000, max_moves=32))
    assert result.found
    appends = [m for m in result.log.moves if isinstance(m, tuple)]
    assert len(appends) <= 3
    proof = reconstruct(result.log)
    assert verify(proof, P("ABab"), relators=rs).valid


def test_search_not_found_reports_outcome():
    rs = symmetrize([P("b")], 4)
    result = search(P("aaaa"), rs, SearchConfig(beam_width=50, max_moves=8))
    assert not result.found
    assert result.log is None


def test_search_requires_freely_reduced_target():
    rs = symmetrize([P("a")], 4)
    with pytest.raises(ValueError, match="^search target must be freely reduced, got 'aaAaaa'$"):
        search(P("aaAaaa"), rs, SMALL)


def test_search_deterministic():
    rs = symmetrize(bracelet_bases(2), 2)
    cfg = SearchConfig(beam_width=64, max_moves=12, restarts=3, seed=42, base_subset_size=3)
    a = search(P("ABab"), rs, cfg)
    b = search(P("ABab"), rs, cfg)
    assert a.log == b.log
    assert a.states_visited == b.states_visited


def test_restarts_run_only_with_base_sampling():
    rs = symmetrize([P("b"), P("ab")], 4)
    one = search(P("aaaa"), rs, SearchConfig(beam_width=200, max_moves=30))
    assert not one.found and one.states_visited == 3554
    for subset in (None, 2):
        cfg = SearchConfig(beam_width=200, max_moves=30, restarts=5, base_subset_size=subset)
        again = search(P("aaaa"), rs, cfg)
        assert (again.states_visited, again.moves_tried) == (one.states_visited, one.moves_tried)
        assert again.restarts_used == 0
    sampled = search(P("aaaa"), rs, SearchConfig(beam_width=200, max_moves=30, restarts=5, base_subset_size=1))
    assert not sampled.found and sampled.restarts_used == 5


def test_search_empty_target():
    rs = symmetrize([P("a")], 4)
    result = search((), rs, SMALL)
    assert result.found and result.log.moves == ()


def test_search_completeness_small_scale():
    # every single conjugated relator u^-1 r u with |u| <= 2 must be provable
    rs = symmetrize(bracelet_bases(2), 2)
    conjugators = [()]
    for n in (1, 2):
        conjugators += [w for w in _all_reduced(n)]
    for r in sorted(rs.members):
        for u in conjugators:
            target = conjugate(r, u)
            result = search(target, rs, SMALL)
            assert result.found, f"no proof for {target}"
            proof = reconstruct(result.log)
            assert verify(proof, target, relators=rs).valid


def _all_reduced(n):
    from itertools import product

    for letters in product([1, -1, 2, -2], repeat=n):
        if all(letters[i] != -letters[i + 1] for i in range(n - 1)):
            yield letters


def test_reconstruct_trivial():
    log = MoveLog(P("AAAA"), (P("aaaa"),))
    proof = reconstruct(log)
    assert proof.relators == (P("aaaa"),)
    assert flatten(proof) == P("aaaa")


def test_reconstruct_with_outer_conjugator():
    rs = symmetrize(bracelet_bases(2), 2)
    target = P("Baab")  # cyclic core "aa", outer conjugator "b"
    assert cyclic_reduce(target) == (P("aa"), P("b"))
    result = search(target, rs, SMALL)
    assert result.found
    # the log starts at the inverted target; conjugation by B leads it to the inverted core
    assert result.log.start == invert(target)
    assert result.log.moves[0] == -2
    assert replay(MoveLog(result.log.start, result.log.moves[:1])) == invert(P("aa"))
    proof = reconstruct(result.log)
    assert flatten(proof) == free_reduce(target)
    assert verify(proof, target, relators=rs).valid


def test_reconstruct_rejects_incomplete_log():
    log = MoveLog(P("AAAA"), (1,))
    with pytest.raises(ValueError):
        reconstruct(log)


def test_decompile_examples():
    log = decompile(parse_proof("(aaaa)"))
    assert list(log.moves) == [P("aaaa")]
    assert replay(log) == ()


def test_decompile_rejects_nontrivial_excision():
    with pytest.raises(ValueError):
        decompile(parse_proof("a(bbbb)a"))


def test_decompile_cr_fixture():
    p = e5_proof()
    log = decompile(p)
    assert log.start == invert(engel_word(5))
    assert replay(log) == ()
    assert reconstruct(log) == fold(p)


def test_decompile_reconstruct_round_trip_random():
    rng = random.Random(17)
    rs = symmetrize(bracelet_bases(2), 2)
    for _ in range(200):
        p = random_proof(rng, rs, rng.randrange(1, 5), 4)
        log = decompile(p)
        assert replay(log) == ()
        rebuilt = reconstruct(log)
        assert rebuilt == fold(p)
        assert verify(rebuilt, flatten(p), relators=rs).valid


def test_search_reconstruct_soundness_random_targets():
    # master round trip: whatever search returns must verify
    rng = random.Random(23)
    rs = symmetrize(bracelet_bases(2), 3)
    members = sorted(rs.members)
    for _ in range(40):
        p = random_proof(rng, rs, rng.randrange(1, 4), 3)
        target = flatten(p)
        result = search(target, rs, SearchConfig(beam_width=600, max_moves=24))
        if result.found:
            proof = reconstruct(result.log)
            assert verify(proof, target, relators=rs).valid


short_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(
    lambda letters: free_reduce(tuple(letters))
)


@settings(deadline=None)
@given(
    st.lists(short_words.map(lambda w: cyclic_reduce(w)[0]).filter(bool), min_size=1, max_size=3),
    st.integers(2, 4),
    st.lists(st.tuples(short_words, st.integers(0, 10**6)), min_size=1, max_size=2),
)
def test_key_search_logs_hold_in_the_tuple_algebra(bases, exponent, factors):
    # targets are products of conjugated members, so most searches succeed
    rs = symmetrize(bases, exponent)
    members = sorted(rs.members)
    letters = []
    for u, i in factors:
        letters.extend(invert(u) + members[i % len(members)] + u)
    target = free_reduce(tuple(letters))
    result = search(target, rs, SearchConfig(beam_width=100, max_moves=12))
    if result.found:
        assert result.log.start == invert(target)
        assert replay(result.log) == ()
        proof = reconstruct(result.log)
        assert verify(proof, target, relators=rs).valid
        assert replay(decompile(proof)) == ()


# three generators, so that a target may use a letter no relator has
short_words3 = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6).map(
    lambda letters: free_reduce(tuple(letters))
)
short_bases3 = short_words3.map(lambda w: cyclic_reduce(w)[0]).filter(bool)


def _depth_one(w, rs):
    """The first depth of a search from the state w, the beam wide open."""
    return search(invert(w), rs, SearchConfig(beam_width=10**6, max_moves=1))


@settings(deadline=None)
@given(st.lists(short_bases3, min_size=1, max_size=4), st.integers(1, 5), st.data())
def test_one_depth_tries_every_conjugation_and_the_half_rule_appends(bases, exponent, data):
    rs = symmetrize(bases, exponent)
    # a state that ends in the inverse of a member's prefix, often shorter
    # than the member, so that the half rule both admits and refuses
    member = data.draw(st.sampled_from(sorted(rs.members)))
    prefix = member[: data.draw(st.integers(0, len(member)))]
    w = cyclic_reduce(free_reduce(data.draw(short_words3) + invert(prefix)))[0]
    assume(w)
    used = {abs(x) for r in rs.members for x in r} | {abs(x) for x in w}
    assert _depth_one(w, rs).moves_tried == 2 * len(used) + len(naive_appendable(rs, w))


def test_one_depth_half_rule_examples():
    rs = symmetrize([P("ab")], 2)  # abab, baba, BABA, ABAB; letters a, A, b, B
    assert naive_appendable(rs, P("BABABA")) == [P("abab")]
    assert _depth_one(P("BABABA"), rs).moves_tried == 4 + 1
    assert _depth_one(P("aaaaa"), rs).moves_tried == 4 + 0
    # members longer than the state are all offered
    assert _depth_one(P("BA"), rs).moves_tried == 4 + 4


def _half_rule_buckets(entries, w):
    """(m, bucket) for each entry (m, _, levels, ...) that offers members to
    the state key w: the bucket at the half level h = ceil(m/2), or all the
    members when they are longer than w."""
    n = len(w)
    out = []
    for entry in entries:
        levels = entry[2]
        m = len(levels) - 1
        h = (m + 1) // 2
        bucket = levels[0][b""] if m > n else levels[h].get(w[n - h :])
        if bucket is not None:
            out.append((m, bucket))
    return out


@given(st.lists(short_bases3, min_size=1, max_size=4), st.integers(1, 5))
def test_half_rule_memo_derives_the_half_level_of_each_length(bases, exponent):
    append_index = symmetrize(bases, exponent).append_index
    index = _HalfRuleMemo(append_index).index
    assert len(index) == len(append_index)
    for (m, h, levels, tails), own in zip(index, append_index):
        assert levels is own and m == len(levels) - 1
        assert h == (m + 1) // 2 and tails == {key[-6:] for key in levels[h]}
        if h <= 6:
            assert tails == levels[h].keys()


def test_half_rule_memo_example():
    (levels,) = symmetrize([P("ab")], 2).append_index  # abab, baba, BABA, ABAB
    # the inverses of the members' first two letters
    half = {order_key(P(x)) for x in ("BA", "AB", "ab", "ba")}
    memo = _HalfRuleMemo((levels,))
    assert memo.index == [(4, 2, levels, half)]
    # BBBA ends in BA, the inverse of abab's ab; BBBB ends in no key; BA is
    # shorter than every member, so all of them are offered from level 0
    for state, kept in [("BBBA", [(4, 2, levels)]), ("BBBB", []), ("BA", [(4, 0, levels)])]:
        key = order_key(P(state))
        assert memo[key[memo.tail], min(len(key), memo.longest)] == kept


@settings(deadline=None)
@given(st.lists(short_bases3, min_size=1, max_size=3), st.integers(1, 5), st.randoms(use_true_random=False))
# m = 15, h = 8: a half level longer than the tail
@example(bases=[(1, 1, 2)], exponent=5, rnd=random.Random(0))
# m = 12, h = 6: a half level exactly as long as the tail
@example(bases=[(1, 2, 3), (1,)], exponent=4, rnd=random.Random(1))
def test_half_rule_memo_keeps_every_entry_that_offers(bases, exponent, rnd):
    rs = symmetrize(bases, exponent)
    memo = _HalfRuleMemo(rs.append_index)  # one memo for all the states, as in an attempt
    index = memo.index
    members = sorted(rs.members)
    letters = [x for g in (1, 2, 3) for x in (g, -g)]
    # three states of each length up to past the longest member, in a random
    # order; each ends in the inverse of a member's prefix, so that buckets
    # of every level are hit
    lengths = list(range(1, index[-1][0] + 4)) * 3
    rnd.shuffle(lengths)
    for n in lengths:
        member = rnd.choice(members)
        w = list(invert(member[: rnd.randint(0, len(member))]))
        while len(w) < n:
            w.insert(0, rnd.choice([x for x in letters if not w or x != -w[0]]))
        state = tuple(w[len(w) - n :])
        key = order_key(state)
        entries = memo[key[memo.tail], min(n, memo.longest)]
        kept = _half_rule_buckets(entries, key)
        assert kept == _half_rule_buckets(index, key)
        # the node loop's one lookup per kept length finds the same buckets
        looked_up = [(m, levels[h].get(key[n - h :])) for m, h, levels in entries]
        assert [(m, b) for m, b in looked_up if b is not None] == kept
        assert sum(len(b) for _, b in kept) == len(naive_appendable(rs, state))


@settings(deadline=None)
@given(
    st.lists(short_bases3, min_size=1, max_size=3),
    st.integers(1, 5),
    st.lists(st.tuples(short_words3, st.integers(0, 10**6)), max_size=3),
    st.one_of(st.just(()), short_words3),
    st.integers(1, 8),
    st.integers(1, 12),
)
# a growing conjugation from a word one letter under the cutoff
@example(bases=[(1,)], exponent=2, factors=[], extra=(2,), width=1, depth=2)
# a rotation once the cutoff has fallen below the word's own length
@example(bases=[(1, 1, -2)], exponent=2, factors=[((), 0), ((1,), 0)], extra=(), width=2, depth=2)
# depth 1 keeps b and ends at its class, and every child of b is longer:
# only starting depth 2 over, at the top class, finds its candidates
@example(bases=[(2,)], exponent=2, factors=[], extra=(2,), width=1, depth=2)
# a found log whose depths start over: without that the search finds a
# different, shorter log
@example(bases=[(2,)], exponent=4, factors=[((-1,), 0), ((1,), 15)], extra=(), width=4, depth=5)
# members longer than the state: within the cutoff's length, 3 once the
# conjugation BAb is built, only A aaaa = aaa fits, found at its 1-letter
# cancellation level
@example(bases=[(1,)], exponent=4, factors=[], extra=(1,), width=1, depth=1)
# a cutoff that asks more than the half rule: an append found only at the
# level of the cancellation the cutoff needs
@example(bases=[(1,), (2,)], exponent=2, factors=[], extra=(-1, -1, 3), width=2, depth=7)
# a cutoff so far below a state that no member could fit: the cancellation it
# needs is longer than the member, so that level is never looked up
@example(bases=[(1,)], exponent=1, factors=[], extra=(2, 2), width=3, depth=3)
# the beam runs out of new words at depth 3; the moves that depth tried
# still count
@example(bases=[(1,)], exponent=2, factors=[], extra=(1,), width=1, depth=3)
# members of length 15 whose half level, 8 letters, is longer than the memo's
# tail, appended to states at least 15 letters long
@example(bases=[(1, 1, 2)], exponent=5, factors=[((2,), 0), ((-1,), 7)], extra=(), width=4, depth=8)
# a start shorter than the memo's tail, below the members' length 8
@example(bases=[(1, 2)], exponent=4, factors=[], extra=(1, 2, 1), width=2, depth=4)
# width 1: a growing conjugation lands exactly on the cutoff class, and
# depths start over
@example(bases=[(2,)], exponent=1, factors=[], extra=(3,), width=1, depth=4)
@example(bases=[(-3,)], exponent=3, factors=[], extra=(-3, -2), width=1, depth=4)
# an append found only at the level of the cancellation the cutoff's length
# needs, not one above it, and a rotation and a growing conjugation that land
# exactly on the cutoff class
@example(bases=[(-2, -3), (3, 3)], exponent=1, factors=[((1, 3), 1), ((3,), 2)], extra=(), width=5, depth=4)
# a conjugation by the inverse of the last letter lands exactly on the cutoff
# class
@example(bases=[(-3, -3, 1, -3, -3, 1), (-2, -3)], exponent=2, factors=[((3, 2, 3, -2), 7)], extra=(-1,), width=2, depth=3)
# Each example below fails with the cutoff one class too low, with the
# appends' k-level lookup one letter too tight, or with the left rotation
# w[1:] + w[:1] filed under w[0] in place of w[1].
# a rotation and a growing conjugation at the cutoff's length, at width 2:
# one rotation within the cutoff class, one rotation and two growing
# conjugations beyond it by their first letter
@example(bases=[(1,), (-2,)], exponent=3, factors=[((2, 1), 2)], extra=(-2,), width=2, depth=4)
# the same at width 1: rotations on both sides of the cutoff class
@example(bases=[(-1,)], exponent=2, factors=[((-2,), 1)], extra=(-1, -2), width=1, depth=11)
# an append that cancels the whole state, j = n < m, and leaves a word of
# the cutoff's length: at rank 1, L = 2 ...
@example(bases=[(1,), (-1, -1)], exponent=3, factors=[], extra=(1,), width=3, depth=2)
# ... and over b alone, L = 4
@example(bases=[(2,)], exponent=5, factors=[], extra=(2,), width=2, depth=2)
# rank 3, L = 6, with b unused: L counts up to the largest letter index
@example(bases=[(-3,), (-1,)], exponent=2, factors=[], extra=(-1,), width=4, depth=9)
# Each example below fails with the whole-state append, j = n < m, filed
# under the inverse of the word's first letter: at rank 3 ...
@example(bases=[(2, 3)], exponent=3, factors=[], extra=(1, 3, 2, -1), width=1, depth=4)
# ... and at rank 1
@example(bases=[(-1, -1, -1), (-1, -1, -1, -1, -1)], exponent=1, factors=[], extra=(-1, -1, -1, -1), width=2, depth=4)
# The example below fails when a frozen visited class, thawed once the
# beam's words grow long enough for a child to reach it, does not return its
# words to the visited set: at width 1 the beam's one word shrinks and grows
# again, and a later child re-enters a word it left behind
@example(bases=[(1,)], exponent=1, factors=[], extra=(1, 2), width=1, depth=34)
# The example below fails when the conjugation that cancels both end
# letters, g^-1 the leading g and g the trailing g^-1, is dropped at the
# cutoff class itself, not only above it: one such child lands exactly on
# the cutoff class
@example(bases=[(1,), (2,), (1, 1, 2)], exponent=1, factors=[((), 3), ((1,), 0)], extra=(1, 1), width=2, depth=3)
# The example below raises TypeError when reach takes a member longer than
# the state to go on states of up to longest - 2 letters, not longest - 1:
# the beam's one word AA, one letter shorter than the members aaa and AAA,
# has one new child, AA AAA, five letters long, which that reach leaves frozen
@example(bases=[(1,)], exponent=3, factors=[((), 0)], extra=(-1,), width=1, depth=3)
# The example below fails when the selection files its words under a class
# of a shorter length: 13-letter words filed among 12-letter ones, frozen
# when the beam's words shrink, are thawed a depth later as 12-letter pieces
# and a 1-letter rest, B, which the next depth then takes for visited
@example(bases=[(1,)], exponent=4, factors=[((2, 3), 0)], extra=(1, 2, -1), width=6, depth=7)
def test_search_matches_the_full_ranking_oracle(bases, exponent, factors, extra, width, depth):
    # narrow beams make the class cutoff bind; targets are mostly products
    # of conjugated members, so many searches succeed
    rs = symmetrize(bases, exponent)
    members = sorted(rs.members)
    letters = []
    for u, i in factors:
        letters.extend(invert(u) + members[i % len(members)] + u)
    target = free_reduce(tuple(letters) + extra)
    config = SearchConfig(beam_width=width, max_moves=depth)
    result = search(target, rs, config)
    assert (result.log, result.states_visited, result.moves_tried) == reference_search(target, rs, config)


def test_e5_search_freezes_the_visited_classes_out_of_reach():
    # the E5 search over the 41 Lyndon bases, its relator index built first:
    # with every visited word in the visited set its traced peak reads about
    # 13.6 MB; with the classes that no child of the beam can reach frozen
    # into one bytes each, about 9.3 MB; with each frozen class compressed
    # by zlib at level 1, about 6.4 MB, with zlib 1.2.13 and 1.3.1 alike
    relators = symmetrize(lyndon_bases(5), 4)
    relators.append_index
    tracemalloc.start()
    try:
        result = search(engel_word(5), relators, SearchConfig(max_moves=400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.found, result.states_visited, result.moves_tried) == (True, 96_719, 581_867)
    assert peak < 7_500_000


def test_search_config_rejects_out_of_range_values():
    for bad in (
        dict(beam_width=0),
        dict(max_moves=0),
        dict(restarts=-1),
        dict(base_subset_size=0),
    ):
        with pytest.raises(ValueError):
            SearchConfig(**bad)
    SearchConfig(restarts=0, base_subset_size=1)


def test_reduce_presentation_inverse_pair():
    out = reduce_presentation([P("aaaa"), P("AAAA")], 4, SMALL)
    assert out == [P("AAAA")]


def test_reduce_presentation_drops_an_exact_duplicate():
    out = reduce_presentation([P("aaaa"), P("aaaa"), P("bbbb")], 4, SMALL)
    assert out == [P("aaaa"), P("bbbb")]


def test_reduce_presentation_rotated_pair():
    rels = [P("aaaa"), P("bbbb"), power(P("ab"), 4), power(P("ba"), 4)]
    out = reduce_presentation(rels, 4, SearchConfig(beam_width=200, max_moves=20))
    assert len(out) == 3
    assert P("aaaa") in out and P("bbbb") in out


@pytest.mark.parametrize("relators", [[P("ab")], [P("ab"), P("aaaa")]])
def test_reduce_presentation_checks_every_relator_before_searching(relators, monkeypatch):
    module = importlib.import_module("powerproof.search")
    searches = []
    monkeypatch.setattr(module, "search", lambda *args: searches.append(args))
    with pytest.raises(ValueError, match="relator 'ab' is not a power with exponent 4"):
        reduce_presentation(relators, 4, SMALL)
    assert searches == []


def test_reduce_presentation_preserves_group():
    from powerproof.cosets import Presentation, enumerate_cosets
    from powerproof.proofwords import distinct_presentation

    rels = distinct_presentation(e5_proof(), 4)
    out = reduce_presentation(rels, 4, SearchConfig(beam_width=300, max_moves=40))
    # determinism fingerprint: the survivors, in order
    assert out == [
        P(w)
        for w in (
            "aaaa",
            "bbbb",
            "aBaBaBaB",
            "aaBaaBaaBaaB",
            "aaaBaaaBaaaBaaaB",
            "abAbabAbabAbabAb",
            "abABabABabABabAB",
            "aaBaBaaBaBaaBaBaaBaB",
            "aaBAbaaBAbaaBAbaaBAb",
            "abABBabABBabABBabABB",
        )
    ]
    before = enumerate_cosets(Presentation(AB, tuple(rels))).order
    after = enumerate_cosets(Presentation(AB, tuple(out))).order
    assert before == after == 8192


def test_reduce_presentation_search_counters(monkeypatch):
    # every search the reduction runs, failing ones included, pinned as
    # (target, found, states_visited, moves_tried)
    from powerproof.proofwords import distinct_presentation

    module = importlib.import_module("powerproof.search")
    searches = []

    def counted(target, relators, config=None):
        result = search(target, relators, config)
        searches.append((word_str(target), result.found, result.states_visited, result.moves_tried))
        return result

    monkeypatch.setattr(module, "search", counted)
    reduce_presentation(distinct_presentation(e5_proof(), 4), 4, SearchConfig(beam_width=300, max_moves=40))
    assert searches == [
        ("aaaa", False, 7121, 394127),
        ("bbbb", False, 6409, 362471),
        ("abababab", True, 3079, 131701),
        ("aBaBaBaB", False, 11779, 512707),
        ("aaBaaBaaBaaB", False, 11769, 480163),
        ("aBBaBBaBBaBB", True, 4268, 152026),
        ("aaaBaaaBaaaBaaaB", False, 11745, 461013),
        ("abAbabAbabAbabAb", False, 11710, 73737),
        ("abABabABabABabAB", False, 11710, 53220),
        ("aaBaBaaBaBaaBaBaaBaB", False, 11205, 301437),
        ("aaBAbaaBAbaaBAbaaBAb", False, 11029, 47026),
        ("abAbbabAbbabAbbabAbb", True, 4699, 31929),
        ("abABBabABBabABBabABB", False, 10994, 47205),
    ]
