import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof
from powerproof.proofwords import flatten, fold, parse_proof, symmetrize, verify
from powerproof.search import (
    Append,
    Conjugate,
    MoveLog,
    SearchConfig,
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
    parse_word as P,
    power,
    word_str,
)
from util import bracelet_bases, random_proof, random_reduced_word, reference_search


SMALL = SearchConfig(beam_width=500, max_moves=16)


def test_apply_move_examples():
    assert apply_move(P("ab"), Conjugate(1)) == P("ba")
    assert apply_move(P("AAAA"), Append(P("aaaa"))) == ()
    assert apply_move((), Append(P("abab"))) == P("abab")
    assert apply_move((), Conjugate(2)) == ()


def test_apply_move_matches_definition():
    rng = random.Random(3)
    for _ in range(300):
        w = random_reduced_word(rng, rng.randrange(12))
        g = rng.choice([1, -1, 2, -2])
        assert apply_move(w, Conjugate(g)) == conjugate(w, (g,))
        r = random_reduced_word(rng, rng.randrange(1, 9))
        assert apply_move(w, Append(r)) == free_reduce(w + r)


def test_replay():
    log = MoveLog(P("AAAA"), (Append(P("aaaa")),))
    assert replay(log) == ()


def test_search_single_append():
    rs = symmetrize([P("a")], 4)
    result = search(P("aaaa"), rs, SMALL)
    assert result.found
    assert list(result.log.moves) == [Append(P("aaaa"))]


def test_search_commutator_of_squares():
    # oracle identity: ABab = (AB)^2 (baB)^2 (b)^2 freely reduces to ABab
    identity = free_reduce(power(P("AB"), 2) + power(P("baB"), 2) + power(P("b"), 2))
    assert identity == P("ABab")
    rs = symmetrize(bracelet_bases(3), 2)
    result = search(P("ABab"), rs, SearchConfig(beam_width=1000, max_moves=32))
    assert result.found
    appends = [m for m in result.log.moves if isinstance(m, Append)]
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
    with pytest.raises(ValueError):
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
    log = MoveLog(P("AAAA"), (Append(P("aaaa")),))
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
    assert result.log.moves[0] == Conjugate(-2)
    assert replay(MoveLog(result.log.start, result.log.moves[:1])) == invert(P("aa"))
    proof = reconstruct(result.log)
    assert flatten(proof) == free_reduce(target)
    assert verify(proof, target, relators=rs).valid


def test_reconstruct_rejects_incomplete_log():
    log = MoveLog(P("AAAA"), (Conjugate(1),))
    with pytest.raises(ValueError):
        reconstruct(log)


def test_decompile_examples():
    log = decompile(parse_proof("(aaaa)"))
    assert list(log.moves) == [Append(P("aaaa"))]
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


@settings(deadline=None)
@given(
    st.lists(short_words.map(lambda w: cyclic_reduce(w)[0]).filter(bool), min_size=1, max_size=3),
    st.integers(2, 4),
    st.lists(st.tuples(short_words, st.integers(0, 10**6)), max_size=3),
    st.one_of(st.just(()), short_words),
    st.integers(1, 8),
    st.integers(1, 12),
)
def test_search_matches_the_full_ranking_oracle(bases, exponent, factors, extra, width, depth):
    # narrow beams make the length cutoff bind; targets are mostly products
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


def test_reduce_presentation_rotated_pair():
    rels = [P("aaaa"), P("bbbb"), power(P("ab"), 4), power(P("ba"), 4)]
    out = reduce_presentation(rels, 4, SearchConfig(beam_width=200, max_moves=20))
    assert len(out) == 3
    assert P("aaaa") in out and P("bbbb") in out


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
