import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof, e5_proof_text
from powerproof.proofwords import (
    ProofWord,
    distinct_presentation,
    excision_word,
    flatten,
    fold,
    parse_proof,
    power_base,
    proof_str,
    round2,
    stats,
    symmetrize,
    verify,
)
from powerproof.words import (
    ParseError,
    cyclic_reduce,
    free_reduce,
    invert,
    order_key,
    parse_word as P,
    rotations,
)
from util import bracelet_bases, naive_appendable, random_proof


def test_symmetrize_examples():
    rs = symmetrize([P("a")], 4)
    assert rs.members == {P("aaaa"), P("AAAA")}
    rs = symmetrize([P("bA")], 4)
    assert rs.members == {P("bAbAbAbA"), P("AbAbAbAb"), P("aBaBaBaB"), P("BaBaBaBa")}
    assert symmetrize([P("AbA")], 4).members == symmetrize([P("bAA")], 4).members


def test_symmetrize_closure():
    rs = symmetrize([P("a"), P("ab"), P("aaB")], 3)
    for w in rs.members:
        assert invert(w) in rs.members
        assert rotations(w) <= rs.members


def test_symmetrize_rejects_bad_base():
    with pytest.raises(ValueError):
        symmetrize([P("abA")], 4)
    with pytest.raises(ValueError):
        symmetrize([()], 4)


def test_symmetrize_dedupes_bases():
    rs = symmetrize([P("AbA"), P("bAA"), P("aaB")], 4)
    assert len(rs.bases) == 1


reduced_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=24).map(
    lambda letters: free_reduce(tuple(letters))
)
base_words = reduced_words.map(lambda w: cyclic_reduce(w)[0]).filter(bool)


def appendable(relators, w):
    """The members RelatorSet.appends returns for w under a cutoff that no
    appended word can reach, as tuples."""
    cutoff = len(w) + max(map(len, relators.members))
    return relators_of(relators.appends(order_key(w), cutoff)[1])


def relators_of(buckets):
    return [move.relator for _, bucket in buckets for move, *_ in bucket]


@given(st.lists(base_words, min_size=1, max_size=4), st.integers(2, 5), st.lists(reduced_words, max_size=8))
def test_appendable_matches_naive_filter(bases, exponent, states):
    rs = symmetrize(bases, exponent)
    for w in states:
        assert appendable(rs, w) == naive_appendable(rs, w)
    # the lazily built index takes no part in equality or hashing
    fresh = symmetrize(bases, exponent)
    assert rs == fresh and hash(rs) == hash(fresh)


def test_appendable_examples():
    rs = symmetrize([P("ab")], 2)  # abab, baba, BABA, ABAB
    assert appendable(rs, ()) == [P("abab"), P("ABAB"), P("baba"), P("BABA")]
    assert appendable(rs, P("BABABA")) == [P("abab")]
    assert appendable(rs, P("aaaaa")) == []
    # a state shorter than the members: all four are offered, but within
    # 2 letters only abab fits (BA abab -> ab), and nothing fits in 1
    offered, buckets = rs.appends(order_key(P("BA")), 2)
    assert offered == 4 and relators_of(buckets) == [P("abab")]
    assert [k for k, _ in buckets] == [2]
    assert rs.appends(order_key(P("BA")), 1) == (4, [])
    # the index holds one entry per member, shared by all its levels
    entries = {id(e) for _, levels in rs._append_levels for level in levels for b in level.values() for e in b}
    assert len(entries) == len(rs.members)


small_bases = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6).map(
    lambda letters: cyclic_reduce(free_reduce(tuple(letters)))[0]
).filter(bool)


@given(st.lists(small_bases, min_size=1, max_size=4), st.integers(1, 5), st.data())
def test_appends_respect_the_cutoff(bases, exponent, data):
    rs = symmetrize(bases, exponent)
    members = sorted(rs.members)
    for _ in range(data.draw(st.integers(1, 8))):
        # states that end in the inverse of a member's prefix, often shorter
        # than the member, so that appends cancel and the cutoff bites
        member = data.draw(st.sampled_from(members))
        prefix = member[: data.draw(st.integers(0, len(member)))]
        w = free_reduce(data.draw(reduced_words) + invert(prefix))
        cutoff = data.draw(st.integers(-2, 40))
        offered, buckets = rs.appends(order_key(w), cutoff)
        naive = naive_appendable(rs, w)
        assert offered == len(naive)
        fits = [r for r in naive if len(free_reduce(w + r)) <= cutoff]
        assert relators_of(buckets) == fits
        for k, bucket in buckets:
            for move, key, inverse_prefixes in bucket:
                r = move.relator
                assert key == order_key(r)
                assert inverse_prefixes == tuple(order_key(invert(r[:j])) for j in range(len(r) + 1))
                # the bucket's k is a cancellation every appended word in it
                # really has, and at least what the cutoff needs
                assert order_key(w).endswith(inverse_prefixes[k])
                assert 2 * k >= len(w) + len(r) - cutoff


def test_parse_proof_example():
    p = parse_proof("a(babababa)A")
    assert p.conjugators == (P("a"), P("A"))
    assert p.relators == (P("babababa"),)


def test_parse_proof_lone_relator():
    p = parse_proof("(aaaa)")
    assert p.conjugators == ((), ())
    assert p.relators == (P("aaaa"),)


def test_parse_proof_comments_and_whitespace():
    p = parse_proof("# heading\na(bb\n  bb)A\n# trailing\n")
    assert p.relators == (P("bbbb"),)
    assert p.conjugators == (P("a"), P("A"))


def test_parse_proof_errors():
    with pytest.raises(ParseError) as exc:
        parse_proof("a((bb))")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_proof(")aa(")
    with pytest.raises(ParseError):
        parse_proof("(aa")
    with pytest.raises(ParseError):
        parse_proof("a()b")
    with pytest.raises(ParseError) as exc:
        parse_proof("aA(bb)")
    assert exc.value.position == 1
    with pytest.raises(ParseError):
        parse_proof("a(b!b)")


def test_parse_error_names_line_and_column():
    text = "# heading\na(bbbb)A\n  b(aa!aa)B\n"
    with pytest.raises(ParseError) as exc:
        parse_proof(text)
    err = exc.value
    assert text[err.position] == "!"
    assert (err.line, err.column) == (3, 7)
    assert "line 3, column 7" in str(err)
    with pytest.raises(ParseError) as exc:
        parse_proof("ab(aaaa)\n(bbbb")
    assert (exc.value.position, exc.value.line, exc.value.column) == (9, 2, 1)


def test_proof_str_round_trip():
    text = "a(babababa)A"
    assert proof_str(parse_proof(text)) == text


def test_proofword_shape_validation():
    with pytest.raises(ValueError):
        ProofWord(((),), (P("aaaa"),))
    with pytest.raises(ValueError):
        ProofWord((P("aA"), ()), (P("aaaa"),))
    with pytest.raises(ValueError):
        ProofWord(((), ()), ((),))


def test_flatten_examples():
    assert flatten(parse_proof("a(babababa)A")) == P("abababab")
    assert flatten(parse_proof("(aaaa)")) == P("aaaa")
    assert flatten(e5_proof()) == engel_word(5)


def test_cr_fixture_segments():
    p = e5_proof()
    assert len(p.relators) == 26
    for r in p.relators:
        base = power_base(r, 4)
        assert 1 <= len(base) <= 5
    stripped = "".join(
        line for line in e5_proof_text().splitlines() if not line.startswith("#")
    ).replace(" ", "")
    assert len(stripped) == 444


def test_verify_cr_fixture():
    rep = verify(e5_proof(), engel_word(5), relators=symmetrize(bracelet_bases(5), 4))
    assert rep.valid
    assert rep.flattens_to_target and rep.every_segment_is_relator and rep.excision_trivial
    assert rep.bad_relators == ()


def test_verify_exponent_only():
    rep = verify(e5_proof(), engel_word(5), exponent=4)
    assert rep.valid


def test_verify_detects_perturbation():
    text = "".join(line for line in e5_proof_text().splitlines() if not line.startswith("#"))
    # drop the last letter of the final conjugating string
    broken = parse_proof(text[:-1])
    rep = verify(broken, engel_word(5), exponent=4)
    assert not rep.flattens_to_target
    assert not rep.valid


def test_verify_trivial_case():
    rep = verify(parse_proof("(aaaa)"), P("aaaa"), relators=symmetrize([P("a")], 4))
    assert rep.valid


def test_verify_flags_non_member():
    rep = verify(parse_proof("(bbbb)"), P("bbbb"), relators=symmetrize([P("a")], 4))
    assert rep.flattens_to_target and rep.excision_trivial
    assert not rep.every_segment_is_relator
    assert rep.bad_relators == (0,)


def test_verify_needs_relator_rule():
    with pytest.raises(ValueError):
        verify(parse_proof("(aaaa)"), P("aaaa"))


def test_fold_examples():
    assert proof_str(fold(parse_proof("a(babababa)A"))) == "(abababab)"
    assert proof_str(fold(parse_proof("(aaaa)"))) == "(aaaa)"
    assert proof_str(fold(parse_proof("bb(AAAA)BB"))) == "bb(AAAA)BB"


def test_fold_absorbs_repeatedly():
    assert proof_str(fold(parse_proof("ba(babababa)AB"))) == "(babababa)"


def test_fold_properties_random():
    rng = random.Random(5)
    rs = symmetrize(bracelet_bases(2), 2)
    for _ in range(300):
        p = random_proof(rng, rs, rng.randrange(1, 5), 4)
        f = fold(p)
        assert fold(f) == f
        assert flatten(f) == flatten(p)
        assert _overall(f) <= _overall(p)
        t = flatten(p)
        assert verify(f, t, relators=rs).valid == verify(p, t, relators=rs).valid


def _overall(p):
    return sum(len(s) for s in p.segments()) + 2 * len(p.relators)


def test_stats_cr_column():
    st = stats(e5_proof(), 4)
    assert st.overall_length == 444
    assert st.relator_count == 26
    assert st.relator_length_sum == 272
    assert round2(st.mean_base_length) == "2.62"
    assert st.conjugating_pairs == 60
    assert round2(st.pairs_per_relator) == "2.31"
    assert st.distinct_relators == 13


def test_stats_trivial():
    st = stats(parse_proof("(aaaa)"), 4)
    assert st.overall_length == 6
    assert st.relator_count == 1
    assert st.relator_length_sum == 4
    assert st.mean_base_length == 1
    assert st.conjugating_pairs == 0
    assert st.distinct_relators == 1


def test_stats_identity_random():
    rng = random.Random(9)
    rs = symmetrize(bracelet_bases(3), 3)
    for _ in range(200):
        p = random_proof(rng, rs, rng.randrange(1, 6), 5)
        st = stats(p, 3)
        assert st.overall_length == (
            st.relator_length_sum + 2 * st.relator_count + 2 * st.conjugating_pairs
        )
        # a proof with trivial excision has an even number of outside symbols
        assert st.conjugating_pairs.denominator == 1


def test_stats_rejects_non_power():
    with pytest.raises(ValueError):
        stats(parse_proof("(aab)"), 4)
    with pytest.raises(ValueError):
        stats(parse_proof("(aaaA)"), 4)


def test_round2_half_up():
    assert round2(Fraction(68, 26)) == "2.62"
    assert round2(Fraction(60, 26)) == "2.31"
    assert round2(Fraction(90, 48)) == "1.88"
    assert round2(Fraction(3, 2)) == "1.50"
    assert round2(Fraction(1, 1)) == "1.00"


def test_distinct_presentation_examples():
    assert len(distinct_presentation(e5_proof(), 4)) == 13
    assert distinct_presentation(parse_proof("(aaaa)(AAAA)"), 4) == [P("aaaa")]
    assert len(distinct_presentation(parse_proof("(AbAAbAAbAAbA)(bAAbAAbAAbAA)"), 4)) == 1


def test_excision_word():
    assert excision_word(e5_proof()) == ()
    assert excision_word(parse_proof("ab(bbbb)BA")) == ()
    assert excision_word(parse_proof("ab(bbbb)Ba")) == P("aa")
