import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof, e5_proof_text
from powerproof.proofwords import (
    MAX_EXPONENT,
    ProofWord,
    RelatorSet,
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
    Alphabet,
    ParseError,
    cyclic_reduce,
    free_reduce,
    invert,
    order_key,
    parse_word as P,
    rotations,
)
from util import bracelet_bases, bracelet_canon_oracle, naive_appendable, random_proof


def test_symmetrize_examples():
    rs = symmetrize([P("a")], 4)
    assert rs.members == {P("aaaa"), P("AAAA")}
    rs = symmetrize([P("bA")], 4)
    assert rs.members == {P("bAbAbAbA"), P("AbAbAbAb"), P("aBaBaBaB"), P("BaBaBaBa")}
    assert symmetrize([P("AbA")], 4).members == symmetrize([P("bAA")], 4).members


def test_relator_set_stores_only_its_bases():
    assert [f.name for f in dataclasses.fields(RelatorSet)] == ["exponent", "bases"]
    # the members follow from the bases however they were chosen
    assert RelatorSet(4, (P("a"),)).members == {P("aaaa"), P("AAAA")}
    assert RelatorSet(2, (P("Ab"),)).members == symmetrize([P("bA")], 2).members
    # construction canonicalises the bases, so equal sets compare equal
    assert RelatorSet(2, (P("Ab"),)) == symmetrize([P("bA")], 2)
    assert RelatorSet(4, (P("Baa"), P("AbA"))).bases == (P("aaB"),)


def test_relator_set_validates_on_construction():
    with pytest.raises(ValueError, match="^'aA' is not cyclically reduced, so it has no bracelet class$"):
        RelatorSet(4, ((1, -1),))
    with pytest.raises(ValueError, match="the empty word has no bracelet class"):
        RelatorSet(4, (P("a"), ()))
    with pytest.raises(ValueError, match="exponent must be positive, got 0"):
        RelatorSet(0, (P("a"),))
    # the append index grows with the square of the exponent
    assert RelatorSet(MAX_EXPONENT, (P("a"),)).exponent == MAX_EXPONENT == 64
    with pytest.raises(ValueError, match="^exponents are taken up to MAX_EXPONENT = 64, got 65$"):
        RelatorSet(65, (P("a"),))


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
    with pytest.raises(ValueError, match="exponent must be positive, got 0"):
        symmetrize([P("a")], 0)


def test_symmetrize_dedupes_bases():
    rs = symmetrize([P("AbA"), P("bAA"), P("aaB")], 4)
    assert len(rs.bases) == 1


small_bases = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6).map(
    lambda letters: cyclic_reduce(free_reduce(tuple(letters)))[0]
).filter(bool)


@given(st.lists(small_bases, min_size=1, max_size=4), st.integers(1, 5))
def test_append_index_files_one_entry_per_member_at_every_level(bases, exponent):
    rs = symmetrize(bases, exponent)
    members = sorted(rs.members, key=lambda r: (len(r), order_key(r)))
    index = rs.append_index
    # one levels list per member length m, ascending, holding levels 0 to m
    assert [len(levels) - 1 for levels in index] == sorted({len(r) for r in members})
    entries = []
    for levels in index:
        m = len(levels) - 1
        # level 0 lists every member of length m, in key order
        of_length = levels[0][b""]
        assert [r for r, *_ in of_length] == [r for r in members if len(r) == m]
        for r, key, inverse_prefixes in of_length:
            assert key == order_key(r)
            assert inverse_prefixes == tuple(order_key(invert(r[:j])) for j in range(m + 1))
        # every level files the same entry objects, each under the key of the
        # inverse of its k-letter prefix, in key order
        for k, level in enumerate(levels):
            filed = [e for bucket in level.values() for e in bucket]
            assert sorted(map(id, filed)) == sorted(map(id, of_length))
            for prefix, bucket in level.items():
                assert all(e[2][k] == prefix for e in bucket)
                assert [e[1] for e in bucket] == sorted(e[1] for e in bucket)
        entries += of_length
    assert len(entries) == len(rs.members)
    # the lazily built members and index take no part in equality or hashing
    fresh = symmetrize(bases, exponent)
    assert rs == fresh and hash(rs) == hash(fresh)


def test_append_index_example():
    rs = symmetrize([P("ab")], 2)  # abab, baba, BABA, ABAB
    (levels,) = rs.append_index
    assert len(levels) == 4 + 1
    assert [r for r, *_ in levels[0][b""]] == [P("abab"), P("ABAB"), P("baba"), P("BABA")]
    # a state ending in BA cancels at least half of abab, and only of abab
    assert [r for r, *_ in levels[2][order_key(P("BA"))]] == [P("abab")]
    assert [r for r, *_ in levels[3][order_key(P("BAB"))]] == [P("baba")]
    # the index holds one entry per member, shared by all its levels
    entries = {id(e) for level in levels for bucket in level.values() for e in bucket}
    assert len(entries) == len(rs.members)


reduced_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=24).map(
    lambda letters: free_reduce(tuple(letters))
)


@given(st.lists(small_bases, min_size=1, max_size=4), st.integers(1, 5), st.data())
def test_appends_respect_the_cutoff(bases, exponent, data):
    """For a state and a length cutoff, the index bucket at the larger of the
    half rule's cancellation and the cutoff's lists exactly the members the
    half rule offers whose appended word fits within the cutoff."""
    rs = symmetrize(bases, exponent)
    members = sorted(rs.members)
    for _ in range(data.draw(st.integers(1, 8))):
        # states that end in the inverse of a member's prefix, often shorter
        # than the member, so that appends cancel and the cutoff bites
        member = data.draw(st.sampled_from(members))
        prefix = member[: data.draw(st.integers(0, len(member)))]
        w = free_reduce(data.draw(reduced_words) + invert(prefix))
        cutoff = data.draw(st.integers(-2, 40))
        s, n = order_key(w), len(w)
        naive = naive_appendable(rs, w)
        for levels in rs.append_index:
            m = len(levels) - 1
            h = (m + 1) // 2  # the half rule's cancellation, ceil(m/2)
            offered = [r for r in naive if len(r) == m]
            fits = [r for r in offered if len(free_reduce(w + r)) <= cutoff]
            half = h if m <= n else 0
            assert [r for r, *_ in levels[half].get(s[n - half :], [])] == offered
            k = max(half, (n + m - cutoff + 1) // 2)
            bucket = levels[k].get(s[n - k :], []) if k <= min(m, n) else []
            assert [r for r, *_ in bucket] == fits
            for r, key, inverse_prefixes in bucket:
                # k is a cancellation every appended word in the bucket
                # really has, and at least what the cutoff needs
                assert s.endswith(inverse_prefixes[k])
                assert 2 * k >= n + m - cutoff


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
    # the message and the position of each error, an empty relator's at its '('
    for text, message, position in [
        (")aa(", "unmatched ')' in proof word", 0),
        ("(aa", "unclosed '(' in proof word", 0),
        ("a()b", "empty relator segment", 1),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_proof(text)
        assert str(exc.value) == f"{message} at line 1, column {position + 1} (position {position})"
        assert exc.value.position == position
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


@st.composite
def ranked_proofs(draw):
    """(rank, a valid proof word over bracelet bases of that rank)"""
    rank = draw(st.integers(1, 3))
    bases = draw(st.lists(st.sampled_from(bracelet_bases(3, rank)), min_size=1, max_size=4))
    relators = symmetrize(bases, draw(st.integers(1, 5)))
    return rank, random_proof(draw(st.randoms()), relators, draw(st.integers(0, 5)), 3, rank=rank)


@given(ranked_proofs())
@example((2, ProofWord(((), ()), (P("aaaa"),))))  # a lone relator
@example((2, ProofWord(((), P("b"), ()), (P("aaaa"), P("BBBB")))))  # empty outer conjugators
def test_parse_proof_inverts_proof_str(case):
    rank, p = case
    assert parse_proof(proof_str(p), Alphabet(rank)) == p


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


def test_verify_exponent_only_flags_non_powers():
    # aaab is no square; aAaA is the square of aA, which is not cyclically reduced
    for text in ("(aaab)", "(aAaA)"):
        p = parse_proof(text)
        rep = verify(p, flatten(p), exponent=2)
        assert rep.flattens_to_target and rep.excision_trivial
        assert rep.bad_relators == (0,) and not rep.valid


def test_verify_needs_relator_rule():
    with pytest.raises(ValueError, match="^verify needs a RelatorSet or an exponent$"):
        verify(parse_proof("(aaaa)"), P("aaaa"))


def test_fold_examples():
    assert proof_str(fold(parse_proof("a(babababa)A"))) == "(abababab)"
    assert proof_str(fold(parse_proof("(aaaa)"))) == "(aaaa)"
    assert proof_str(fold(parse_proof("bb(AAAA)BB"))) == "bb(AAAA)BB"


def test_fold_absorbs_repeatedly():
    assert proof_str(fold(parse_proof("ba(babababa)AB"))) == "(babababa)"
    # two neighbouring relators both absorb letters of the conjugator
    # between them, the first from its start and the second from its end
    assert proof_str(fold(parse_proof("ba(babababa)ABa(aaaa)A"))) == "(babababa)(aaaa)"
    assert proof_str(fold(parse_proof("ba(babababa)ABab(BBBB)BA"))) == "(babababa)a(BBBB)A"


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
        # the identity holds by construction; the text form is the oracle
        assert st.overall_length == len(proof_str(p))
        # a proof with trivial excision has an even number of outside symbols
        assert st.conjugating_pairs.denominator == 1


@given(st.lists(small_bases, min_size=1, max_size=4), st.integers(1, 5), st.integers(1, 6), st.randoms())
def test_stats_counts_the_classes_of_the_distinct_presentation(bases, exponent, n_relators, rng):
    p = random_proof(rng, symmetrize(bases, exponent), n_relators, 3, rank=3)
    classes = {bracelet_canon_oracle(power_base(r, exponent)) for r in p.relators}
    assert stats(p, exponent).distinct_relators == len(distinct_presentation(p, exponent)) == len(classes)


def test_stats_rejects_non_power():
    # one message, whichever way the relator fails to be a power
    cases = [
        ("aab", 4),  # its length is no multiple of 4
        ("aaaA", 4),  # a^4 is not aaaA
        ("abA", 1),  # abA is its own first power, but not cyclically reduced
        ("abAB", 2),  # abab is not abAB
        ("abAB", 3),  # its length is no multiple of 3
    ]
    for relator, exponent in cases:
        message = f"relator '{relator}' is not a power with exponent {exponent} of a cyclically reduced word$"
        with pytest.raises(ValueError, match=message):
            stats(parse_proof(f"({relator})"), exponent)


def test_stats_rejects_a_proof_without_relators():
    with pytest.raises(ValueError, match="proof word has no relator segments"):
        stats(parse_proof("ab"), 4)


def test_stats_takes_exponents_up_to_the_relator_set_bound():
    assert stats(parse_proof("(" + "a" * MAX_EXPONENT + ")"), MAX_EXPONENT).distinct_relators == 1
    with pytest.raises(ValueError, match="^exponents are taken up to MAX_EXPONENT = 64, got 65$"):
        stats(parse_proof("(" + "a" * 65 + ")"), 65)


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
