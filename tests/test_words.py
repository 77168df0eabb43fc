import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powerproof.bracelets import bracelet_canon
from powerproof.proofwords import symmetrize
from powerproof.words import (
    AB,
    Alphabet,
    KEY_INVERSE,
    LETTERS,
    ParseError,
    conjugate,
    cyclic_reduce,
    free_reduce,
    invert,
    is_cyclically_reduced,
    is_freely_reduced,
    key_word,
    order_key,
    parse_word,
    power,
    rotations,
    word_str,
)
from util import invert_str, random_letters, reduce_str

words = st.builds(tuple, st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40))


def P(text):
    return parse_word(text, AB)


def test_parse_direct_mapping():
    assert P("ABab") == (-1, -2, 1, 2)
    assert P("bAbAbAbA") == (2, -1, 2, -1, 2, -1, 2, -1)


def test_parse_does_not_reduce():
    assert P("aA") == (1, -1)


def test_parse_ignores_whitespace():
    assert P(" a\nB\tb ") == (1, -2, 2)
    # lines whose first non-blank character is '#' are comments
    assert P("# c\n ab\n  # d\nB") == P("abB")
    text = "# c\nab\n  # d\nbx"
    with pytest.raises(ParseError) as exc:
        P(text)
    assert exc.value.position == text.index("x")
    assert (exc.value.line, exc.value.column) == (4, 2)


def test_parse_rejects_out_of_rank():
    with pytest.raises(ParseError) as exc:
        P("ax")
    assert exc.value.position == 1
    assert (exc.value.line, exc.value.column) == (1, 2)
    with pytest.raises(ParseError):
        P("a1b")
    assert parse_word("c", Alphabet(3)) == (3,)
    # each rank reads exactly the first 2 * rank characters of aAbB...zZ, as
    # the first 2 * rank letters of the table, and rejects the next one
    text = "aAbBcCdDeEfFgGhHiIjJkKlLmMnNoOpPqQrRsStTuUvVwWxXyYzZ"
    for rank in range(1, 27):
        assert parse_word(text[: 2 * rank], Alphabet(rank)) == LETTERS[: 2 * rank]
        if rank < 26:
            with pytest.raises(ParseError) as exc:
                parse_word(text[: 2 * rank + 1], Alphabet(rank))
            assert exc.value.position == 2 * rank


def test_alphabet_rank_bounds():
    with pytest.raises(ValueError):
        Alphabet(0)
    with pytest.raises(ValueError):
        Alphabet(27)


def test_word_str_inverts_parse():
    assert word_str(P("aBAb")) == "aBAb"
    assert word_str(()) == ""
    # all 52 letters of rank 26, z and Z included
    text = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    w = parse_word(text, Alphabet(26))
    assert w == (*range(1, 27), *range(-1, -27, -1))
    assert word_str(w) == text


def test_letter_table_orders_and_pairs_inverses():
    assert len(LETTERS) == 52
    for i, x in enumerate(LETTERS):
        assert order_key((x,)) == bytes([i])
        assert LETTERS[i ^ 1] == -x
    keys = [order_key((x,)) for x in LETTERS]
    assert all(k < next_k for k, next_k in zip(keys, keys[1:]))


def test_letters_outside_the_table_raise():
    # 0 and letters beyond +-26 have no index, character or key, so none of
    # them may stand in for a letter of the table (-27 for 26, say)
    for x in (0, 27, -27):
        for encode in (order_key, word_str, bracelet_canon):
            with pytest.raises(KeyError):
                encode((x,))
        with pytest.raises(KeyError):
            symmetrize([(x,)], 4)


def test_free_reduce_examples():
    assert free_reduce(P("aAb")) == P("b")
    assert free_reduce(()) == ()
    assert free_reduce(P("abBA")) == ()


def test_invert_examples():
    assert invert(P("ab")) == P("BA")
    assert invert(()) == ()
    assert invert(P("aaB")) == P("bAA")


def test_conjugate_examples():
    # u^-1 w u with u = "A" rotates this power word by one letter
    assert conjugate(P("babababa"), P("A")) == P("abababab")
    assert conjugate(P("bAbAbAbA"), P("b")) == P("AbAbAbAb")
    assert conjugate(P("aA"), ()) == ()


def test_cyclic_reduce_examples():
    assert cyclic_reduce(P("aba")) == (P("aba"), ())
    assert cyclic_reduce(P("Bab")) == (P("a"), P("b"))
    assert cyclic_reduce(()) == ((), ())


def test_rotations_examples():
    assert rotations(P("AbA")) == {P("AbA"), P("bAA"), P("AAb")}
    assert rotations(P("aa")) == {P("aa")}
    assert rotations(()) == {()}
    with pytest.raises(ValueError):
        rotations(P("aA"))
    with pytest.raises(ValueError):
        rotations(P("baB"))


def test_power_examples():
    assert power(P("bA"), 4) == P("bAbAbAbA")
    assert power(P("a"), 1) == P("a")
    with pytest.raises(ValueError):
        power(P("a"), 0)


@given(words)
def test_free_reduce_idempotent_and_parity(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert is_freely_reduced(r)
    assert len(r) <= len(w)
    assert len(r) % 2 == len(w) % 2


@given(words)
def test_reduce_matches_string_oracle(w):
    assert word_str(free_reduce(w)) == reduce_str(word_str(w))
    assert word_str(invert(w)) == invert_str(word_str(w))


@given(words)
def test_word_times_inverse_is_trivial(w):
    assert free_reduce(w + invert(w)) == ()
    assert invert(invert(w)) == w


@given(words, words)
def test_conjugation_round_trip(w, u):
    assert conjugate(conjugate(w, u), invert(u)) == free_reduce(w)


def reduced_words_of_rank(rank):
    letters = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    return st.lists(st.sampled_from(letters), max_size=30).map(lambda w: free_reduce(tuple(w)))


ranked_words = st.integers(2, 26).flatmap(lambda rank: st.lists(reduced_words_of_rank(rank), max_size=8))


def test_order_key_is_the_letter_indices():
    w = (-26, -1, 1, 26)
    assert type(order_key(w)) is bytes
    assert order_key(w) == bytes([51, 1, 0, 50])
    assert order_key(LETTERS) == bytes(range(52))
    assert order_key(()) == b""


@given(ranked_words)
def test_order_key_round_trip_order_and_inverse(ws):
    for w in ws:
        assert key_word(order_key(w)) == w
        assert order_key(w)[::-1].translate(KEY_INVERSE) == order_key(invert(w))
    by_index = sorted(ws, key=lambda w: tuple(map(LETTERS.index, w)))
    assert sorted(order_key(w) for w in ws) == [order_key(w) for w in by_index]


def test_reduction_predicates_match_the_definition():
    # every word of length up to 5 on a, A, b, B, against the letter-pair definition
    for w in (w for n in range(6) for w in product((1, -1, 2, -2), repeat=n)):
        reduced = all(x != -y for x, y in zip(w, w[1:]))
        assert is_freely_reduced(w) == reduced
        assert is_cyclically_reduced(w) == (reduced and (len(w) < 2 or w[0] != -w[-1]))


@given(words)
def test_cyclic_reduce_round_trip(w):
    core, u = cyclic_reduce(w)
    assert is_cyclically_reduced(core)
    assert conjugate(core, u) == free_reduce(w)


def test_power_preserves_cyclic_reduction():
    rng = random.Random(7)
    for _ in range(200):
        w = free_reduce(random_letters(rng, rng.randrange(1, 9)))
        if not is_cyclically_reduced(w) or not w:
            continue
        for e in (2, 3, 4):
            p = power(w, e)
            assert len(p) == e * len(w)
            assert is_cyclically_reduced(p)
