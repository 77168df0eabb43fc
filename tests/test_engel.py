import pytest

from powerproof import engel
from powerproof.engel import MAX_ENGEL, commutator, engel_word, engel_word_expansion
from powerproof.words import conjugate, cyclic_reduce, free_reduce, parse_word as P


def test_commutator_examples():
    assert commutator(P("a"), P("b")) == P("ABab")
    assert commutator(P("ab"), P("ab")) == ()
    assert commutator(P("ABab"), P("b")) == P("BAbaBABabb")


def test_engel_word_small():
    assert engel_word(1) == P("ABab")
    assert engel_word(2) == P("BAbaBABabb")
    with pytest.raises(ValueError):
        engel_word(0)


def test_engel_recursion():
    for n in range(2, 7):
        assert engel_word(n) == commutator(engel_word(n - 1), P("b"))


def test_expansion_length_recurrence():
    lengths = [len(engel_word_expansion(n)) for n in range(1, 6)]
    expected = [4]
    while len(expected) < 5:
        expected.append(2 * expected[-1] + 2)
    assert lengths == expected == [4, 10, 22, 46, 94]
    # the closed form that the bound MAX_ENGEL is reckoned by
    assert all(len(engel_word_expansion(n)) == 3 * 2**n - 2 for n in range(1, 13))
    assert free_reduce(engel_word_expansion(5)) == engel_word(5)


def test_engel_index_is_bounded(monkeypatch):
    # the expansion of E_n is built in full, 3 * 2^n - 2 letters, so an index
    # past the bound is refused before any word is built
    def no_words(w):
        raise AssertionError("a word was built")

    monkeypatch.setattr(engel, "invert", no_words)
    assert MAX_ENGEL == 20
    for n in (MAX_ENGEL + 1, 40, 10**9):
        for build in (engel_word_expansion, engel_word):
            with pytest.raises(ValueError, match=f"built up to n = MAX_ENGEL = 20, got {n}"):
                build(n)


def test_e5_shape():
    e5 = engel_word(5)
    assert len(e5) == 72
    assert e5[:4] == P("BBBB")
    assert e5[-4:] == P("bbbb")


def test_engel_target():
    core, outer = cyclic_reduce(engel_word(5))
    assert len(core) == 64
    assert outer == P("bbbb")
    assert conjugate(core, outer) == engel_word(5)
