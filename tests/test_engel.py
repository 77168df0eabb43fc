import pytest

from powerproof import engel
from powerproof.engel import MAX_ENGEL, commutator, engel_word
from powerproof.words import conjugate, cyclic_reduce, free_reduce, invert, parse_word as P


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
    # the recursion written out with no reduction, of length
    # 2 * len(E_{n-1}) + 2 = 3 * 2^n - 2, and reduced once at the end
    a, b = P("a"), P("b")
    raw = invert(a) + invert(b) + a + b
    lengths = []
    for n in range(1, 9):
        lengths.append(len(raw))
        assert len(raw) == 3 * 2**n - 2
        assert free_reduce(raw) == engel_word(n)
        raw = invert(raw) + invert(b) + raw + b
    assert lengths[:5] == [4, 10, 22, 46, 94]


def test_engel_reduced_lengths():
    assert [len(engel_word(n)) for n in (5, 10, 15)] == [72, 2_066, 65_564]


def test_engel_index_is_bounded(monkeypatch):
    # an index past the bound is refused before any word is built
    def no_words(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(engel, "commutator", no_words)
    monkeypatch.setattr(engel, "invert", no_words)
    assert MAX_ENGEL == 20
    for n in (MAX_ENGEL + 1, 40, 10**9):
        with pytest.raises(ValueError, match=f"built up to n = MAX_ENGEL = 20, got {n}"):
            engel_word(n)


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
