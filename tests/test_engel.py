import pytest

from powerproof.engel import commutator, engel_word, engel_word_expansion
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
    assert free_reduce(engel_word_expansion(5)) == engel_word(5)


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
