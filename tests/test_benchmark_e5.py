"""Full-scale benchmark: rediscover fourth-powers proofs of the fifth Engel
word from scratch, over the relator sets the paper compares.  Deterministic
(no restarts, fixed expansion order) but takes several seconds; deselect
with ``-m "not slow"``."""

import hashlib

import pytest

from powerproof.bracelets import enumerate_lyndon
from powerproof.cosets import Presentation, enumerate_cosets
from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof
from powerproof.proofwords import distinct_presentation, power_base, proof_str, stats, symmetrize, verify
from powerproof.search import SearchConfig, search, reconstruct
from powerproof.words import AB, power


def lyndon_bases(upto):
    return [c.canonical for n in range(1, upto + 1) for c in enumerate_lyndon(AB, n)]


def fixture_bases():
    return [power_base(r, 4) for r in distinct_presentation(e5_proof(), 4)]


def swap_and_invert(w):
    """The image of w under a -> B, b -> A."""
    return tuple(-3 + x if x > 0 else 3 + x for x in w)


E5 = engel_word(5)


# (bases, target, (states_visited, moves_tried), (powers, overall length),
#  sha256 of what `powerproof search` prints, cosets defined when the fourth
# powers of the bases are enumerated, or None to skip the enumeration)
@pytest.mark.slow
@pytest.mark.parametrize(
    "bases, target, counters, size, digest, cosets",
    [
        pytest.param(
            lyndon_bases(5), E5, (96719, 581867), (30, 468),
            "8d650b5a460ac13654ca8d9caa6c4eabd032323f5d79d93453278edbe9041aab", None,
            id="lyndon5",
        ),
        pytest.param(
            lyndon_bases(5), swap_and_invert(E5), (100719, 1195242), (30, 468),
            "006de32a16f6d5545f032348e3f7487d89667747981b184413d235c3ecbba89d", None,
            id="lyndon5-image",
        ),
        pytest.param(
            lyndon_bases(4), E5, (153719, 694447), (54, 680),
            "1b95c56fa926957c4faead0b57468d345072c1af4deaa68cbba8bf373fbede63", 11851,
            id="lyndon4",
        ),
        pytest.param(
            fixture_bases(), E5, (99717, 459404), (30, 478),
            "7ce0bd64d8df83ccfc5eaa78846e11382d909f8e92ba4586fe239e5f21c794cb", None,
            id="fixture13",
        ),
    ],
)
def test_rediscover_e5_proof_from_scratch(bases, target, counters, size, digest, cosets):
    relators = symmetrize(bases, 4)
    result = search(target, relators, SearchConfig(beam_width=1000, max_moves=400))
    assert result.found
    proof = reconstruct(result.log)
    assert verify(proof, target, relators=relators).valid
    # determinism fingerprints: any change to the expansion order moves them
    assert (result.states_visited, result.moves_tried) == counters
    st = stats(proof, 4)
    assert (st.relator_count, st.overall_length) == size
    printed = (proof_str(proof) + "\n").encode()
    assert hashlib.sha256(printed).hexdigest() == digest
    for r in proof.relators:
        assert 1 <= len(power_base(r, 4)) <= max(map(len, bases))
    if cosets is not None:
        table = enumerate_cosets(Presentation(AB, tuple(power(b, 4) for b in bases)))
        assert (table.order, table.cosets_defined) == (4096, cosets)
