"""Full-scale benchmark: rediscover fourth-powers proofs of the fifth Engel
word from scratch, over the relator sets the paper compares.  Deterministic
(no restarts, fixed expansion order) but takes several seconds; deselect
with ``-m "not slow"``."""

import hashlib

import pytest

from powerproof.cosets import Presentation, enumerate_cosets
from powerproof.engel import engel_word
from powerproof.fixtures import e5_proof
from powerproof.proofwords import distinct_presentation, power_base, proof_str, stats, symmetrize, verify
from powerproof.search import SearchConfig, search, reconstruct
from powerproof.words import AB, power

from util import lyndon_bases


def fixture_bases():
    return [power_base(r, 4) for r in distinct_presentation(e5_proof(), 4)]


def image(w, swap, invert_a, invert_b):
    """The image of w under the map taking a to b if swap else a, and b to
    a if swap else b, each image inverted if invert_a or invert_b says so."""
    to = {1: (-1 if invert_a else 1) * (2 if swap else 1), 2: (-1 if invert_b else 1) * (1 if swap else 2)}
    return tuple(to[x] if x > 0 else -to[-x] for x in w)


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
        # E5 under the other 7 of the 8 maps that swap a and b, invert a,
        # invert b, or any mix of these, over the same bases
        pytest.param(
            lyndon_bases(5), image(E5, True, True, True), (100719, 1195242), (30, 468),
            "006de32a16f6d5545f032348e3f7487d89667747981b184413d235c3ecbba89d", None,
            id="lyndon5-image",  # a -> B, b -> A
        ),
        pytest.param(
            lyndon_bases(5), image(E5, False, False, True), (100719, 1247425), (30, 478),
            "01389edc5e1558a750a3aed229aef12e714eee10e4a0e4da177b5cbb974ec792", None,
            id="lyndon5-invert-b",  # b -> B
        ),
        pytest.param(
            lyndon_bases(5), image(E5, False, True, False), (98719, 1295206), (30, 474),
            "09bf823dee7ed2180a66e56d5e9811d080f92079a3d0a9603456c55a346f79df", None,
            id="lyndon5-invert-a",  # a -> A
        ),
        pytest.param(
            lyndon_bases(5), image(E5, False, True, True), (100719, 1323965), (30, 478),
            "d8d37ebf451941c4f235223918a1316ab3d04b9f4fafd92f55050e480dc42bd3", None,
            id="lyndon5-invert-ab",  # a -> A, b -> B
        ),
        pytest.param(
            lyndon_bases(5), image(E5, True, False, False), (96719, 538659), (30, 466),
            "b8ade05eaf2e6ab11ed63b9fdb67c188a579cd5726967b2e31a769743f268b45", None,
            id="lyndon5-swap",  # a <-> b
        ),
        pytest.param(
            lyndon_bases(5), image(E5, True, False, True), (100719, 1251691), (30, 476),
            "40215f05686e27c4cee712d158faa863ab2484f623d4e1c6e007c08bc29f7602", None,
            id="lyndon5-swap-invert-b",  # a -> b, b -> A
        ),
        pytest.param(
            lyndon_bases(5), image(E5, True, True, False), (100719, 1188531), (30, 468),
            "9bac6d07644795103db0e3b06d2646ba5b575a3547df8271c51e30eab974405b", None,
            id="lyndon5-swap-invert-a",  # a -> B, b -> a
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
