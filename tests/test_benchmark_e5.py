"""Full-scale benchmark: rediscover a fourth-powers proof of the fifth Engel
word from scratch.  Deterministic (no restarts, fixed expansion order) but
takes several seconds; deselect with ``-m "not slow"``."""

import pytest

from powerproof.bracelets import enumerate_lyndon
from powerproof.engel import engel_target, engel_word
from powerproof.proofwords import power_base, stats, symmetrize, verify
from powerproof.search import SearchConfig, search, reconstruct
from powerproof.words import AB


@pytest.mark.slow
def test_rediscover_e5_proof_from_scratch():
    bases = [c.canonical for n in range(1, 6) for c in enumerate_lyndon(AB, n)]
    assert len(bases) == 41
    relators = symmetrize(bases, 4)
    target = engel_target()
    result = search(target.core, relators, SearchConfig(beam_width=1000, max_moves=400))
    assert result.found
    proof = reconstruct(result.log, target.core, target.outer_conjugator)
    assert verify(proof, engel_word(5), relators=relators).valid
    # determinism fingerprints: any change to the expansion order moves them
    assert (result.states_visited, result.moves_tried) == (98719, 803669)
    st = stats(proof, 4)
    assert (st.relator_count, st.overall_length) == (30, 472)
    for r in proof.relators:
        assert 1 <= len(power_base(r, 4)) <= 5
