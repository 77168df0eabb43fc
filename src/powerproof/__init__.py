"""Toolkit for proving words trivial in finitely presented groups by writing
them as products of conjugated power relators.

``powerproof.search`` is the function; the module is
``importlib.import_module("powerproof.search")``.
"""

from .bracelets import (
    BraceletClass,
    bracelet_canon,
    enumerate_lyndon,
    enumerate_reduced_bracelets,
    is_proper_power,
)
from .cosets import CosetTable, Presentation, enumerate_cosets, group_order
from .engel import commutator, engel_word
from .fixtures import e5_proof, e5_proof_text
from .proofwords import (
    ProofStats,
    ProofWord,
    RelatorSet,
    VerifyReport,
    distinct_presentation,
    flatten,
    fold,
    parse_proof,
    proof_str,
    stats,
    symmetrize,
    verify,
)
from .search import (
    MoveLog,
    SearchConfig,
    SearchResult,
    apply_move,
    decompile,
    reconstruct,
    reduce_presentation,
    replay,
    search,
)
from .words import (
    AB,
    Alphabet,
    ParseError,
    Word,
    conjugate,
    cyclic_reduce,
    free_reduce,
    invert,
    parse_word,
    power,
    rotations,
    word_str,
)

__version__ = "0.1.0"
