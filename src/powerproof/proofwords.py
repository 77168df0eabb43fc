"""Proof words: products of conjugated power relators.

A proof word certifies that a target is trivial in the group presented by a
set of power relators.  In text form the relators are written out in full and
delimited by parentheses, with the conjugating strings outside the
parentheses freely reduced, e.g. ``a(babababa)A``.  The parentheses are not
part of the proof; flattening drops them, concatenates everything and freely
reduces.  A proof word is valid for a target when it flattens to the target,
every parenthesised segment is a relator, and excising the relators leaves a
word that freely reduces to the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

from .bracelets import bracelet_canon
from .words import (
    AB,
    KEY_INVERSE,
    Alphabet,
    ParseError,
    Word,
    free_reduce,
    invert,
    is_cyclically_reduced,
    is_freely_reduced,
    order_key,
    power,
    rotations,
    scan,
    word_str,
)


# The largest exponent a relator set takes.  A member of length m has m + 1
# append index levels, keyed by its inverse prefixes of every length, so the
# index holds about m^2 / 2 key bytes per member: it grows with the
# square of the exponent.
MAX_EXPONENT = 64

# The longest bases the CLI generates for a relator set (--max-base-len,
# --lyndon-upto) at rank 2: at MAX_EXPONENT the reduced bracelets up to
# length 7 build their append index in about 2.5 s at 545 MB RSS, and up to
# length 8 in 10 s at 2 GB.  The CLI scales the cap to each rank as it does
# bracelets.MAX_BRACELET_LEN.
MAX_BASE_LEN = 7


@dataclass(frozen=True)
class RelatorSet:
    """Symmetrized set of e-th powers: closed under rotation and inversion.

    Only the exponent and the bases are stored.  Construction checks them
    and stores the bases as the deduplicated canonical bracelet
    representatives, shortest first and in bracelet order within a length,
    so equal sets compare equal however their bases were written.  The
    members and the append index are derived on first use, so equality,
    hashing and construction never touch them.
    """

    exponent: int
    bases: tuple[Word, ...]

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError(f"exponent must be positive, got {self.exponent}")
        if self.exponent > MAX_EXPONENT:
            raise ValueError(f"exponents are taken up to MAX_EXPONENT = {MAX_EXPONENT}, got {self.exponent}")
        canon = {bracelet_canon(base) for base in self.bases}
        object.__setattr__(self, "bases", tuple(sorted(canon, key=lambda w: (len(w), order_key(w)))))

    @cached_property
    def members(self) -> frozenset[Word]:
        """Every rotation of b^e and of (b^-1)^e for each base b."""
        e = self.exponent
        return frozenset(power(v, e) for b in self.bases for v in rotations(b) | rotations(invert(b)))

    def __contains__(self, w: Word) -> bool:
        return w in self.members

    @cached_property
    def append_index(self) -> tuple[list[dict], ...]:
        """One levels list per member length m, ascending, so that
        m = len(levels) - 1.  levels[k] for k from 0 to m maps the key of the
        inverse of a k-letter prefix to the entries of the members that
        start with that prefix, in key order; levels[0][b""] lists them all.

        Each member has one entry, (member, key, inverse prefixes), shared by
        its m + 1 levels; inverse_prefixes[j] is the key of the inverse of
        the member's first j letters, so a state cancels at least j letters
        of the member exactly when its key ends with those bytes.  Keys are
        order keys (bytes), as are the search's states.
        """
        by_length: dict[int, list[dict[bytes, list[tuple]]]] = {}
        for key, r in sorted((order_key(r), r) for r in self.members):
            m = len(r)
            # the inverse of r[:k] is the last k letters of the inverse of r
            inverse = key[::-1].translate(KEY_INVERSE)
            prefixes = tuple(inverse[m - k :] for k in range(m + 1))
            entry = (r, key, prefixes)
            levels = by_length.setdefault(m, [{} for _ in range(m + 1)])
            for k, level in enumerate(levels):
                level.setdefault(prefixes[k], []).append(entry)
        return tuple(levels for _, levels in sorted(by_length.items()))


def symmetrize(bases: Iterable[Word], exponent: int) -> RelatorSet:
    """The relator set generated by e-th powers of the given bases: all
    rotations of w^e and of (w^-1)^e for each base w."""
    return RelatorSet(exponent, tuple(bases))


@dataclass(frozen=True)
class ProofWord:
    """Alternating conjugator/relator segments.

    ``conjugators`` has one entry more than ``relators``: the word before the
    first relator, the words between consecutive relators, and the word after
    the last relator.  Conjugator segments may be empty but must be freely
    reduced; relator segments must be non-empty.
    """

    conjugators: tuple[Word, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(self.conjugators) != len(self.relators) + 1:
            raise ValueError(
                f"expected {len(self.relators) + 1} conjugator segments, got {len(self.conjugators)}"
            )
        for c in self.conjugators:
            if not is_freely_reduced(c):
                raise ValueError(f"conjugator segment {word_str(c)!r} is not freely reduced")
        for r in self.relators:
            if not r:
                raise ValueError("relator segments must be non-empty")

    def segments(self) -> Iterator[Word]:
        """All segments in written order, conjugators and relators interleaved."""
        for c, r in zip(self.conjugators, self.relators):
            yield c
            yield r
        yield self.conjugators[-1]


def proof_str(p: ProofWord) -> str:
    """Text form: relators parenthesised, everything else bare letters."""
    return "".join(f"({word_str(s)})" if i % 2 else word_str(s) for i, s in enumerate(p.segments()))


def parse_proof(text: str, alphabet: Alphabet = AB) -> ProofWord:
    """Parse proof-word text.

    Whitespace and '#' comment lines are skipped as ``scan`` does.
    Parentheses must balance and must not nest; conjugator segments must be
    freely reduced as written; relator segments must be non-empty.
    """
    # conjugator, relator, ..., conjugator, as ProofWord.segments yields them
    segments: list[Word] = []
    current: list[int] = []
    open_pos: int | None = None  # of the open '(', None outside a relator
    for i, item in scan(text, alphabet, "()"):
        if item == "(":
            if open_pos is not None:
                raise ParseError("nested '(' in proof word", text, i)
            segments.append(tuple(current))
            current = []
            open_pos = i
        elif item == ")":
            if open_pos is None:
                raise ParseError("unmatched ')' in proof word", text, i)
            if not current:
                raise ParseError("empty relator segment", text, open_pos)
            segments.append(tuple(current))
            current = []
            open_pos = None
        else:
            if open_pos is None and current and current[-1] == -item:
                raise ParseError("conjugating segment is not freely reduced", text, i)
            current.append(item)
    if open_pos is not None:
        raise ParseError("unclosed '(' in proof word", text, open_pos)
    segments.append(tuple(current))
    return ProofWord(tuple(segments[0::2]), tuple(segments[1::2]))


def flatten(p: ProofWord) -> Word:
    """Concatenate all segments in order and freely reduce."""
    return free_reduce(chain.from_iterable(p.segments()))


def excision_word(p: ProofWord) -> Word:
    """Freely reduced concatenation of the conjugator segments alone."""
    return free_reduce(chain.from_iterable(p.conjugators))


def _power_base(r: Word, exponent: int) -> Word | None:
    """The cyclically reduced w with w^e = r, or None when there is none."""
    if exponent < 1 or len(r) % exponent:
        return None
    base = r[: len(r) // exponent]
    return base if power(base, exponent) == r and is_cyclically_reduced(base) else None


def power_base(r: Word, exponent: int) -> Word:
    """The cyclically reduced w with w^e = r; raise ValueError when r is not
    such a power."""
    base = _power_base(r, exponent)
    if base is None:
        raise ValueError(
            f"relator {word_str(r)!r} is not a power with exponent {exponent} of a cyclically reduced word"
        )
    return base


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the three proof-word checks plus per-segment diagnostics."""

    flattens_to_target: bool
    excision_trivial: bool
    bad_relators: tuple[int, ...]

    @property
    def every_segment_is_relator(self) -> bool:
        return not self.bad_relators

    @property
    def valid(self) -> bool:
        return self.flattens_to_target and self.every_segment_is_relator and self.excision_trivial


def verify(
    p: ProofWord,
    target: Word,
    relators: RelatorSet | None = None,
    exponent: int | None = None,
) -> VerifyReport:
    """Check a proof word against a target.

    Relator segments are checked for membership in ``relators`` when given;
    otherwise ``exponent`` alone is required and each segment need only be an
    e-th power of a cyclically reduced word.  Failures are reported, not
    raised.
    """
    if relators is not None:
        bad = tuple(i for i, r in enumerate(p.relators) if r not in relators)
    elif exponent is not None:
        bad = tuple(i for i, r in enumerate(p.relators) if _power_base(r, exponent) is None)
    else:
        raise ValueError("verify needs a RelatorSet or an exponent")
    return VerifyReport(
        flattens_to_target=flatten(p) == free_reduce(target),
        excision_trivial=excision_word(p) == (),
        bad_relators=bad,
    )


def fold(p: ProofWord) -> ProofWord:
    """Absorb bordering inverse pairs into relators by rotation.

    Whenever the conjugator before a relator ends with x, the conjugator
    after it begins with x^-1, and the relator either ends with x or begins
    with x^-1, the pair is folded into the relator: the relator is rotated to
    absorb the two letters, shortening the text by two symbols.  Each
    relator folds until no pair applies; flattening is unchanged.

    One pass, left to right, is enough: folding a relator removes letters
    only from the end of the conjugator before it and from the start of the
    one after it.  The next relator is folded after that, and the start of
    the conjugator after a relator changes later only by its emptying,
    which leaves that relator nothing to fold.
    """
    conjs = [list(c) for c in p.conjugators]
    rels = list(p.relators)
    for i, r in enumerate(rels):
        left, right = conjs[i], conjs[i + 1]
        while left and right and left[-1] == -right[0]:
            x = left[-1]
            if r[-1] == x:
                r = (x,) + r[:-1]
            elif r[0] == -x:
                r = r[1:] + (-x,)
            else:
                break
            left.pop()
            del right[0]
        rels[i] = r
    return ProofWord(tuple(tuple(c) for c in conjs), tuple(rels))


@dataclass(frozen=True)
class ProofStats:
    """Size statistics of a proof word with e-th power relators.

    ``overall_length`` counts every symbol of the text form, parentheses
    included: it derives as
    relator_length_sum + 2 * relator_count + 2 * conjugating_pairs.
    """

    relator_count: int
    relator_length_sum: int
    conjugating_pairs: Fraction
    distinct_relators: int
    exponent: int

    @property
    def overall_length(self) -> int:
        return self.relator_length_sum + 2 * self.relator_count + int(2 * self.conjugating_pairs)

    @property
    def mean_base_length(self) -> Fraction:
        return Fraction(self.relator_length_sum, self.exponent * self.relator_count)

    @property
    def pairs_per_relator(self) -> Fraction:
        return self.conjugating_pairs / self.relator_count


def stats(p: ProofWord, exponent: int = 4) -> ProofStats:
    """Statistics of a proof word; every relator must be an e-th power, with e
    at most MAX_EXPONENT."""
    if not p.relators:
        raise ValueError("proof word has no relator segments")
    count = len(p.relators)
    rel_sum = sum(len(r) for r in p.relators)
    outside = sum(len(c) for c in p.conjugators)
    return ProofStats(
        relator_count=count,
        relator_length_sum=rel_sum,
        conjugating_pairs=Fraction(outside, 2),
        distinct_relators=len(distinct_presentation(p, exponent)),
        exponent=exponent,
    )


def distinct_presentation(p: ProofWord, exponent: int = 4) -> list[Word]:
    """The presentation implicit in a proof word: one e-th power per
    distinct base bracelet class, in canonical order."""
    bases = symmetrize([power_base(r, exponent) for r in p.relators], exponent).bases
    return [power(b, exponent) for b in bases]


def round2(x: Fraction) -> str:
    """Format a nonnegative rational to two decimals, rounding half up."""
    cents = (100 * x.numerator + x.denominator // 2) // x.denominator
    return f"{cents // 100}.{cents % 100:02d}"
