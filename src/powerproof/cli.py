"""Command-line entry point.

Every subcommand is a thin shell over the library.  Results go to stdout;
diagnostics (timings, search counters) go to stderr so outputs stay
pipeable.  Exit codes: 0 success/valid/found, 1 invalid/not-found, 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys

from .bracelets import enumerate_lyndon, enumerate_reduced_bracelets
from .cosets import Presentation, enumerate_cosets
from .engel import engel_target, engel_word
from .proofwords import (
    ProofWord,
    fold,
    parse_proof,
    proof_str,
    round2,
    stats,
    symmetrize,
    verify,
)
from .search import SearchConfig, reconstruct, search
from .words import AB, Alphabet, Word, cyclic_reduce, free_reduce, parse_word, word_str


def _read_word_file(path: str, alphabet: Alphabet = AB) -> Word:
    """One word, possibly wrapped over several lines; '#' lines are comments."""
    with open(path) as f:
        text = "".join(line for line in f if not line.lstrip().startswith("#"))
    return parse_word(text, alphabet)


def _read_proof(path: str) -> ProofWord:
    """Proof-word text from a file, parsed."""
    with open(path) as f:
        return parse_proof(f.read())


def _read_words_file(path: str, alphabet: Alphabet = AB) -> list[Word]:
    """One word per line; blank lines and '#' lines are skipped."""
    words = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                words.append(parse_word(line, alphabet))
    return words


def _target_word(args) -> Word:
    if args.engel is not None:
        return engel_word(args.engel)
    return free_reduce(_read_word_file(args.target))


def _base_classes(upto: int, lyndon: bool) -> list[Word]:
    enum = enumerate_lyndon if lyndon else enumerate_reduced_bracelets
    return [c.canonical for n in range(1, upto + 1) for c in enum(AB, n)]


def _cmd_engel(args) -> int:
    word = engel_word(args.n)
    if args.cyclic:
        word = engel_target(args.n).core
    print(word_str(word))
    return 0


def _cmd_bracelets(args) -> int:
    alphabet = Alphabet(args.rank)
    enum = enumerate_lyndon if args.lyndon else enumerate_reduced_bracelets
    lengths = range(1, args.len + 1) if args.upto else [args.len]
    classes = [c for n in lengths for c in enum(alphabet, n)]
    if args.count:
        print(len(classes))
    else:
        for c in classes:
            print(word_str(c.canonical))
    return 0


def _relator_set(args):
    if args.bases:
        return symmetrize(_read_words_file(args.bases), args.exponent)
    if args.max_base_len:
        return symmetrize(_base_classes(args.max_base_len, lyndon=False), args.exponent)
    if getattr(args, "lyndon_upto", None):
        return symmetrize(_base_classes(args.lyndon_upto, lyndon=True), args.exponent)
    return None


def _cmd_verify(args) -> int:
    proof = _read_proof(args.proof)
    target = _target_word(args)
    relators = _relator_set(args)
    if relators is not None:
        report = verify(proof, target, relators=relators)
    else:
        report = verify(proof, target, exponent=args.exponent)
    print(f"flattens to target: {report.flattens_to_target}")
    print(f"every segment is a relator: {report.every_segment_is_relator}")
    print(f"excision trivial: {report.excision_trivial}")
    if report.bad_relators:
        print(f"bad relator segments (0-based): {list(report.bad_relators)}")
    print("VALID" if report.valid else "INVALID")
    return 0 if report.valid else 1


def _cmd_stats(args) -> int:
    st = stats(_read_proof(args.proof), args.exponent)
    print(f"overall length {st.overall_length}")
    print(f"count of relators {st.relator_count}")
    print(f"sum of relator lengths {st.relator_length_sum}")
    print(f"mean base word length {round2(st.mean_base_length)}")
    pairs = st.conjugating_pairs
    print(f"conjugating pairs {pairs if pairs.denominator > 1 else pairs.numerator}")
    print(f"pairs per relator {round2(st.pairs_per_relator)}")
    print(f"distinct relators {st.distinct_relators}")
    return 0


def _cmd_fold(args) -> int:
    print(proof_str(fold(_read_proof(args.proof))))
    return 0


def _cmd_search(args) -> int:
    relators = _relator_set(args)
    if relators is None:
        print("search needs --bases or --lyndon-upto", file=sys.stderr)
        return 2
    target = _target_word(args)
    core, outer = cyclic_reduce(target)
    config = SearchConfig(
        beam_width=args.beam,
        max_moves=args.max_moves,
        restarts=args.restarts,
        seed=args.seed,
        base_subset_size=args.base_subset,
    )
    result = search(core, relators, config)
    print(
        f"states visited {result.states_visited}, moves tried {result.moves_tried}, "
        f"restarts used {result.restarts_used}, elapsed {result.elapsed:.2f}s",
        file=sys.stderr,
    )
    if not result.found:
        print("NOT FOUND")
        return 1
    proof = reconstruct(result.log, core, outer)
    if not verify(proof, target, relators=relators).valid:
        print("error: the reconstructed proof does not verify", file=sys.stderr)
        return 1
    print(proof_str(proof))
    return 0


def _cmd_order(args) -> int:
    alphabet = Alphabet(args.rank)
    relators = [free_reduce(w) for w in _read_words_file(args.relators, alphabet)]
    table = enumerate_cosets(Presentation(alphabet, tuple(relators)), args.max_cosets)
    print(f"cosets defined {table.cosets_defined}", file=sys.stderr)
    if table.overflowed:
        print("OVERFLOW")
        return 1
    print(table.order)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="powerproof")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("engel", help="print the n-th Engel word on (a, b)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cyclic", action="store_true", help="print the cyclically reduced core")
    p.set_defaults(func=_cmd_engel)

    p = sub.add_parser("bracelets", help="enumerate reduced bracelets or Lyndon words")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--lyndon", action="store_true")
    p.add_argument("--count", action="store_true")
    p.add_argument("--upto", action="store_true", help="all lengths from 1 to --len")
    p.set_defaults(func=_cmd_bracelets)

    def add_target(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--target", help="file holding the target word")
        g.add_argument("--engel", type=int, help="use the n-th Engel word as target")

    def add_bases(p, with_lyndon: bool):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--bases", help="file of base words, one per line")
        g.add_argument("--max-base-len", type=int, help="all reduced bracelets up to this length")
        if with_lyndon:
            g.add_argument("--lyndon-upto", type=int, help="all Lyndon words up to this length")

    p = sub.add_parser("verify", help="check a proof word against a target")
    p.add_argument("--proof", required=True)
    add_target(p)
    p.add_argument("--exponent", type=int, required=True)
    add_bases(p, with_lyndon=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="proof word statistics")
    p.add_argument("--proof", required=True)
    p.add_argument("--exponent", type=int, default=4)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("fold", help="fold bordering inverse pairs into relators")
    p.add_argument("--proof", required=True)
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("search", help="search for a proof word for a target")
    add_target(p)
    p.add_argument("--exponent", type=int, required=True)
    add_bases(p, with_lyndon=True)
    p.add_argument("--beam", type=int, default=1000)
    p.add_argument("--max-moves", type=int, default=256)
    p.add_argument("--restarts", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-subset", type=int, default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("order", help="group order by coset enumeration")
    p.add_argument("--relators", required=True, help="file of relators, one per line")
    p.add_argument("--rank", type=int, default=2, help="number of generators")
    p.add_argument("--max-cosets", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_order)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
