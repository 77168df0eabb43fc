"""Command-line entry point.

Every subcommand is a thin shell over the library.  Results go to stdout;
diagnostics (timings, search counters) go to stderr so outputs stay
pipeable.  Exit codes: 0 success/valid/found, 1 invalid/not-found, a domain
error, an interrupt (Ctrl-C) or a closed stdout, 2 usage error.  Every
word-reading subcommand takes --rank, the number of generators (default 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Iterable

from .bracelets import enumerate_lyndon, enumerate_reduced_bracelets
from .cosets import MAX_COSETS, Presentation, group_order
from .engel import MAX_ENGEL, engel_word
from .proofwords import (
    MAX_EXPONENT,
    fold,
    parse_proof,
    proof_str,
    round2,
    stats,
    symmetrize,
    verify,
)
from .search import SearchConfig, search
from .words import AB, MAX_RANK, Alphabet, Word, cyclic_reduce, free_reduce, parse_word, word_str


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _read_words_file(path: str, alphabet: Alphabet, kind: str) -> list[Word]:
    """One word per line; blank lines and '#' lines are skipped.  A file with
    no words raises: no bases is no search, and no relators the free group."""
    text = _read(path)
    # a bad character is reported by its line and column in the file
    parse_word(text, alphabet)
    words = [w for line in text.split("\n") if (w := parse_word(line, alphabet))]
    if not words:
        raise ValueError(f"{path} holds no {kind}")
    return words


def _target_word(args) -> Word:
    if args.engel is not None:
        if args.alphabet.rank < 2:
            raise ValueError("--engel needs --rank 2 or more: the Engel words use a and b")
        return engel_word(args.engel)
    return free_reduce(parse_word(_read(args.target), args.alphabet))


def _base_classes(alphabet: Alphabet, lengths: Iterable[int], lyndon: bool) -> list[Word]:
    enum = enumerate_lyndon if lyndon else enumerate_reduced_bracelets
    return [c.canonical for n in lengths for c in enum(alphabet, n)]


def _cmd_engel(args) -> int:
    word = engel_word(args.n)
    if args.cyclic:
        word, _ = cyclic_reduce(word)
    print(word_str(word))
    return 0


def _cmd_bracelets(args) -> int:
    lengths = range(1, args.len + 1) if args.upto else [args.len]
    classes = _base_classes(args.alphabet, lengths, args.lyndon)
    if args.count:
        print(len(classes))
    else:
        sys.stdout.write("".join(word_str(w) + "\n" for w in classes))
    return 0


def _relator_set(args):
    if args.bases is not None:
        bases = _read_words_file(args.bases, args.alphabet, "bases")
    elif args.max_base_len is not None:
        bases = _base_classes(args.alphabet, range(1, args.max_base_len + 1), lyndon=False)
    elif args.lyndon_upto is not None:
        bases = _base_classes(args.alphabet, range(1, args.lyndon_upto + 1), lyndon=True)
    else:
        return None
    return symmetrize(bases, args.exponent)


def _cmd_verify(args) -> int:
    proof = parse_proof(_read(args.proof), args.alphabet)
    target = _target_word(args)
    report = verify(proof, target, relators=_relator_set(args), exponent=args.exponent)
    print(f"flattens to target: {report.flattens_to_target}")
    print(f"every segment is a relator: {report.every_segment_is_relator}")
    print(f"excision trivial: {report.excision_trivial}")
    if report.bad_relators:
        print(f"bad relator segments (0-based): {list(report.bad_relators)}")
    print("VALID" if report.valid else "INVALID")
    return 0 if report.valid else 1


def _cmd_stats(args) -> int:
    st = stats(parse_proof(_read(args.proof), args.alphabet), args.exponent)
    print(f"overall length {st.overall_length}")
    print(f"count of relators {st.relator_count}")
    print(f"sum of relator lengths {st.relator_length_sum}")
    print(f"mean base word length {round2(st.mean_base_length)}")
    print(f"conjugating pairs {st.conjugating_pairs}")
    print(f"pairs per relator {round2(st.pairs_per_relator)}")
    print(f"distinct relators {st.distinct_relators}")
    return 0


def _cmd_fold(args) -> int:
    print(proof_str(fold(parse_proof(_read(args.proof), args.alphabet))))
    return 0


def _cmd_search(args) -> int:
    relators = _relator_set(args)
    target = _target_word(args)
    config = SearchConfig(
        beam_width=args.beam,
        max_moves=args.max_moves,
        restarts=args.restarts,
        seed=args.seed,
        base_subset_size=args.base_subset,
    )
    result = search(target, relators, config)
    print(
        f"states visited {result.states_visited}, moves tried {result.moves_tried}, "
        f"restarts used {result.restarts_used}, elapsed {result.elapsed:.2f}s",
        file=sys.stderr,
    )
    if not result.found:
        print("NOT FOUND")
        return 1
    print(proof_str(result.proof))
    return 0


def _cmd_order(args) -> int:
    relators = []
    for w in _read_words_file(args.relators, args.alphabet, "relators"):
        r = free_reduce(w)
        if not r:
            raise ValueError(f"relator {word_str(w)!r} freely reduces to the empty word")
        relators.append(r)
    pres = Presentation(args.alphabet, tuple(relators))
    order, table = group_order(pres, args.max_cosets)
    # the counts of the table the order was read from
    summary = f"cosets defined {table.cosets_defined}, live peak {table.live_peak}, coincidences {table.coincidences}"
    if table.subgroup:
        generators = ", ".join(map(word_str, table.subgroup))
        summary += f", subgroup <{generators}> of order {order // table.order}, index {table.order}"
    print(summary, file=sys.stderr)
    if order is None:
        print("OVERFLOW")
        return 1
    print(order)
    return 0


def _int_in(low: int, high: int | None = None):
    """An argparse type for integers from low up to high, if given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_positive_int = _int_in(1)
_engel_index = _int_in(1, MAX_ENGEL)
_exponent = _int_in(1, MAX_EXPONENT)
_rank = _int_in(1, MAX_RANK)


def _alphabet(text: str) -> Alphabet:
    """An argparse type: the alphabet of the given rank."""
    return Alphabet(_rank(text))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared by
    every call, so callers must not change it.  Each option that several
    subcommands share is declared once, in a parent parser.  The ``_cmd_*``
    functions look up the library names they call when they run."""
    parser = argparse.ArgumentParser(prog="powerproof")
    sub = parser.add_subparsers(dest="command", required=True)

    rank, target, bases, proof = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    rank.add_argument(
        "--rank", dest="alphabet", metavar="RANK", type=_alphabet, default=AB, help="number of generators"
    )
    target_group = target.add_mutually_exclusive_group(required=True)
    target_group.add_argument("--target", help="file holding the target word")
    target_group.add_argument("--engel", type=_engel_index, help="use the n-th Engel word as target")
    bases_group = bases.add_mutually_exclusive_group()
    bases_group.add_argument("--bases", help="file of base words, one per line")
    bases_group.add_argument(
        "--max-base-len", type=_positive_int, help="all reduced bracelets up to this length"
    )
    bases_group.add_argument("--lyndon-upto", type=_positive_int, help="all Lyndon words up to this length")
    proof.add_argument("--proof", required=True)

    p = sub.add_parser("engel", help="print the n-th Engel word on (a, b)")
    p.add_argument("--n", type=_engel_index, required=True)
    p.add_argument("--cyclic", action="store_true", help="print the cyclically reduced core")
    p.set_defaults(func=_cmd_engel)

    p = sub.add_parser("bracelets", parents=[rank], help="enumerate reduced bracelets or Lyndon words")
    p.add_argument("--len", type=_positive_int, required=True)
    p.add_argument("--lyndon", action="store_true")
    p.add_argument("--count", action="store_true")
    p.add_argument("--upto", action="store_true", help="all lengths from 1 to --len")
    p.set_defaults(func=_cmd_bracelets)

    p = sub.add_parser(
        "verify", parents=[proof, rank, target, bases], help="check a proof word against a target"
    )
    p.add_argument("--exponent", type=_exponent, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", parents=[proof, rank], help="proof word statistics")
    p.add_argument("--exponent", type=_exponent, default=4)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("fold", parents=[proof, rank], help="fold bordering inverse pairs into relators")
    p.set_defaults(func=_cmd_fold)

    bases_group.required = True  # for search; verify's copy of the group, made above, stays optional
    p = sub.add_parser("search", parents=[target, rank, bases], help="search for a proof word for a target")
    p.add_argument("--exponent", type=_exponent, required=True)
    defaults = SearchConfig()
    p.add_argument("--beam", type=_positive_int, default=defaults.beam_width)
    p.add_argument("--max-moves", type=_positive_int, default=defaults.max_moves)
    p.add_argument("--restarts", type=_int_in(0), default=defaults.restarts)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--base-subset", type=_positive_int, default=defaults.base_subset_size)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("order", parents=[rank], help="group order by coset enumeration")
    p.add_argument("--relators", required=True, help="file of relators, one per line")
    p.add_argument("--max-cosets", type=_positive_int, default=MAX_COSETS)
    p.set_defaults(func=_cmd_order)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: say nothing, and let the flush at exit write to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1
