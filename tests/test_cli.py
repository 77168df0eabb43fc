import hashlib
import importlib.resources
import os
import re
import subprocess
import sys

import pytest

from powerproof import cli, cosets
from powerproof.bracelets import MAX_BRACELET_LEN, bracelet_canon
from powerproof.cli import main
from powerproof.cosets import CosetTable, Presentation, enumerate_cosets
from powerproof.fixtures import e5_proof
from powerproof.proofwords import MAX_BASE_LEN, ProofWord, distinct_presentation
from powerproof.search import MAX_BEAM
from powerproof.words import AB, Alphabet, parse_word as P, word_str

from test_cosets import benchmark_relators, shuffled_benchmark_orders
from util import package_env

FIXTURE = str(importlib.resources.files("powerproof").joinpath("data/e5_proof_26_powers.txt"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_engel(capsys):
    code, out, _ = run(capsys, "engel", "--n", "2")
    assert code == 0 and out.strip() == "BAbaBABabb"
    code, out, _ = run(capsys, "engel", "--n", "5")
    assert code == 0 and len(out.strip()) == 72
    code, out, _ = run(capsys, "engel", "--n", "5", "--cyclic")
    assert code == 0 and len(out.strip()) == 64
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "90b8b8502959fa03970d6f842cdcb504d4e60f3c1900762b53509bc4997079c0"
    )


def test_bracelets_count(capsys):
    code, out, _ = run(capsys, "bracelets", "--rank", "2", "--len", "10", "--count")
    assert code == 0 and out.strip() == "2968"
    code, out, _ = run(capsys, "bracelets", "--len", "10", "--upto", "--count")
    assert code == 0 and out == "4759\n"
    code, out, _ = run(capsys, "bracelets", "--rank", "2", "--len", "4", "--lyndon", "--upto", "--count")
    assert code == 0 and out.strip() == "17"


def test_bracelets_listing(capsys):
    code, out, _ = run(capsys, "bracelets", "--rank", "2", "--len", "1")
    assert code == 0 and out.split() == ["a", "b"]
    # an empty listing prints nothing: a^3 is the one class of length 3 on
    # one generator, and a proper power
    code, out, err = run(capsys, "bracelets", "--rank", "1", "--len", "3", "--lyndon")
    assert (code, out, err) == (0, "", "")


def test_bracelets_listings_are_byte_stable(capsys):
    # sha256 of the listings, in the letter order, captured before the
    # canonical form moved to string keys
    for argv, lines, digest in [
        (
            ["--len", "10", "--upto"],
            4759,
            "9a8b20d749b6dd20727bc09f22cb9f0862291bebdefdf9c722c7231d71ffb56f",
        ),
        (
            ["--rank", "3", "--len", "5", "--upto", "--lyndon"],
            416,
            "2837ebb08c88ce07687b0df7be2ce52bdbdd7ae628e8d933192442391f878e6b",
        ),
    ]:
        code, out, _ = run(capsys, "bracelets", *argv)
        assert code == 0 and out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bracelets_of_length_1200(capsys):
    # the enumeration is iterative: its depth is not bounded by the
    # interpreter's recursion limit
    code, out, _ = run(capsys, "bracelets", "--rank", "1", "--len", "1200", "--count")
    assert code == 0 and out == "1\n"


def test_bracelets_rejects_a_length_that_is_not_an_int(capsys):
    code, out, err = run(capsys, "bracelets", "--len", "x")
    assert code == 2 and out == "" and "argument --len: invalid int value: 'x'" in err


def test_verify_fixture(capsys):
    code, out, _ = run(
        capsys, "verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "4",
        "--max-base-len", "5",
    )
    assert code == 0
    assert out.strip().endswith("VALID")
    # with no bases option, every segment need only be a fourth power
    code, out, _ = run(capsys, "verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "4")
    assert code == 0 and out.strip().endswith("VALID")


def test_verify_invalid_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.pf"
    bad.write_text("(bbbb)")
    code, out, _ = run(
        capsys, "verify", "--proof", str(bad), "--target", str(bad_target(tmp_path)),
        "--exponent", "4",
    )
    assert code == 1
    assert "INVALID" in out


def bad_target(tmp_path):
    t = tmp_path / "target.w"
    t.write_text("aaaa\n")
    return t


def test_verify_rejects_base_length_below_one(capsys):
    # a length that leaves out bases of the proof fails the membership check;
    # 0, which used to skip it, is a usage error (see the table below)
    code, out, _ = run(
        capsys, "verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "4",
        "--max-base-len", "2",
    )
    assert code == 1 and out.strip().endswith("INVALID")


def test_verify_takes_the_lyndon_bases(tmp_path, capsys):
    # (aa)^4 is a fourth power of a reduced bracelet of length 2, but aa is
    # a proper power, so no Lyndon set holds it
    proof = tmp_path / "p.pf"
    proof.write_text("(aaaaaaaa)\n")
    target = tmp_path / "t.w"
    target.write_text("aaaaaaaa\n")
    verify = ("verify", "--proof", str(proof), "--target", str(target), "--exponent", "4")
    code, out, _ = run(capsys, *verify, "--lyndon-upto", "2")
    assert code == 1 and out.strip().endswith("INVALID")
    assert "bad relator segments (0-based): [0]" in out.splitlines()
    code, out, _ = run(capsys, *verify, "--max-base-len", "2")
    assert code == 0 and out.strip().endswith("VALID")


def test_stats_fixture(capsys):
    code, out, _ = run(capsys, "stats", "--proof", FIXTURE)
    assert code == 0
    lines = out.strip().splitlines()
    assert "overall length 444" in lines
    assert "count of relators 26" in lines
    assert "sum of relator lengths 272" in lines
    assert "mean base word length 2.62" in lines
    assert "conjugating pairs 60" in lines
    assert "pairs per relator 2.31" in lines
    assert "distinct relators 13" in lines


def test_fold(tmp_path, capsys):
    pf = tmp_path / "p.pf"
    pf.write_text("a(babababa)A\n")
    code, out, _ = run(capsys, "fold", "--proof", str(pf))
    assert code == 0 and out.strip() == "(abababab)"


def test_search_verify_round_trip(tmp_path, capsys):
    # verify over the reduced bracelets up to length 3, which hold the
    # search's Lyndon bases, and over the same 17 Lyndon bases up to length 4
    for search_bases, verify_bases in [
        (("--lyndon-upto", "3", "--beam", "600"), ("--max-base-len", "3")),
        (("--lyndon-upto", "4"), ("--lyndon-upto", "4")),
    ]:
        code, out, err = run(capsys, "search", "--engel", "2", "--exponent", "3", *search_bases)
        assert code == 0
        assert "states visited" in err
        pf = tmp_path / "found.pf"
        pf.write_text(out)
        code, out2, _ = run(capsys, "verify", "--proof", str(pf), "--engel", "2", "--exponent", "3", *verify_bases)
        assert code == 0 and out2.strip().endswith("VALID")


def test_search_outputs_are_byte_stable(capsys):
    args = ["search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3", "--seed", "9"]
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert (code_a, out_a) == (code_b, out_b)
    assert code_a == 0 and out_a == "Ba(AAA)(ababab)(BABBABBAB)(bababa)Ab\n"


def test_search_refuses_a_proof_that_does_not_verify(monkeypatch, capsys):
    def corrupted(log):
        return ProofWord(((), ()), ((1, 1, 1),))

    # search verifies what it reconstructs, so the library raises before the
    # counters line; the package's attribute ``search`` is the function
    monkeypatch.setattr(sys.modules["powerproof.search"], "reconstruct", corrupted)
    code, out, err = run(
        capsys, "search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3", "--seed", "9"
    )
    assert (code, out, err) == (1, "", "error: the reconstructed proof does not verify\n")


def test_search_without_bases_names_every_bases_option(capsys):
    # argparse's message for its required group of three options
    code, out, err = run(capsys, "search", "--engel", "2", "--exponent", "3")
    assert code == 2 and out == ""
    assert "powerproof search: error: one of the arguments" in err
    for option in ("--bases", "--max-base-len", "--lyndon-upto"):
        assert option in err


SEARCH_E2 = ("search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("bracelets", "--rank", "0", "--len", "3"), "--rank"),
        (("bracelets", "--rank", "27", "--len", "3", "--count"), "--rank"),
        (("order", "--relators", "rels.w", "--rank", "27"), "--rank"),
        (("order", "--relators", "rels.w", "--max-cosets", "0"), "--max-cosets"),
        (("engel", "--n", "0"), "--n"),
        (("search", "--engel", "0", "--exponent", "3", "--lyndon-upto", "3"), "--engel"),
        (("search", "--engel", "2", "--exponent", "0", "--lyndon-upto", "3"), "--exponent"),
        ((*SEARCH_E2, "--beam", "0"), "--beam"),
        ((*SEARCH_E2, "--max-moves", "0"), "--max-moves"),
        (("stats", "--proof", FIXTURE, "--exponent", "0"), "--exponent"),
        # the Engel index is bounded (engel.MAX_ENGEL = 20): the reduced
        # E_n has 2^(n+1) + 2n - 2 letters
        (("engel", "--n", "21"), "--n"),
        (("engel", "--n", "40"), "--n"),
        (("search", "--engel", "21", "--exponent", "3", "--lyndon-upto", "3"), "--engel"),
        (("verify", "--proof", FIXTURE, "--engel", "40", "--exponent", "4"), "--engel"),
        # the exponent is bounded (proofwords.MAX_EXPONENT = 64): the append
        # index grows with its square
        (("search", "--engel", "1", "--exponent", "65", "--lyndon-upto", "1"), "--exponent"),
        (("search", "--engel", "1", "--exponent", "40000", "--lyndon-upto", "1"), "--exponent"),
        (("verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "65"), "--exponent"),
        (("stats", "--proof", FIXTURE, "--exponent", "65"), "--exponent"),
        (("bracelets", "--len", "0", "--upto"), "--len"),
        (("bracelets", "--len", "-3", "--upto", "--count"), "--len"),
        (("bracelets", "--len", "0"), "--len"),
        (("search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "0"), "--lyndon-upto"),
        ((*SEARCH_E2, "--restarts", "-1"), "--restarts"),
        ((*SEARCH_E2, "--base-subset", "0"), "--base-subset"),
        # it used to report the valid fixture INVALID, every segment a bad relator
        (("verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "0"), "--exponent"),
        # it used to skip the membership check and print VALID
        (("verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "4", "--max-base-len", "0"), "--max-base-len"),
        # the beam width is bounded (search.MAX_BEAM): the beam's memory grows
        # with it
        ((*SEARCH_E2, "--beam", "1000000000"), "--beam"),
        # the lengths of generated words are bounded (bracelets.MAX_BRACELET_LEN
        # = 14 and proofwords.MAX_BASE_LEN = 7 at rank 2, scaled to the rank):
        # the words to walk grow about as (2 rank - 1)^length
        (("bracelets", "--len", "15", "--count"), "--len"),
        (("bracelets", "--len", "30", "--count"), "--len"),
        (("bracelets", "--rank", "3", "--len", "10", "--upto"), "--len"),
        (("bracelets", "--len", "10", "--rank", "3"), "--len"),
        (("bracelets", "--rank", "1", "--len", "2188", "--upto", "--count"), "--len"),
        (("search", "--engel", "3", "--exponent", "4", "--max-base-len", "12", "--max-moves", "1"), "--max-base-len"),
        (("search", "--engel", "3", "--exponent", "4", "--lyndon-upto", "8", "--max-moves", "1"), "--lyndon-upto"),
        (("search", "--engel", "3", "--exponent", "4", "--lyndon-upto", "5", "--rank", "3"), "--lyndon-upto"),
        (("verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "4", "--max-base-len", "8"), "--max-base-len"),
    ],
)
def test_out_of_range_options_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}:" in err


def test_beam_wider_than_max_beam_is_a_usage_error(capsys):
    # MAX_BEAM itself parses; no search runs at that width
    assert cli.build_parser().parse_args([*SEARCH_E2, "--beam", str(MAX_BEAM)]).beam == MAX_BEAM == 20_000
    code, out, err = run(capsys, *SEARCH_E2, "--beam", str(MAX_BEAM + 1))
    assert (code, out) == (2, "")
    assert err.endswith("powerproof search: error: argument --beam: must be between 1 and 20000, got 20001\n")


def test_beam_times_max_moves_over_its_bound_is_a_usage_error(capsys):
    # --beam times --max-moves is bounded by MAX_BEAM times the default
    # --max-moves; once every option is read, the parser refuses a product
    # over it, read from the last value of each option, with a message that
    # names --max-moves, so no search runs.  E5's 1000 x 400, the bound
    # itself, and earlier values over it that a later one mends, parse.
    parser = cli.build_parser()
    for argv, beam, moves in (
        (["--beam", "1000", "--max-moves", "400"], 1000, 400),
        (["--beam", str(MAX_BEAM), "--max-moves", "256"], MAX_BEAM, 256),
        (["--beam", "1000", "--max-moves", "5120"], 1000, 5120),
        (["--beam", "20000", "--max-moves", "257", "--beam", "10"], 10, 257),
        (["--max-moves", "6000", "--max-moves", "1"], 1000, 1),
    ):
        args = parser.parse_args([*SEARCH_E2, *argv])
        assert (args.beam, args.max_moves) == (beam, moves)
    for argv, beam, moves in (
        (["--beam", "20000", "--max-moves", "257"], 20000, 257),
        (["--max-moves", "257", "--beam", "20000"], 20000, 257),
        (["--max-moves", "5121"], 1000, 5121),
        (["--beam", "10", "--max-moves", "257", "--beam", "20000"], 20000, 257),
    ):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*SEARCH_E2, *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"powerproof search: error: argument --max-moves: --beam {beam} times --max-moves {moves} "
            "must be at most 5120000\n"
        )


def test_generated_lengths_are_capped_at_each_rank(capsys):
    # a cap holds at rank 2; at another rank the longest length has no more
    # cyclically reduced words, (2 rank - 1)^n, nor letters, n^2, than rank 2
    # at the cap.  Each longest length parses, whether --rank comes before
    # or after it; one more is a usage error that names the rank.
    assert (MAX_BRACELET_LEN, MAX_BASE_LEN) == (14, 7)
    parser = cli.build_parser()
    for rank, longest, base in ((1, 2187, 46), (2, 14, 7), (3, 9, 4), (4, 7, 3), (26, 3, 1)):
        for option, n, argv in (
            ("--len", longest, ["bracelets"]),
            ("--max-base-len", base, ["search", "--engel", "2", "--exponent", "3"]),
            ("--lyndon-upto", base, ["verify", "--proof", "p.pf", "--engel", "2", "--exponent", "3"]),
        ):
            for order in ((option, str(n), "--rank", str(rank)), ("--rank", str(rank), option, str(n))):
                assert parser.parse_args([*argv, *order]).alphabet == Alphabet(rank)
            code, out, err = run(capsys, *argv, "--rank", str(rank), option, str(n + 1))
            assert (code, out) == (2, "")
            assert err.endswith(
                f"powerproof {argv[0]}: error: argument {option}: {option} {n + 1} at rank {rank} must be at most {n}\n"
            )
    # like the product bound, the caps read the last value of each option
    assert parser.parse_args(["bracelets", "--len", "15", "--len", "10"]).len == 10
    code, out, err = run(capsys, "bracelets", "--rank", "1", "--len", "2187", "--rank", "2")
    assert (code, out) == (2, "")
    assert err.endswith("powerproof bracelets: error: argument --len: --len 2187 at rank 2 must be at most 14\n")


def test_search_and_verify_at_rank_three(tmp_path, capsys):
    target = tmp_path / "t.w"
    target.write_text("cccc\n")
    code, out, _ = run(
        capsys, "search", "--rank", "3", "--target", str(target), "--exponent", "4",
        "--lyndon-upto", "1",
    )
    assert code == 0 and out == "(cccc)\n"
    pf = tmp_path / "found.pf"
    pf.write_text(out)
    verify = ("verify", "--proof", str(pf), "--target", str(target), "--exponent", "4")
    code, out, _ = run(capsys, *verify, "--rank", "3", "--max-base-len", "1")
    assert code == 0 and out.strip().endswith("VALID")
    code, out, _ = run(capsys, "stats", "--rank", "3", "--proof", str(pf))
    assert code == 0 and "distinct relators 1" in out.splitlines()
    code, out, _ = run(capsys, "fold", "--rank", "3", "--proof", str(pf))
    assert code == 0 and out == "(cccc)\n"
    # at the default rank the letter c is not in the alphabet
    code, out, err = run(capsys, *verify)
    assert code == 1 and out == "" and err.startswith("error: invalid character 'c'")
    code, out, err = run(capsys, "fold", "--proof", str(pf))
    assert code == 1 and out == "" and err.startswith("error: invalid character 'c'")


def test_engel_target_needs_rank_two(capsys):
    code, out, err = run(
        capsys, "search", "--rank", "1", "--engel", "2", "--exponent", "3", "--lyndon-upto", "2"
    )
    assert code == 1 and out == "" and "--rank 2" in err


def test_proof_commands_are_byte_stable_at_rank_two(capsys):
    # sha256 of the outputs on the bundled fixture, captured before the
    # proof-reading subcommands took --rank; the default rank is 2
    expected = {
        "verify": "e8ee1e92629a0dc729ae06a933a1afd7d4b3b4003b852d6f67a171046e7aaf85",
        "stats": "eb2dbf42df63f2f9c6b903167b912d5c669070955319e492f0ca94daac6b1445",
        "fold": "3ad3b87fca81d2bb29261f1cf7e796e75088576c6ec7b3715fea6097894d87cc",
    }
    argvs = [
        ["verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "4", "--max-base-len", "5"],
        ["stats", "--proof", FIXTURE, "--exponent", "4"],
        ["fold", "--proof", FIXTURE],
    ]
    for argv in argvs:
        for rank in ([], ["--rank", "2"]):
            code, out, _ = run(capsys, *argv, *rank)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == expected[argv[0]]


def test_interrupt_exits_1_without_traceback(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "search", interrupted)
    code, out, err = run(capsys, *SEARCH_E2)
    assert code == 1 and out == "" and err == "error: interrupted\n"


class _ClosedPipe:
    """A stdout whose reader has gone: ``failing`` ("write" or "flush")
    raises BrokenPipeError, as on a pipe written unbuffered or buffered."""

    def __init__(self, fd, failing):
        self.fd, self.failing = fd, failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_closed_stdout_exits_1_and_prints_nothing(tmp_path, capsys, monkeypatch, failing):
    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno(), failing))
        code = main(["stats", "--proof", FIXTURE, "--exponent", "4"])
        # the stream's descriptor now writes to devnull, so the flush at exit
        # cannot raise again
        redirected = os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))
    assert code == 1 and redirected
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_pipe_in_a_child_exits_1_with_an_empty_stderr(tmp_path, unbuffered):
    # a real pipe whose reader has closed before the child starts: unbuffered,
    # the first line's write fails; buffered, the flush does
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "powerproof", "stats", "--proof", FIXTURE, "--exponent", "4"],
            stdout=writer, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path, timeout=60,
        )
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_search_not_found(tmp_path, capsys):
    target = tmp_path / "t.w"
    target.write_text("aaaa\n")
    bases = tmp_path / "bases.w"
    bases.write_text("b\n")
    code, out, _ = run(
        capsys, "search", "--target", str(target), "--exponent", "4",
        "--bases", str(bases), "--max-moves", "6", "--beam", "16",
    )
    assert code == 1 and out.strip() == "NOT FOUND"


def test_order(tmp_path, capsys):
    rels = tmp_path / "rels.w"
    rels.write_text("aa\nbb\nababab\n")
    code, out, err = run(capsys, "order", "--relators", str(rels))
    assert code == 0 and out.strip() == "6"
    # the line starts with "cosets defined N", which the benchmark parses; the
    # counts are those of the table over <a>, whose order 2 is certified
    assert err == "cosets defined 4, live peak 4, coincidences 1, subgroup <a> of order 2, index 3\n"


def test_order_refuses_a_table_that_fails_its_check(tmp_path, capsys, monkeypatch):
    # the enumerator hands group_order the Klein group's tables for S3:
    # ababab moves their cosets, so group_order raises before the summary line
    klein = Presentation(AB, (P("aa"), P("bb"), P("abab")))
    monkeypatch.setattr(cosets, "enumerate_cosets", lambda pres, *limits: enumerate_cosets(klein, *limits))
    rels = tmp_path / "rels.w"
    rels.write_text("aa\nbb\nababab\n")
    code, out, err = run(capsys, "order", "--relators", str(rels))
    assert (code, out, err) == (
        1, "", "error: the coset table fails its check: a relator or subgroup generator moves a coset\n"
    )


def test_order_builds_no_row_table(tmp_path, capsys, monkeypatch):
    transposes = []
    transpose = CosetTable.rows.func

    def spy(table):
        transposes.append(table.order)
        return transpose(table)

    monkeypatch.setattr(CosetTable, "rows", property(spy))
    rels = tmp_path / "rels.w"
    rels.write_text("aaaaaa\nAAA\naaa\nbb\nabAB\nBAba\n")
    code, out, err = run(capsys, "order", "--relators", str(rels))
    assert (code, out, err) == (0, "6\n", "cosets defined 6, live peak 6, coincidences 0\n")
    # nor does any other reader of the stored columns
    klein = Presentation(AB, (P("aa"), P("bb"), P("abAB")))
    table = enumerate_cosets(klein)
    assert table.trace(0, P("ab")) == 3 and table.permutation(P("ab"))[0] == 3
    assert table.fixes(P("abab")) and table.certifies(klein)
    assert transposes == []
    # the spy sees the transpose only when the rows are read
    assert enumerate_cosets(Presentation(AB, (P("aa"),)), 10).rows == []
    assert table.rows[0][0] == table.trace(0, P("a"))
    assert transposes == [None, 4]


def test_order_works_out_each_relator_class_once(tmp_path, capsys, monkeypatch):
    # the presentation's scan list keys every relator once, and the letter
    # power and the subgroup run read it; the certificate keys no class, its
    # roots being primitive_root's as they come
    keyed = []

    def spy(w):
        keyed.append(w)
        return bracelet_canon(w)

    monkeypatch.setattr(cosets, "bracelet_canon", spy)
    rels = tmp_path / "rels.w"
    relators = distinct_presentation(e5_proof(), 4)
    rels.write_text("".join(f"{word_str(r)}\n" for r in relators))
    code, out, _ = run(capsys, "order", "--relators", str(rels))
    assert (code, out) == (0, "8192\n")
    assert len(relators) == len(keyed) == 13


def test_order_names_a_relator_that_reduces_to_nothing(tmp_path, capsys):
    rels = tmp_path / "rels.w"
    rels.write_text("aa\naA\n")
    code, out, err = run(capsys, "order", "--relators", str(rels))
    assert code == 1 and out == ""
    assert err == "error: relator 'aA' freely reduces to the empty word\n"


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_order_without_relators_fails_at_once(tmp_path, capsys, text):
    # the free group: enumerating it would only run to the coset limit
    rels = tmp_path / "rels.w"
    rels.write_text(text)
    code, out, err = run(capsys, "order", "--relators", str(rels))
    assert code == 1 and out == ""
    assert err == f"error: {rels} holds no relators\n"


def test_order_overflow(tmp_path, capsys):
    rels = tmp_path / "rels.w"
    rels.write_text("aa\n")
    code, out, err = run(capsys, "order", "--relators", str(rels), "--max-cosets", "100")
    assert code == 1 and out.strip() == "OVERFLOW"
    assert err.strip() == "cosets defined 100, live peak 100, coincidences 0"


ORDER_INPUTS = [
    # the small presentations of test_order_prints_the_pinned_lines, each at
    # every limit: complete, with coincidences, with implied relators, and
    # A4 at limits where its subgroup run overflows
    *[(text, limit) for text in ("aaa bbbb abab abAB", "aaaaaa AAA aaa bb abAB BAba", "aaa bbb abab")
      for limit in (None, 5, 3)],
    ("aa bbb ababab abAB", None),  # the A4 quotient, of order 3
    ("a b", None),  # one coset
    ("aa bb ababab", None),  # S3
]


@pytest.mark.parametrize(
    "relators, limit, expected",
    [
        ("aaa bbbb abab abAB", None, (0, "2\n", "cosets defined 10, live peak 10, coincidences 8\n")),
        # relators implied by others (a power listed before its root, an
        # inverse duplicate, a rotated inverse) are left out of the scan
        ("aaaaaa AAA aaa bb abAB BAba", None, (0, "6\n", "cosets defined 6, live peak 6, coincidences 0\n")),
        # A4 over <a>: 4 cosets, so 5 suffice; with 3, the subgroup run and
        # the trivial-subgroup fallback both overflow
        ("aaa bbb abab", 5, (0, "12\n", "cosets defined 4, live peak 4, coincidences 0, subgroup <a> of order 3, index 4\n")),
        ("aaa bbb abab", 3, (1, "OVERFLOW\n", "cosets defined 3, live peak 3, coincidences 0\n")),
        # one coset: the certificate composes permutations of a single coset
        ("a b", None, (0, "1\n", "cosets defined 1, live peak 1, coincidences 0, subgroup <a> of order 1, index 1\n")),
        # the fourth powers of the 25 bracelets up to length 4
        (4096, None, (0, "4096\n", "cosets defined 2994, live peak 1857, coincidences 1970, subgroup <a> of order 4, index 1024\n")),
        # the paper's cross-check: the bundled proof's 13 distinct relators
        (8192, None, (0, "8192\n", "cosets defined 6434, live peak 2379, coincidences 4386, subgroup <a> of order 4, index 2048\n")),
    ],
    ids=["c2", "c6", "a4-max-5", "a4-max-3", "one-coset", "bracelets4-4096", "e5-proof-8192"],
)
def test_order_prints_the_pinned_lines(tmp_path, capsys, relators, limit, expected):
    words = relators.split() if isinstance(relators, str) else [word_str(r) for r in benchmark_relators(relators)]
    rels = tmp_path / "rels.w"
    rels.write_text("".join(w + "\n" for w in words))
    argv = ["order", "--relators", str(rels)] + ([] if limit is None else ["--max-cosets", str(limit)])
    assert run(capsys, *argv) == expected


def test_order_outputs_are_pinned(tmp_path, capsys):
    # exit codes, stdouts and stderrs of order on the benchmark presentations,
    # in canonical order and in the relator shuffles of seeds 1 and 2, and on
    # ORDER_INPUTS; a digest over them all
    runs = [([word_str(r) for r in benchmark_relators(order)], None) for order in (8192, 4096)]
    for seed in (1, 2):
        runs += [(list(map(word_str, relators)), None) for _, relators in shuffled_benchmark_orders(seed)]
    runs += [(text.split(), limit) for text, limit in ORDER_INPUTS]
    rels = tmp_path / "rels.w"
    digest = hashlib.sha256()
    for words, limit in runs:
        rels.write_text("".join(w + "\n" for w in words))
        argv = ["order", "--relators", str(rels)] + ([] if limit is None else ["--max-cosets", str(limit)])
        code, out, err = run(capsys, *argv)
        digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert len(runs) == 46
    assert digest.hexdigest() == "973e38193a736b6b021fba3db9c7fe616d19af520fadb7adf1f2706c8529151c"


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == 2
    assert main(["bracelets"]) == 2
    assert main(["verify", "--proof", "x", "--engel", "5", "--exponent", "4", "--bogus"]) == 2


NO_BASES = {"bases": None, "max_base_len": None, "lyndon_upto": None}
SEARCH_DEFAULTS = {"beam": 1000, "max_moves": 256, "restarts": 0, "seed": 0, "base_subset": None}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["engel", "--n", "5"], {"n": 5, "cyclic": False}),
        (["engel", "--n", "3", "--cyclic"], {"n": 3, "cyclic": True}),
        (["bracelets", "--len", "4"], {"alphabet": AB, "len": 4, "lyndon": False, "count": False, "upto": False}),
        (
            ["bracelets", "--rank", "3", "--len", "4", "--lyndon", "--count", "--upto"],
            {"alphabet": Alphabet(3), "len": 4, "lyndon": True, "count": True, "upto": True},
        ),
        (
            ["verify", "--proof", "p.pf", "--engel", "5", "--exponent", "4"],
            {"proof": "p.pf", "alphabet": AB, "target": None, "engel": 5, "exponent": 4, **NO_BASES},
        ),
        (
            ["verify", "--proof", "p.pf", "--rank", "3", "--target", "t.w", "--exponent", "3", "--bases", "b.w"],
            {"proof": "p.pf", "alphabet": Alphabet(3), "target": "t.w", "engel": None, "exponent": 3,
             **NO_BASES, "bases": "b.w"},
        ),
        (
            ["verify", "--proof", "p.pf", "--engel", "2", "--exponent", "3", "--max-base-len", "3"],
            {"proof": "p.pf", "alphabet": AB, "target": None, "engel": 2, "exponent": 3,
             **NO_BASES, "max_base_len": 3},
        ),
        (
            ["verify", "--proof", "p.pf", "--engel", "2", "--exponent", "3", "--lyndon-upto", "4"],
            {"proof": "p.pf", "alphabet": AB, "target": None, "engel": 2, "exponent": 3,
             **NO_BASES, "lyndon_upto": 4},
        ),
        (["stats", "--proof", "p.pf"], {"proof": "p.pf", "alphabet": AB, "exponent": 4}),
        (
            ["stats", "--proof", "p.pf", "--rank", "3", "--exponent", "3"],
            {"proof": "p.pf", "alphabet": Alphabet(3), "exponent": 3},
        ),
        (["fold", "--proof", "p.pf"], {"proof": "p.pf", "alphabet": AB}),
        (["fold", "--proof", "p.pf", "--rank", "1"], {"proof": "p.pf", "alphabet": Alphabet(1)}),
        (
            ["search", "--engel", "5", "--exponent", "4", "--lyndon-upto", "5"],
            {"target": None, "engel": 5, "alphabet": AB, "exponent": 4, **NO_BASES, "lyndon_upto": 5,
             **SEARCH_DEFAULTS},
        ),
        (
            ["search", "--target", "t.w", "--rank", "3", "--exponent", "2", "--bases", "b.w", "--beam", "7",
             "--max-moves", "9", "--restarts", "1", "--seed", "-3", "--base-subset", "5"],
            {"target": "t.w", "engel": None, "alphabet": Alphabet(3), "exponent": 2, **NO_BASES, "bases": "b.w",
             "beam": 7, "max_moves": 9, "restarts": 1, "seed": -3, "base_subset": 5},
        ),
        (
            ["search", "--engel", "2", "--exponent", "3", "--max-base-len", "2"],
            {"target": None, "engel": 2, "alphabet": AB, "exponent": 3, **NO_BASES, "max_base_len": 2,
             **SEARCH_DEFAULTS},
        ),
        (["order", "--relators", "r.w"], {"relators": "r.w", "alphabet": AB, "max_cosets": 2_000_000}),
        (
            ["order", "--relators", "r.w", "--rank", "3", "--max-cosets", "100"],
            {"relators": "r.w", "alphabet": Alphabet(3), "max_cosets": 100},
        ),
    ],
)
def test_each_subcommand_parses_to_its_namespace(argv, expected):
    # every option a subcommand has, shared or its own, lands in its
    # namespace, with its default when the argv leaves it out
    args = vars(cli.build_parser().parse_args(argv))
    assert args.pop("func") is getattr(cli, f"_cmd_{argv[0]}")
    assert args == {"command": argv[0], **expected}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--proof", "p.pf", "--target", "t.w", "--engel", "5", "--exponent", "4"],
            "argument --engel: not allowed with argument --target",
        ),
        (
            ["search", "--engel", "2", "--exponent", "3", "--bases", "b.w", "--lyndon-upto", "3"],
            "argument --lyndon-upto: not allowed with argument --bases",
        ),
        (["search", "--engel", "2", "--exponent", "3"], "one of the arguments --bases --max-base-len --lyndon-upto is required"),
        (["search", "--exponent", "3"], "one of the arguments --target --engel is required"),
        (["verify", "--proof", "p.pf", "--exponent", "4"], "one of the arguments --target --engel is required"),
        (["verify", "--engel", "5"], "the following arguments are required: --proof, --exponent"),
        (["stats"], "the following arguments are required: --proof"),
    ],
)
def test_option_group_errors_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"\npowerproof {argv[0]}: error: {message}\n")


@pytest.mark.parametrize("command", ["bracelets", "verify", "stats", "fold", "search", "order"])
def test_help_names_the_rank_placeholder(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert code == 0 and err == ""
    assert "--rank RANK" in out and "ALPHABET" not in out


def test_domain_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.pf"
    code, _, err = run(capsys, "stats", "--proof", str(missing))
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.pf"
    bad.write_text("a((bb))\n")
    code, _, err = run(capsys, "stats", "--proof", str(bad))
    assert code == 1 and "error:" in err
    # a base that is not cyclically reduced is named, not the internal check
    bases = tmp_path / "bases.w"
    bases.write_text("abA\n")
    code, _, err = run(capsys, "search", "--engel", "2", "--exponent", "3", "--bases", str(bases))
    assert code == 1 and "'abA'" in err and "bracelet_canon" not in err and "Traceback" not in err
    # a bases file with no words is an error, not a search over no relators
    empty = tmp_path / "empty.w"
    empty.write_text("# no bases\n\n")
    code, out, err = run(capsys, "search", "--engel", "1", "--exponent", "4", "--bases", str(empty))
    assert (code, out, err) == (1, "", f"error: {empty} holds no bases\n")
    proof = tmp_path / "e1.pf"
    proof.write_text("a(bbbb)A\n")
    code, out, err = run(capsys, "verify", "--proof", str(proof), "--engel", "1", "--exponent", "4", "--bases", str(empty))
    assert (code, out, err) == (1, "", f"error: {empty} holds no bases\n")
    # a segment that is no e-th power of a cyclically reduced word
    square = tmp_path / "square.pf"
    square.write_text("(abAB)\n")
    code, out, err = run(capsys, "stats", "--proof", str(square), "--exponent", "2")
    message = "error: relator 'abAB' is not a power with exponent 2 of a cyclically reduced word\n"
    assert (code, out, err) == (1, "", message)


def test_parse_errors_name_line_and_column(tmp_path, capsys):
    proof = tmp_path / "bad.pf"
    proof.write_text("# a proof over two lines\na(bbbb)A\nb(aaxaa)B\n")
    code, out, err = run(capsys, "verify", "--proof", str(proof), "--engel", "2", "--exponent", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: invalid character 'x'") and "line 3, column 5" in err
    bases = tmp_path / "bases.w"
    bases.write_text("# bases\nab\n\n  aBx\n")
    code, out, err = run(capsys, "search", "--engel", "2", "--exponent", "3", "--bases", str(bases))
    assert code == 1 and out == ""
    # the position is the offset in the file, comment lines included
    assert err.startswith("error: invalid character 'x'") and "line 4, column 5 (position 16)" in err
    target = tmp_path / "target.w"
    target.write_text("# target word\nABab x\n")
    code, out, err = run(capsys, "search", "--target", str(target), "--exponent", "3", "--lyndon-upto", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: invalid character 'x'") and "line 2, column 6 (position 19)" in err


def test_python_dash_m_runs_the_command(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "powerproof", "bracelets", "--len", "2"],
        capture_output=True, text=True, env=package_env(), cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["aa", "ab", "aB", "bb"]


@pytest.mark.slow
def test_search_is_identical_across_hash_seeds(tmp_path):
    # bytes hashes are salted per process; the beam keeps its states as
    # bytes, so two seeds must still give the same proof and counters.  -bb
    # makes any comparison of str with bytes raise, and hash("ab") equals
    # hash(b"ab"), so a str key looked up among bytes keys (in the beam, the
    # append index or the bracelet canon) raises instead of missing
    argv = [sys.executable, "-bb", "-m", "powerproof", "search", "--engel", "5", "--exponent", "4",
            "--lyndon-upto", "5", "--beam", "300", "--max-moves", "400"]
    runs = []
    for seed in ("1", "2"):
        env = package_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0
        runs.append((proc.stdout, re.sub(r"elapsed \S+", "", proc.stderr)))
    assert runs[0] == runs[1]
    assert runs[0][1].startswith("states visited 31714, moves tried 437707,")
