import hashlib
import importlib.resources
import os
import re
import subprocess
import sys

import pytest

from powerproof import cli
from powerproof.cli import main
from powerproof.cosets import CosetTable, Presentation, enumerate_cosets
from powerproof.proofwords import ProofWord
from powerproof.words import AB, parse_word as P

FIXTURE = str(importlib.resources.files("powerproof").joinpath("data/e5_proof_26_powers.txt"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_engel(capsys):
    code, out, _ = run(capsys, "engel", "--n", "2")
    assert code == 0 and out.strip() == "BAbaBABabb"
    code, out, _ = run(capsys, "engel", "--n", "5", "--cyclic")
    assert code == 0 and len(out.strip()) == 64
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "90b8b8502959fa03970d6f842cdcb504d4e60f3c1900762b53509bc4997079c0"
    )


def test_bracelets_count(capsys):
    code, out, _ = run(capsys, "bracelets", "--rank", "2", "--len", "10", "--count")
    assert code == 0 and out.strip() == "2968"
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


def test_bracelets_rejects_length_below_one(capsys):
    for argv in (["--len", "0", "--upto"], ["--len", "-3", "--upto", "--count"], ["--len", "0"]):
        code, out, err = run(capsys, "bracelets", *argv)
        assert code == 2 and out == "" and "--len" in err


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
    # 0 used to skip the membership check and print VALID
    code, out, err = run(
        capsys, "verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "4",
        "--max-base-len", "0",
    )
    assert code == 2 and out == "" and "--max-base-len" in err
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
    code, out, err = run(
        capsys, "search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3",
        "--beam", "600",
    )
    assert code == 0
    assert "states visited" in err
    pf = tmp_path / "found.pf"
    pf.write_text(out)
    code, out2, _ = run(
        capsys, "verify", "--proof", str(pf), "--engel", "2", "--exponent", "3",
        "--max-base-len", "3",
    )
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

    monkeypatch.setattr(cli, "reconstruct", corrupted)
    code, out, err = run(
        capsys, "search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3", "--seed", "9"
    )
    assert code == 1 and out == ""
    assert "error:" in err


def test_search_rejects_lyndon_length_below_one(capsys):
    code, out, err = run(capsys, "search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "0")
    assert code == 2 and out == "" and "--lyndon-upto" in err


def test_search_without_bases_names_every_bases_option(capsys):
    code, out, err = run(capsys, "search", "--engel", "2", "--exponent", "3")
    assert code == 2 and out == "" and err.startswith("error:")
    for option in ("--bases", "--max-base-len", "--lyndon-upto"):
        assert option in err


SEARCH_E2 = ("search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3")


def test_search_rejects_out_of_range_config(capsys):
    for option, value in (("--restarts", "-1"), ("--base-subset", "0")):
        code, out, err = run(capsys, *SEARCH_E2, option, value)
        assert code == 2 and out == "" and f"argument {option}:" in err


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
    ],
)
def test_out_of_range_options_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}:" in err


def test_verify_rejects_exponent_zero(capsys):
    # it used to report the valid fixture INVALID, every segment a bad relator
    code, out, err = run(capsys, "verify", "--proof", FIXTURE, "--engel", "5", "--exponent", "0")
    assert code == 2 and out == ""
    assert "argument --exponent:" in err


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
    # the line starts with "cosets defined N", which the benchmark parses
    assert err == "cosets defined 8, live peak 8, coincidences 2\n"


def test_order_builds_no_row_table(tmp_path, capsys, monkeypatch):
    compactions = []
    compact = CosetTable.rows.func

    def spy(table):
        compactions.append(table.order)
        return compact(table)

    monkeypatch.setattr(CosetTable, "rows", property(spy))
    rels = tmp_path / "rels.w"
    rels.write_text("aaaaaa\nAAA\naaa\nbb\nabAB\nBAba\n")
    code, out, err = run(capsys, "order", "--relators", str(rels))
    assert (code, out, err) == (0, "6\n", "cosets defined 6, live peak 6, coincidences 0\n")
    assert compactions == []
    # the spy sees the compaction when the rows are read
    assert enumerate_cosets(Presentation(AB, (P("aa"),)), 10).rows == []
    assert enumerate_cosets(Presentation(AB, (P("aa"), P("bb"), P("abAB")))).trace(0, P("ab")) == 3
    assert compactions == [None, 4]


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


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == 2
    assert main(["bracelets"]) == 2
    assert main(["verify", "--proof", "x", "--engel", "5", "--exponent", "4", "--bogus"]) == 2


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
    assert code == 1 and "'abA'" in err and "bracelet_canon" not in err
    # a bases file with no words is an error, not a search over no relators
    empty = tmp_path / "empty.w"
    empty.write_text("# no bases\n\n")
    code, out, err = run(capsys, "search", "--engel", "1", "--exponent", "4", "--bases", str(empty))
    assert (code, out, err) == (1, "", f"error: {empty} holds no bases\n")
    proof = tmp_path / "e1.pf"
    proof.write_text("a(bbbb)A\n")
    code, out, err = run(capsys, "verify", "--proof", str(proof), "--engel", "1", "--exponent", "4", "--bases", str(empty))
    assert (code, out, err) == (1, "", f"error: {empty} holds no bases\n")


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
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "powerproof", "bracelets", "--len", "2"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["aa", "ab", "aB", "bb"]


@pytest.mark.slow
def test_search_is_identical_across_hash_seeds(tmp_path):
    # str hashes are salted per process; the beam keeps its states as
    # strings, so two seeds must still give the same proof and counters
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    argv = [sys.executable, "-m", "powerproof", "search", "--engel", "5", "--exponent", "4",
            "--lyndon-upto", "5", "--beam", "300", "--max-moves", "400"]
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0
        runs.append((proc.stdout, re.sub(r"elapsed \S+", "", proc.stderr)))
    assert runs[0] == runs[1]
    assert runs[0][1].startswith("states visited 31714, moves tried 437707,")
