import importlib.resources

from powerproof import cli
from powerproof.cli import main
from powerproof.proofwords import ProofWord

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


def test_bracelets_count(capsys):
    code, out, _ = run(capsys, "bracelets", "--rank", "2", "--len", "10", "--count")
    assert code == 0 and out.strip() == "2968"
    code, out, _ = run(capsys, "bracelets", "--rank", "2", "--len", "4", "--lyndon", "--upto", "--count")
    assert code == 0 and out.strip() == "17"


def test_bracelets_listing(capsys):
    code, out, _ = run(capsys, "bracelets", "--rank", "2", "--len", "1")
    assert code == 0 and out.split() == ["a", "b"]


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
    def corrupted(log, target, outer=()):
        return ProofWord(((), ()), ((1, 1, 1),))

    monkeypatch.setattr(cli, "reconstruct", corrupted)
    code, out, err = run(
        capsys, "search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3", "--seed", "9"
    )
    assert code == 1 and out == ""
    assert "error:" in err


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
    code, out, _ = run(capsys, "order", "--relators", str(rels))
    assert code == 0 and out.strip() == "6"


def test_order_overflow(tmp_path, capsys):
    rels = tmp_path / "rels.w"
    rels.write_text("aa\n")
    code, out, _ = run(capsys, "order", "--relators", str(rels), "--max-cosets", "100")
    assert code == 1 and out.strip() == "OVERFLOW"


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
