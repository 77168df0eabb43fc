"""The oracles are tested too: each case puts one known defect into the
library and checks that the named oracle, run on its explicit inputs only,
rejects it.  The oracle first passes on the library as it is, so the
failure is the defect's.  No Hypothesis search runs here."""

import dataclasses
import importlib
import inspect
import math
import random
import textwrap
from itertools import chain

import pytest

import test_cosets
import test_proofwords
import test_search
from powerproof import cli, cosets, proofwords
from powerproof.cosets import CosetTable, Presentation
from powerproof.engel import engel_word
from powerproof.proofwords import ProofWord, VerifyReport, fold, symmetrize
from powerproof.words import AB, free_reduce, parse_word, power, word_str

from util import lyndon_bases

# the package's attribute ``search`` is the function, not the module
search = importlib.import_module("powerproof.search")


def explicit_examples(test):
    """Run a property's @example inputs, and nothing else."""
    for example in test.hypothesis_explicit_examples:
        test.hypothesis.inner_test(*example.args, **example.kwargs)


def test_certifies_that_skips_a_relator_is_rejected(monkeypatch):
    oracle = test_cosets.test_certifies_rejects_a_table_that_does_not_hold
    oracle()
    certifies = CosetTable.certifies

    def skipping(table, pres):
        return certifies(table, Presentation(pres.alphabet, pres.relators[:-1]))

    monkeypatch.setattr(CosetTable, "certifies", skipping)
    with pytest.raises(AssertionError):
        oracle()


def test_certifies_that_checks_the_wrong_power_of_a_root_is_rejected(monkeypatch):
    # relators with one root are checked once, as the root to the gcd of
    # their powers; keeping the first power, or taking the lcm, lets the Z4
    # table pass aaaa aaaaaa b, in which a^2 = 1
    oracle = test_cosets.test_certifies_rejects_a_table_that_does_not_hold
    oracle()
    source = textwrap.dedent(inspect.getsource(CosetTable.certifies))
    gcd_power = "gcd(powers.get(v, 0), k)"
    assert source.count(gcd_power) == 1
    for defect in ("powers.get(v, k)", "lcm(powers.get(v, 1), k)"):
        namespace = dict(vars(cosets), lcm=math.lcm)
        exec(compile(source.replace(gcd_power, defect), cosets.__file__, "exec"), namespace)
        monkeypatch.setattr(CosetTable, "certifies", namespace["certifies"])
        with pytest.raises(AssertionError):
            oracle()


def test_certifies_that_ignores_the_subgroup_is_rejected(monkeypatch):
    oracle = test_cosets.test_certifies_rejects_a_table_that_does_not_hold
    oracle()
    certifies = CosetTable.certifies

    def ignoring(table, pres):
        return certifies(dataclasses.replace(table, subgroup=()), pres)

    monkeypatch.setattr(CosetTable, "certifies", ignoring)
    with pytest.raises(AssertionError):
        oracle()


def test_order_test_that_always_reports_k_is_rejected(monkeypatch):
    # aaa bbbb abab abAB has order 2, but b has k = 4 and index 1 over <b>
    presentation, max_cosets, expected = test_cosets.GROUP_ORDER_PATHS[2]
    oracle = test_cosets.test_group_order_paths
    oracle(presentation, max_cosets, expected)
    monkeypatch.setattr(cosets, "_has_order", lambda perm, k: True)
    with pytest.raises(AssertionError):
        oracle(presentation, max_cosets, expected)


def test_order_test_that_checks_only_the_kth_power_is_rejected(monkeypatch):
    # x^k is the identity on every complete <x> table, so this test accepts
    # any order of x that divides k: each fallback path then reads its order
    # from <x>, as index * k
    oracle = test_cosets.test_group_order_paths
    paths = test_cosets.GROUP_ORDER_PATHS[2:5]
    for path in paths:
        oracle(*path)
    monkeypatch.setattr(cosets, "_has_order", lambda perm, k: cosets._power(perm, k) == tuple(range(len(perm))))
    for path in paths:
        with pytest.raises(AssertionError):
            oracle(*path)


def patch_beam_attempt(monkeypatch, *replacements):
    """Put _beam_attempt, its source rewritten by (old, new) pairs, into the
    search module; each old text must occur in the source."""
    source = inspect.getsource(search._beam_attempt)
    for old, new in replacements:
        assert old in source
        source = source.replace(old, new)
    namespace = dict(vars(search))
    exec(compile(source, search.__file__, "exec"), namespace)
    monkeypatch.setattr(search, "_beam_attempt", namespace["_beam_attempt"])


def failed_examples(test, errors=AssertionError):
    """How many of a property's @example inputs fail it, raising one of
    errors."""
    failed = 0
    for example in test.hypothesis_explicit_examples:
        try:
            test.hypothesis.inner_test(*example.args, **example.kwargs)
        except errors:
            failed += 1
    return failed


def test_beam_cutoff_one_too_low_is_rejected(monkeypatch):
    # every child the beam builds is held one class below the cutoff, the
    # four conjugation children and the appends alike, or the appends'
    # k-level lookup one letter below the cutoff's length; each half of the
    # defect, on its own, fails at least two examples
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    source = inspect.getsource(search._beam_attempt)
    class_test, k_level = "c > cutoff:", "- cutoff // span + 1) // 2"
    assert source.count(class_test) == 5 and source.count(k_level) == 1
    for old, new in ((class_test, "c > cutoff - 1:"), (k_level, "- cutoff // span + 2) // 2")):
        with monkeypatch.context() as patch:
            patch_beam_attempt(patch, (old, new))
            assert failed_examples(oracle) >= 2


def test_left_rotation_filed_under_its_old_head_is_rejected(monkeypatch):
    # w[1:] + w[:1] starts with w[1]; under w[0] its class is off by a
    # letter, so the cutoff keeps or drops it wrongly and the selection
    # ranks it among the wrong words
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    rotation = "c = base + w[1]\n"
    assert inspect.getsource(search._beam_attempt).count(rotation) == 1
    patch_beam_attempt(monkeypatch, (rotation, "c = base + head\n"))
    assert failed_examples(oracle) >= 2


def test_whole_state_append_filed_under_the_inverse_letter_is_rejected(monkeypatch):
    # an append that cancels the whole state, j = n < m, leaves the word
    # key[n:], which starts with the letter of index key[n]; under its
    # inverse, key[n] ^ 1, the class is off by a letter, so the cutoff keeps
    # or drops the word wrongly and the selection ranks it among the wrong
    # words
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    whole_state = "c = (m - n) * span + key[n]\n"
    assert inspect.getsource(search._beam_attempt).count(whole_state) == 1
    patch_beam_attempt(monkeypatch, (whole_state, "c = (m - n) * span + (key[n] ^ 1)\n"))
    assert failed_examples(oracle) >= 1


def test_thawed_class_kept_out_of_the_visited_set_is_rejected(monkeypatch):
    # a frozen class that a later reach covers again must return its words
    # to the visited set; kept out, they are built and chosen again.  Only a
    # beam whose longest word shrinks and grows back thaws a class, and of
    # the examples only the one at width 1 and depth 34 shows the defect
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    thaw = "visited.update(by_visit[c])"
    assert inspect.getsource(search._beam_attempt).count(thaw) == 1
    patch_beam_attempt(monkeypatch, (thaw, "visited.update(())"))
    assert failed_examples(oracle) >= 1


def test_thaw_that_skips_the_decompress_is_rejected(monkeypatch):
    # a frozen class is compressed; thawed without zlib.decompress, its
    # compressed bytes are cut into words that were never visited, and the
    # words it froze are built and chosen again.  Of the examples only the
    # one at width 1 and depth 34 shows the defect
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    decompress = "zlib.decompress(frozen)"
    assert inspect.getsource(search._beam_attempt).count(decompress) == 1
    patch_beam_attempt(monkeypatch, (decompress, "frozen"))
    assert failed_examples(oracle) >= 1


def test_reach_one_letter_short_is_rejected(monkeypatch):
    # with reach one length too low, a class that a child of the beam can be
    # of is frozen: its visited words are out of the set, and a child of it,
    # once chosen, is filed under a record that is bytes, not a list, which
    # raises TypeError
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    reach = "* span + span - 1, top)"
    assert inspect.getsource(search._beam_attempt).count(reach) == 1
    patch_beam_attempt(monkeypatch, (reach, "* span - 1, top)"))
    assert failed_examples(oracle, (AssertionError, TypeError)) >= 2


def test_both_ends_conjugation_dropped_at_the_cutoff_class_is_rejected(monkeypatch):
    # the conjugation that cancels both end letters leaves w[1:-1]; a child
    # of the cutoff class itself is kept, so dropping it there loses a word
    # the selection would choose
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    both_ends = "c = base - two_spans + w[1]\n                            if c > cutoff:"
    assert inspect.getsource(search._beam_attempt).count(both_ends) == 1
    patch_beam_attempt(monkeypatch, (both_ends, both_ends.replace("c > cutoff", "c >= cutoff")))
    assert failed_examples(oracle) >= 1


def test_reach_that_undercounts_a_member_longer_than_the_state_is_rejected(monkeypatch):
    # a member longer than the state is offered to states of up to
    # longest - 1 letters, and gives a child of up to n + longest; with
    # longest - 2 in its place, reach is a length too low once the beam's
    # longest word has longest - 1 letters, and a child chosen into a frozen
    # class, filed under a record that is bytes, raises TypeError
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    longer_member = "min(n, longest - 1) + longest) * span"
    assert inspect.getsource(search._beam_attempt).count(longer_member) == 1
    patch_beam_attempt(monkeypatch, (longer_member, "min(n, longest - 2) + longest) * span"))
    assert failed_examples(oracle, (AssertionError, TypeError)) >= 1


def test_chosen_words_filed_under_a_shorter_length_are_rejected(monkeypatch):
    # a frozen class is thawed into words of its class's length, so a word
    # filed under a shorter length comes back cut into other words: its own
    # words are lost, and the pieces block words not yet visited.  Two forms,
    # each tried on its own: one length lower, and len * span less the first
    # letter's index, a class of the length below unless that letter is a
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    filed = "len(bucket[0]) * span + bucket[0][0]]"
    assert inspect.getsource(search._beam_attempt).count(filed) == 1
    for shorter in ("(len(bucket[0]) - 1) * span + bucket[0][0]]", "len(bucket[0]) * span - bucket[0][0]]"):
        with monkeypatch.context() as patch:
            patch_beam_attempt(patch, (filed, shorter))
            assert failed_examples(oracle) >= 1


def test_append_lookup_with_a_str_key_is_rejected(monkeypatch):
    # the append index is keyed by bytes, as the states are; a lookup by the
    # state's tail as str misses every bucket without an error, so the beam
    # offers no append at all and only conjugates: every example fails
    oracle = test_search.test_search_matches_the_full_ranking_oracle
    explicit_examples(oracle)
    lookup = "levels[h].get(w[n - h :])"
    assert inspect.getsource(search._beam_attempt).count(lookup) == 1
    patch_beam_attempt(monkeypatch, (lookup, "levels[h].get(w[n - h :].decode())"))
    for example in oracle.hypothesis_explicit_examples:
        with pytest.raises(AssertionError):
            oracle.hypothesis.inner_test(*example.args, **example.kwargs)


def test_reconstruct_that_drops_the_trailing_conjugator_is_rejected(monkeypatch):
    oracle = test_search.test_reconstruct_with_outer_conjugator
    oracle()
    reconstruct = search.reconstruct

    def dropping(log):
        proof = reconstruct(log)
        return ProofWord(proof.conjugators[:-1] + ((),), proof.relators)

    monkeypatch.setattr(test_search, "reconstruct", dropping)
    with pytest.raises(AssertionError):
        oracle()


def test_reconstruct_that_does_not_invert_the_closing_conjugator_is_rejected(monkeypatch):
    oracle = test_search.test_decompile_cr_fixture
    oracle()

    def uninverted(log):
        # search.reconstruct, closing with the kept conjugators' product
        # itself instead of its inverse
        conjs, rels, run = [], [], []
        for move in log.moves:
            if isinstance(move, int):
                run.append(move)
            else:
                conjs.append(free_reduce(tuple(run)))
                rels.append(move)
                run = []
        conjs.append(free_reduce(chain.from_iterable(conjs)))
        return fold(ProofWord(tuple(conjs), tuple(rels)))

    monkeypatch.setattr(test_search, "reconstruct", uninverted)
    with pytest.raises(AssertionError):
        oracle()


def test_scan_list_that_drops_its_last_relator_is_rejected(monkeypatch):
    oracle = test_cosets.test_skipped_relators_leave_the_order_unchanged.hypothesis.inner_test
    oracle(test_cosets.A4_QUOTIENT, 2000)
    scan_list = Presentation._scan_list.func
    # a property, unlike the cached one, is not shadowed by a cached value
    monkeypatch.setattr(Presentation, "_scan_list", property(lambda pres: scan_list(pres)[:-1]))
    with pytest.raises(AssertionError):
        oracle(test_cosets.A4_QUOTIENT, 2000)


def test_proof_checker_rejects_a_scan_list_that_drops_a_relator(monkeypatch):
    # <a | a^4, a^6> without a^6 is Z4, in which the proof's AA moves a coset
    oracle = test_cosets.test_the_proof_checker_and_the_coset_table_agree.hypothesis.inner_test
    oracle(test_cosets.MIXED_EXPONENTS, random.Random(1))
    scan_list = Presentation._scan_list.func
    monkeypatch.setattr(Presentation, "_scan_list", property(lambda pres: scan_list(pres)[:-1]))
    with pytest.raises(AssertionError):
        oracle(test_cosets.MIXED_EXPONENTS, random.Random(1))


def test_order_rejects_a_table_from_a_scan_list_that_drops_a_relator(monkeypatch, tmp_path, capsys):
    # the certificate checks every relator of the presentation, so it does not
    # share the enumerator's fault: A4, of order 12, fails abAB
    rels = tmp_path / "rels.w"
    rels.write_text("".join(w + "\n" for w in map(word_str, test_cosets.A4_QUOTIENT.relators)))
    scan_list = Presentation._scan_list.func
    monkeypatch.setattr(Presentation, "_scan_list", property(lambda pres: scan_list(pres)[:-1]))
    assert cli.main(["order", "--relators", str(rels)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(
        "error: the coset table fails its check: a relator or subgroup generator moves a coset\n"
    )
    # a certificate over the scan list alone lets the defect through
    certifies = CosetTable.certifies

    def over_the_scan_list(table, pres):
        return certifies(table, Presentation(pres.alphabet, tuple(r for r, _, _ in pres._scan_list)))

    monkeypatch.setattr(CosetTable, "certifies", over_the_scan_list)
    assert cli.main(["order", "--relators", str(rels)]) == 0
    assert capsys.readouterr().out == "12\n"


def test_search_that_keeps_a_proof_that_does_not_verify_is_rejected(monkeypatch, capsys):
    # search verifies the proof it reconstructs: a corrupted reconstruction
    # raises, and the CLI prints nothing; with the check patched out too, the
    # corrupted proof reaches stdout, so the check is what refuses it
    argv = ["search", "--engel", "2", "--exponent", "3", "--lyndon-upto", "3"]
    relators = symmetrize(lyndon_bases(3), 3)
    assert search.search(engel_word(2), relators).proof is not None
    assert cli.main(argv) == 0 and capsys.readouterr().out != "(aaa)\n"
    monkeypatch.setattr(search, "reconstruct", lambda log: ProofWord(((), ()), ((1, 1, 1),)))
    with pytest.raises(ValueError, match="the reconstructed proof does not verify"):
        search.search(engel_word(2), relators)
    assert cli.main(argv) == 1 and capsys.readouterr().out == ""
    monkeypatch.setattr(search, "verify", lambda *args, **kwargs: VerifyReport(True, True, ()))
    assert cli.main(argv) == 0 and capsys.readouterr().out == "(aaa)\n"


def test_group_order_that_keeps_a_table_that_fails_its_check_is_rejected(monkeypatch, tmp_path, capsys):
    # group_order certifies the table it reads its order from: the Klein
    # group's tables handed back for S3 raise, and order exits 1; with the
    # check patched out too, the Klein group's order 4 reaches stdout
    s3 = Presentation(AB, tuple(map(parse_word, ("aa", "bb", "ababab"))))
    klein = Presentation(AB, tuple(map(parse_word, ("aa", "bb", "abab"))))
    rels = tmp_path / "rels.w"
    rels.write_text("aa\nbb\nababab\n")
    argv = ["order", "--relators", str(rels)]
    assert cli.main(argv) == 0 and capsys.readouterr().out == "6\n"
    enumerate_cosets = cosets.enumerate_cosets
    monkeypatch.setattr(cosets, "enumerate_cosets", lambda pres, *limits: enumerate_cosets(klein, *limits))
    with pytest.raises(ValueError, match="the coset table fails its check"):
        cosets.group_order(s3)
    assert cli.main(argv) == 1 and capsys.readouterr().out == ""
    monkeypatch.setattr(CosetTable, "certifies", lambda table, pres: True)
    assert cli.main(argv) == 0 and capsys.readouterr().out == "4\n"


def test_power_base_that_skips_the_cyclic_reduction_test_is_rejected(monkeypatch):
    # aAaA is the square of aA, which is not cyclically reduced: verify's
    # exponent mode must flag it
    oracle = test_proofwords.test_verify_exponent_only_flags_non_powers
    oracle()

    def skipping(r, exponent):
        if exponent < 1 or len(r) % exponent:
            return None
        base = r[: len(r) // exponent]
        return base if power(base, exponent) == r else None

    monkeypatch.setattr(proofwords, "_power_base", skipping)
    with pytest.raises(AssertionError):
        oracle()


def test_primitive_root_that_gives_the_empty_word_power_zero_is_rejected(monkeypatch):
    # with k = 0 for the empty word, fixes(()) asks _power for the 0th power,
    # on which its squaring never ends
    oracle = test_cosets.test_permutation_rejects_an_incomplete_table_and_a_letter_beyond_the_rank
    oracle()
    primitive_root = cosets.primitive_root
    monkeypatch.setattr(cosets, "primitive_root", lambda w: primitive_root(w) if w else ((), 0))
    with pytest.raises(RecursionError):
        oracle()
