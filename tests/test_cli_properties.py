"""Property tests that drive the whole command line in-process.

Hypothesis builds an argv for each subcommand from valid and invalid option
values and from small files of random text (unclosed brackets, blank and '#'
lines, letters above the rank), and runs cli.main on it.  Every run must
exit with 0, 1 or 2 and raise nothing; a failing run must say why on stderr,
or print its verdict; a proof that search prints must pass verify.

Every run is kept small: rank <= 3, --len <= 8, base lengths <= 3,
--beam <= 50, --max-moves <= 20, --max-cosets <= 5,000 and --n <= 8.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerproof.cli import main

# failing verdicts a command prints on stdout with exit 1
VERDICTS = {"NOT FOUND", "INVALID", "OVERFLOW"}
NOT_INTS = ["x", "", "1.5", "0x10"]


def mostly(usual, rare):
    """Draws from usual 19 times in 20, else from rare."""
    return st.integers(0, 19).flatmap(lambda i: rare if i == 0 else usual)


# words over a and b, now and then over rank 3 and one letter above it
words = mostly(st.text(alphabet="aAbB", max_size=6), st.text(alphabet="aAbBcCd", max_size=8))
# w^k for a short word w: powers make relators, relator files and targets
# that the commands accept
powers = st.tuples(words.filter(bool), st.integers(1, 5)).map(lambda p: p[0][:3] * p[1])
lines = mostly(
    words,
    st.sampled_from(["", "# a comment line", "  ", "a\tb"]) | st.text(alphabet="aAbB()# \tx", max_size=10),
)
texts = mostly(st.lists(powers, min_size=1, max_size=4), st.lists(lines, max_size=5)).map("\n".join)
# proof text: conjugators and parenthesised relators, now and then with a
# bracket dropped, doubled or unclosed
brackets = mostly(st.just(("(", ")")), st.sampled_from([("((", ")"), ("(", ""), ("", ")"), ("(", "))")]))
segments = st.tuples(words, brackets, powers).map(lambda s: s[0] + s[1][0] + s[2] + s[1][1])
proofs = mostly(
    st.tuples(st.lists(segments, min_size=1, max_size=4), words).map(lambda p: "".join(p[0]) + p[1]),
    texts,
)


class File(str):
    """An argv token that names a file holding this text."""


# an argv token that names a file that does not exist
MISSING = "missing.txt"


def ints(valid, invalid=(0, -1)):
    """Option values: mostly in range, else out of range or not an int."""
    return mostly(valid.map(str), st.sampled_from([str(v) for v in invalid] + NOT_INTS))


def option(draw, name, values, required=False):
    """[name, value], or [] when the option is left out: two times in five
    for an optional one, one time in 20 for a required one."""
    if draw(st.integers(0, 19)) < (1 if required else 8):
        return []
    return [name, draw(values)]


def files(text_strategy):
    return mostly(text_strategy.map(File), st.just(MISSING))


ranks = ints(st.integers(1, 3), (0, 27))
exponents = ints(st.integers(1, 5), (0, -1, 65, 40000))
engel_indices = ints(st.integers(1, 4), (0, 21))


def target(draw):
    if draw(st.booleans()):
        return ["--engel", draw(engel_indices)]
    return ["--target", draw(files(texts))]


def bases(draw):
    name = draw(st.sampled_from(["--bases", "--max-base-len", "--lyndon-upto"]))
    if name == "--bases":
        return [name, draw(files(texts))]
    return [name, draw(ints(st.integers(1, 3)))]


@st.composite
def engel_argv(draw):
    argv = ["engel", *option(draw, "--n", ints(st.integers(1, 8), (0, 21)), True)]
    return argv + draw(st.sampled_from([[], ["--cyclic"]]))


@st.composite
def bracelets_argv(draw):
    argv = ["bracelets", *option(draw, "--rank", ranks), *option(draw, "--len", ints(st.integers(1, 8)), True)]
    return argv + draw(st.lists(st.sampled_from(["--lyndon", "--count", "--upto"]), unique=True))


@st.composite
def verify_argv(draw):
    argv = ["verify", *option(draw, "--proof", files(proofs), True), *option(draw, "--rank", ranks)]
    argv += target(draw) + option(draw, "--exponent", exponents, True)
    return argv + (bases(draw) if draw(st.booleans()) else [])


@st.composite
def stats_argv(draw):
    argv = ["stats", *option(draw, "--proof", files(proofs), True), *option(draw, "--rank", ranks)]
    return argv + option(draw, "--exponent", exponents)


@st.composite
def fold_argv(draw):
    return ["fold", *option(draw, "--proof", files(proofs), True), *option(draw, "--rank", ranks)]


@st.composite
def search_argv(draw):
    exponent = option(draw, "--exponent", exponents, True)
    argv = ["search", *exponent, *option(draw, "--rank", ranks)]
    if draw(st.booleans()):
        argv += target(draw)
    else:
        # a power of a short word, often provable within the budget
        e = int(exponent[1]) if exponent and exponent[1].isdigit() else 4
        argv += ["--target", File(draw(st.text(alphabet="aAbB", min_size=1, max_size=3)) * min(e, 5))]
    argv += bases(draw) if draw(st.integers(0, 19)) else []
    # always bounded: the defaults, a beam of 1,000 for 256 moves, would
    # let a search that finds nothing run long
    argv += ["--beam", draw(ints(st.integers(1, 50))), "--max-moves", draw(ints(st.integers(1, 20)))]
    argv += option(draw, "--restarts", ints(st.integers(0, 2), (-1,)))
    argv += option(draw, "--seed", ints(st.integers(-5, 5), ()))
    return argv + option(draw, "--base-subset", ints(st.integers(1, 4)))


@st.composite
def order_argv(draw):
    argv = ["order", *option(draw, "--relators", files(texts), True), *option(draw, "--rank", ranks)]
    # always bounded: the default limit would let an infinite group run long
    return argv + ["--max-cosets", draw(ints(st.integers(1, 5000)))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    """Write each File token to a file, run the argv, and check the run."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, token in enumerate(argv):
            if isinstance(token, File):
                path = os.path.join(tmp, f"{i}.txt")
                with open(path, "w") as f:
                    f.write(token)
                token = path
            elif token == MISSING:
                token = os.path.join(tmp, MISSING)
            paths.append(token)
        code, out, err = run(paths)
        assert code in (0, 1, 2)
        if code:
            assert "error:" in err or out.strip().split("\n")[-1] in VERDICTS, (code, out, err)
        if code == 0 and paths[0] == "search":
            # the printed proof is checked by verify over the bases the
            # search was given, by the search's own option
            proof = os.path.join(tmp, "found.pf")
            with open(proof, "w") as f:
                f.write(out)
            keep = {"--rank", "--target", "--engel", "--exponent", "--bases", "--max-base-len", "--lyndon-upto"}
            verify = ["verify", "--proof", proof]
            for name, value in zip(paths[1::2], paths[2::2]):
                if name in keep:
                    verify += [name, value]
            code, out, err = run(verify)
            assert (code, out.strip().split("\n")[-1]) == (0, "VALID"), (paths, code, out, err)


commands = st.one_of(engel_argv(), bracelets_argv(), verify_argv(), stats_argv(), fold_argv(), order_argv())


@settings(deadline=None)
@given(commands)
@example(["fold", "--proof", File("a(bbbb")])
@example(["stats", "--rank", "1", "--proof", File("# over a and b\n(abab)(AAAA)")])
@example(["order", "--relators", File("aaa\n\n# a comment\nbbbb\nabab\nabAB\n"), "--max-cosets", "5000"])
@example(["verify", "--proof", File("(aaaa)"), "--target", File("aaaa"), "--exponent", "65"])
def test_every_command_exits_cleanly(argv):
    check(argv)


@settings(deadline=None)
@given(search_argv())
# the exponent bound: the append index of e = 40000 would not fit in memory
@example(["search", "--engel", "1", "--exponent", "40000", "--lyndon-upto", "1", "--beam", "9", "--max-moves", "9"])
# a proof found at rank 3, checked by verify over the same bases
@example(["search", "--rank", "3", "--target", File("ccc"), "--exponent", "3", "--lyndon-upto", "1", "--beam", "9", "--max-moves", "9"])
def test_search_exits_cleanly_and_its_proofs_verify(argv):
    check(argv)
