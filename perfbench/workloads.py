"""The benchmark's workloads: inputs made from a seed, the timed job, and the
check of its output.

Jobs go through the public entry points: ``powerproof.cli.main(argv)`` run
in-process with stdout and stderr captured, or the library where the CLI has
no subcommand.  Checks run outside the timed region and use only the public
API; each returns the problems it found and the facts it read off the
output (quality counts and determinism fingerprints).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from powerproof import (
    AB,
    Presentation,
    SearchConfig,
    cli,
    distinct_presentation,
    e5_proof,
    e5_proof_text,
    engel_word,
    enumerate_cosets,
    enumerate_lyndon,
    enumerate_reduced_bracelets,
    parse_proof,
    power,
    stats,
    symmetrize,
    verify,
    word_str,
)

EXPONENT = 4


@dataclass(frozen=True)
class CliRun:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_problems(run: CliRun, what: str) -> list[str]:
    return [] if run.code == 0 else [f"{what} exited {run.code}: {run.err.strip()[-200:]}"]


class E5Search:
    """The headline job: search for a certificate of the fifth Engel word."""

    ARGV = ["search", "--engel", "5", "--exponent", "4", "--lyndon-upto", "5", "--max-moves", "400"]
    STATS_LINE = re.compile(r"states visited (\d+), moves tried (\d+)")

    def setup(self, seed: int, workdir: Path) -> list[str]:
        return list(self.ARGV)

    def job(self, argv: list[str], index: int) -> CliRun:
        return run_cli(argv)

    def check(self, argv: list[str], index: int, run: CliRun) -> tuple[list[str], dict]:
        problems = _cli_problems(run, "search")
        if problems:
            return problems, {}
        counters = self.STATS_LINE.search(run.err)
        proof = parse_proof(run.out)
        lyndon = [c.canonical for n in range(1, 6) for c in enumerate_lyndon(AB, n)]
        report = verify(proof, engel_word(5), relators=symmetrize(lyndon, EXPONENT))
        if not report.valid:
            problems.append("printed proof does not verify against engel_word(5)")
        return problems, {
            "proof_powers": len(proof.relators),
            "proof_length": stats(proof, EXPONENT).overall_length,
            "proof_sha256": sha256(run.out),
            "states_visited": int(counters.group(1)) if counters else None,
            "moves_tried": int(counters.group(2)) if counters else None,
        }


class PresentationReduce:
    """Greedy reduction of the fixture's 13-relator presentation: many short
    searches over small relator sets."""

    CONFIG = SearchConfig(beam_width=300, max_moves=40)
    ORDER = 8192

    def setup(self, seed: int, workdir: Path) -> list[tuple[int, ...]]:
        # Canonical relator order for every seed: shuffled orders change the
        # work by more than a third, which no single-job run can average out.
        return distinct_presentation(e5_proof(), EXPONENT)

    def job(self, relators: list[tuple[int, ...]], index: int) -> list[tuple[int, ...]]:
        # Looked up at call time, so that a traced run calls the wrapper.
        search = sys.modules["powerproof.search"]
        return search.reduce_presentation(relators, EXPONENT, self.CONFIG)

    def check(self, relators, index: int, survivors) -> tuple[list[str], dict]:
        problems = []
        if not survivors or not set(survivors) <= set(relators):
            problems.append("survivors are not a non-empty subset of the input relators")
        else:
            order = enumerate_cosets(Presentation(AB, tuple(survivors))).order
            if order != self.ORDER:
                problems.append(f"survivors present a group of order {order}, not {self.ORDER}")
        return problems, {
            "relators_kept": len(survivors),
            "survivors": [word_str(r) for r in survivors],
        }


class CosetOrder:
    """``order`` on two presentations, relator order permuted per job."""

    PERMUTATIONS = 8

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        presentations = {
            8192: distinct_presentation(e5_proof(), EXPONENT),
            4096: [
                power(c.canonical, EXPONENT)
                for n in range(1, 5)
                for c in enumerate_reduced_bracelets(AB, n)
            ],
        }
        rng = random.Random(seed)
        jobs = []
        for j in range(self.PERMUTATIONS):
            job = {}
            for order, relators in presentations.items():
                relators = list(relators)
                if seed != 0:
                    rng.shuffle(relators)
                path = workdir / f"order{order}-{j}.txt"
                path.write_text("".join(word_str(r) + "\n" for r in relators))
                job[order] = (path, relators)
            jobs.append(job)
        return jobs

    def job(self, jobs: list[dict], index: int) -> dict[int, CliRun]:
        return {
            order: run_cli(["order", "--relators", str(path)])
            for order, (path, _) in jobs[index % len(jobs)].items()
        }

    def check(self, jobs: list[dict], index: int, runs: dict[int, CliRun]) -> tuple[list[str], dict]:
        problems = []
        defined = {}
        for order, run in runs.items():
            problems += _cli_problems(run, f"order ({order})")
            if run.out.strip() != str(order):
                problems.append(f"order printed {run.out.strip()!r}, expected {order}")
            found = re.search(r"cosets defined (\d+)", run.err)
            defined[order] = int(found.group(1)) if found else None
        if index == 0:
            problems += [p for order, (_, rels) in jobs[0].items() for p in self.table_problems(rels, order)]
        return problems, {"cosets_defined": [defined[order] for order in sorted(defined, reverse=True)]}

    @staticmethod
    def table_problems(relators: list[tuple[int, ...]], order: int) -> list[str]:
        """A complete table on which every relator fixes every coset."""
        table = enumerate_cosets(Presentation(AB, tuple(relators)))
        if table.order != order:
            return [f"library enumeration gave order {table.order}, expected {order}"]
        if any(not 0 <= d < order for row in table.rows for d in row):
            return [f"coset table of order {order} is not complete"]
        bad = sum(1 for r in relators for c in range(order) if table.trace(c, r) != c)
        return [f"{bad} (relator, coset) pairs are not fixed in order {order}"] if bad else []


class BraceletsVerify:
    """The bracelet listing plus every proof-word subcommand on the fixture."""

    # sha256 of each command's stdout at the commit that added this benchmark.
    EXPECTED = {
        "bracelets": "9a8b20d749b6dd20727bc09f22cb9f0862291bebdefdf9c722c7231d71ffb56f",
        "verify": "e8ee1e92629a0dc729ae06a933a1afd7d4b3b4003b852d6f67a171046e7aaf85",
        "stats": "eb2dbf42df63f2f9c6b903167b912d5c669070955319e492f0ca94daac6b1445",
        "fold": "3ad3b87fca81d2bb29261f1cf7e796e75088576c6ec7b3715fea6097894d87cc",
    }
    CLASSES = 4759

    def setup(self, seed: int, workdir: Path) -> list[list[str]]:
        proof = workdir / "e5_proof.txt"
        proof.write_text(e5_proof_text())
        p = str(proof)
        return [
            ["bracelets", "--len", "10", "--upto"],
            ["verify", "--proof", p, "--engel", "5", "--exponent", "4", "--max-base-len", "5"],
            ["stats", "--proof", p, "--exponent", "4"],
            ["fold", "--proof", p],
        ]

    def job(self, argvs: list[list[str]], index: int) -> list[CliRun]:
        return [run_cli(argv) for argv in argvs]

    def check(self, argvs, index: int, runs: list[CliRun]) -> tuple[list[str], dict]:
        problems = []
        for argv, run in zip(argvs, runs):
            problems += _cli_problems(run, argv[0])
            if sha256(run.out) != self.EXPECTED[argv[0]]:
                problems.append(f"{argv[0]} output differs from the expected output")
        classes = runs[0].out.count("\n")
        if classes != self.CLASSES:
            problems.append(f"bracelets listed {classes} classes, expected {self.CLASSES}")
        return problems, {"classes": classes}


WORKLOADS = {
    "e5_search": E5Search(),
    "presentation_reduce": PresentationReduce(),
    "coset_order": CosetOrder(),
    "bracelets_verify": BraceletsVerify(),
}
