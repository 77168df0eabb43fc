"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from stats import fail_rate, quartiles, spread  # noqa: E402
from tracing import Spans, Tracer, layer_metrics, self_times  # noqa: E402


def test_quartiles_and_spread_match_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 10.0, 6.0, 5.0, 7.0, 9.0, 8.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = quartiles(values)
    assert q1 == 2.75 and q2 == 5.5 and q3 == 8.25
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_single_value_is_its_own_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread([3.0]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = Spans.from_rows([
        ("cli.main", -1, 0.0, 10.0),
        ("search.search", 0, 1.0, 7.0),
        ("words.concat_reduce", 1, 2.0, 3.0),
        ("words.concat_reduce", 1, 4.0, 6.5),
        ("proofwords.stats", 0, 8.0, 9.0),
        ("cli.main", -1, 11.0, 12.0),
    ])
    assert list(self_times(spans)) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0, 1.0])
    metrics = layer_metrics(spans, jobs=2)
    assert metrics["cli.main_s"] == pytest.approx(11.0 / 2)
    assert metrics["cli.self_s"] == pytest.approx(4.0 / 2)
    assert metrics["search.self_s"] == pytest.approx(2.5 / 2)
    assert metrics["words.concat_reduce_calls"] == 1.0
    assert metrics["words.concat_reduce_s"] == pytest.approx(3.5 / 2)


def test_derived_identities():
    spans = Spans.from_rows(
        [
            ("search.reduce_presentation", -1, 0.0, 10.0),
            ("search.search", 0, 0.0, 4.0),
            ("words.concat_reduce", 1, 1.0, 1.5),
            ("search.search", 0, 5.0, 9.0),
            ("words.concat_reduce", 3, 6.0, 6.5),
            ("words.concat_reduce", 3, 7.0, 7.5),
            ("cosets.enumerate_cosets", -1, 20.0, 21.0),
            ("cosets.enumerate_cosets", -1, 22.0, 24.0),
        ],
        facts={
            1: {"states": 10, "moves": 40, "found": 1, "members": 58},
            3: {"states": 30, "moves": 200, "found": 0, "members": 86},
            6: {"defined": 25078, "order": 8192},
            7: {"defined": 11851, "order": 4096},
        },
    )
    m = layer_metrics(spans, jobs=1)
    assert m["cosets.cosets_defined"] == 25078 + 11851
    assert m["cosets.coincidences"] == m["cosets.cosets_defined"] - (8192 + 4096)
    assert m["cosets.useful_ratio"] == pytest.approx((8192 + 4096) / (25078 + 11851))
    assert m["cosets.defined_per_s"] == pytest.approx((25078 + 11851) / 3.0)
    assert m["search.relator_members"] == pytest.approx((10 * 58 + 30 * 86) / 40)
    assert m["search.append_pass_ratio"] == pytest.approx(
        m["words.concat_reduce_calls"] / (m["search.states_visited"] * m["search.relator_members"])
    )
    assert m["search.found"] == 1 and m["search.calls"] == 2
    assert m["search.states_per_move"] == pytest.approx(40 / 240)
    assert m["search.states_per_s"] == pytest.approx(40 / 8.0)


class _FakeWorkload:
    """Jobs 1 and 3 fail: one raises, one produces output its check rejects."""

    def job(self, inputs, index):
        if index == 1:
            raise RuntimeError("boom")
        return index

    def check(self, inputs, index, output):
        return (["wrong output"] if output == 3 else []), {"value": output}


def test_fail_rate_counts_raised_and_rejected_jobs():
    jobs = [run.Job(i, False, 0.1) for i in range(5)]
    workload = _FakeWorkload()
    for job in jobs:
        try:
            job.output = workload.job(None, job.index)
        except RuntimeError as exc:
            job.error = str(exc)
    reports = run.check_jobs(workload, None, jobs)
    failed = sum(1 for r in reports if not r["ok"])
    assert failed == 2
    assert fail_rate(len(reports), failed) == 0.4
    assert fail_rate(3, 0) == 0.0
    with pytest.raises(ValueError):
        fail_rate(0, 0)
    with pytest.raises(ValueError):
        fail_rate(2, 3)


def test_closed_loop_runs_at_least_one_job():
    jobs = run.run_jobs(_FakeWorkload(), None, seconds=0)
    assert len(jobs) == 1 and jobs[0].output == 0


def test_traced_loop_alternates_pairs_on_the_same_input():
    jobs = run.run_jobs(_FakeWorkload(), None, seconds=0.01, tracer=Tracer())
    assert len(jobs) >= 2 and len(jobs) % 2 == 0
    assert [j.traced for j in jobs[:4]] == [False, True, False, True][: len(jobs[:4])]
    assert all(jobs[k].index == jobs[k + 1].index == k // 2 for k in range(0, len(jobs), 2))


def test_tracer_wraps_where_callers_bind_and_restores():
    from powerproof import cli

    original = cli.enumerate_reduced_bracelets
    with Tracer() as tracer:
        assert cli.enumerate_reduced_bracelets is not original
        assert cli.main(["bracelets", "--len", "4", "--count"]) == 0
    assert cli.enumerate_reduced_bracelets is original
    spans = tracer.spans
    names = [spans.names[k] for k in spans.name]
    assert names[0] == "cli.main" and spans.parent[0] == -1
    enum = [i for i, n in enumerate(names) if n == "bracelets.enumerate_reduced_bracelets"]
    assert len(enum) == 1 and spans.parent[enum[0]] == 0
    m = layer_metrics(spans, jobs=1)
    assert m["bracelets.classes"] == spans.facts[enum[0]]["classes"]
    assert m["bracelets.canon_calls"] >= m["bracelets.classes"] > 0


def test_tracer_records_library_entry_workload_as_root():
    import workloads
    from powerproof import parse_word, power

    relators = [power(parse_word(w), 4) for w in ("a", "b", "ab")]
    with Tracer() as tracer:
        workloads.PresentationReduce().job(relators, 0)
    spans = tracer.spans
    names = [spans.names[k] for k in spans.name]
    assert names[0] == "search.reduce_presentation" and spans.parent[0] == -1
    assert [i for i, p in enumerate(spans.parent) if p == -1] == [0]
    searches = [i for i, n in enumerate(names) if n == "search.search"]
    assert len(searches) == len(relators) and all(spans.parent[i] == 0 for i in searches)
    m = layer_metrics(spans, jobs=1)
    assert m["search.self_s"] > sum(self_times(spans)[i] for i in searches)


def test_speed_probe_scales_by_the_mean_reference_time():
    assert speed.scale([0.010, 0.030]) == pytest.approx(0.5)
    with speed.SpeedProbe() as probe:
        pass
    assert len(probe.samples) == 1 and probe.spent == 0.0
    assert probe.scale() > 0
