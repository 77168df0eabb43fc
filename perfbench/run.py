"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload e5_search --seed 0 --seconds 10 --trace 0

Run it from the repository root; it imports powerproof from ``src/``.  The
workload is a closed loop: one caller runs one job at a time, back to back,
until ``--seconds`` have passed (at least one job).  Every job's output is
checked after the loop.  With ``--trace 0`` the metrics are the end-to-end
ones, times in reference-machine seconds (see speed.py).  With ``--trace 1``
untraced and traced jobs alternate, and the metrics are the per-layer ones
plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
object holding the run context, the quality counts and the determinism
fingerprints of every job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import socket
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from time import perf_counter

from speed import SpeedProbe, scale, time_reference
from stats import fail_rate, quartiles
from tracing import Tracer, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"
SETUP_PROBES = 11
# Reference units timed after each set-up probe, for the speed scale of setup_s.
SETUP_REFERENCE_UNITS = 5
PROBE_TIMEOUT_S = 60

# One set-up as a user pays it: a fresh interpreter imports powerproof and
# builds the workload's inputs.
PROBE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), Path(sys.argv[5]))"
)


class SetupError(RuntimeError):
    pass


@dataclass
class Job:
    index: int
    traced: bool
    wall_s: float
    output: object = None
    error: str | None = None


def setup_times(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Raw seconds of each set-up probe, and the reference-unit times taken
    between the probes."""
    times, reference = [], []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        argv = [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload, str(seed), str(probe_dir)]
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up of {workload} failed:\n{proc.stderr.strip()}")
        reference += [time_reference() for _ in range(SETUP_REFERENCE_UNITS)]
    return times, reference


def run_jobs(workload, inputs, seconds: float, probe: SpeedProbe | None = None,
             tracer: Tracer | None = None) -> list[Job]:
    """Closed loop: the next job starts when the previous one has returned.

    A job's time leaves out the reference units the probe ran during it.
    With a tracer, jobs alternate untraced and traced, both jobs of a pair on
    the same input, so that drift in machine speed falls on both alike.
    """
    jobs: list[Job] = []
    start = perf_counter()
    while not jobs or (tracer and len(jobs) % 2) or perf_counter() - start < seconds:
        traced = tracer is not None and len(jobs) % 2 == 1
        index = len(jobs) // 2 if tracer else len(jobs)
        spent = probe.spent if probe else 0.0
        with tracer if traced else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                output, error = workload.job(inputs, index), None
            except Exception:
                output, error = None, traceback.format_exc()
            wall = perf_counter() - t0
        if probe:
            wall -= probe.spent - spent
        jobs.append(Job(index, traced, wall, output, error))
    return jobs


def check_jobs(workload, inputs, jobs: list[Job]) -> list[dict]:
    reports = []
    for job in jobs:
        problems, facts = [job.error] if job.error else [], {}
        if not job.error:
            try:
                problems, facts = workload.check(inputs, job.index, job.output)
            except Exception:
                problems = [traceback.format_exc()]
        for problem in problems:
            print(f"job {job.index} failed: {problem}", file=sys.stderr)
        reports.append({"index": job.index, "traced": job.traced, "raw_wall_s": job.wall_s,
                        "ok": not problems, **facts})
    return reports


def source_digest() -> str:
    """sha256 over the package's source files, for checkouts without git."""
    digest = hashlib.sha256()
    package = SRC / "powerproof"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(args, spec: dict, workdir: Path) -> tuple[dict, dict]:
    if not args.trace:  # setup_s is an end-to-end metric only
        probes, probe_reference = setup_times(args.workload, args.seed, workdir)
    sys.path.insert(0, str(SRC))
    import powerproof
    import workloads

    package = Path(powerproof.__file__).resolve().parent
    if package != SRC / "powerproof":
        raise SetupError(f"powerproof was imported from {package}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, workdir)
    context = run_context(args)

    if args.trace:
        tracer = Tracer()
        jobs = run_jobs(workload, inputs, args.seconds, tracer=tracer)
        traced = [j.wall_s for j in jobs if j.traced]
        untraced = [j.wall_s for j in jobs if not j.traced]
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace_overhead"] = median(traced) / median(untraced) - 1
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}.tsv.gz"
        write_spans(spans_file, tracer.spans)
        context.update(samples={"untraced": len(untraced), "traced": len(traced)},
                       trace_overhead=metrics["trace_overhead"], spans=len(tracer.spans),
                       spans_file=str(spans_file.relative_to(ROOT)))
    else:
        with SpeedProbe() as probe:
            jobs = run_jobs(workload, inputs, args.seconds, probe=probe)
        rss = peak_rss_mb()
        walls = [j.wall_s for j in jobs]
        job_scale, setup_scale = probe.scale(), scale(probe_reference)
        metrics = {
            "wall_s": mean(walls) * job_scale,
            "setup_s": mean(probes) * setup_scale,
            "peak_rss_mb": rss,
        }
        context.update(
            samples={"jobs": len(jobs), "setup": len(probes),
                     "reference": len(probe.samples), "setup_reference": len(probe_reference)},
            raw_wall_s_quartiles=quartiles(walls),
            raw_setup_s=probes,
            reference_unit_s={"jobs": mean(probe.samples), "setup": mean(probe_reference)},
            speed_scale={"jobs": job_scale, "setup": setup_scale},
        )

    reports = check_jobs(workload, inputs, jobs)
    failed = sum(1 for r in reports if not r["ok"])
    context.update(fail_rate=fail_rate(len(reports), failed), jobs=reports)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        context, result = measure(args, spec, workdir)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
