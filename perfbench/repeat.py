"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --workload e5_search coset_order --seeds 1 2 3 4 5

Every run is untraced and lasts the run_seconds of BENCHMARK.json.  Runs
are sequential, one fresh process each, so they do not compete for the
cores.  The spread is the distance between the first and third quartile of
a metric's values as a share of their median; a run set is steady when every
end-to-end spread, setup_s aside, stays under a third of the metric's bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The context and result lines of an untraced run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    context, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(context)["context"], json.loads(result)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload:
        results, raw, reference = [], [], []
        for seed in args.seeds:
            context, result = run_once(workload, seed, spec["run_seconds"])
            print(json.dumps({"workload": workload, "seed": seed, **result}), flush=True)
            results.append(result)
            raw.append(context["raw_wall_s_quartiles"][1])
            units = context["reference_unit_s"]
            reference.append(units["jobs"] / units["setup"])
        bad = sum(r["failed"] for r in results)
        print(f"# {workload}: {len(results)} runs, {bad} failed jobs,"
              f" all correct: {all(r['correct'] for r in results)}")
        for name, entry in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            mid = median(values)
            s = spread(values) if mid else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                ok = name == "setup_s" or s < bound / 3
                steady &= ok
                note = f"  bound {bound}  {'ok' if ok else 'NOT STEADY'}"
            print(f"#   {name:32s} median {mid:.6g} {entry['unit']:6s} spread {s:.4f}{note}")
        print(f"#   {'(unscaled median job time)':32s} median {median(raw):.6g} s      spread {spread(raw):.4f}")
        print(f"#   {'(reference unit, jobs / setup)':32s} median {median(reference):.6g}        spread {spread(reference):.4f}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
