"""Record one point of the benchmark trajectory as ``BENCH_<short-sha>.json``.

Usage, from the root of a simrad checkout:

    python3 scripts/bench_point.py --seeds 701 702 703

Runs ``bench/run.py --trace 0`` once per workload of ``BENCHMARK.json`` and
seed, in that checkout, for the ``run_seconds`` of ``BENCHMARK.json`` and at
``bench/run.py``'s default thread cap (the usable cores), and writes the
median and quartiles of every end-to-end metric (``run_s``, ``setup_s``,
``peak_rss_mib``, ``recon_err``) per workload, with the operation counts, the
machine (usable cores, which is also the thread cap), and the Python, numpy
and scipy versions.  Runs that fail are counted, not summarized.  The short
sha is the checkout's ``HEAD``; the file lands in the checkout's root.  A
checkout with uncommitted edits to tracked files gets ``<short-sha>-dirty``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    nproc = len(os.sched_getaffinity(0))
    names = [m["name"] for m in spec["end_to_end"]]
    sha = subprocess.run(
        ["git", "rev-parse", "--short=7", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", "HEAD"]).returncode != 0:
        sha += "-dirty"

    workloads = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs, failed_runs = [], 0
        for seed in args.seeds:
            cmd = [
                sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed_runs += 1
                print(f"{workload} seed {seed}: run failed ({proc.returncode})", file=sys.stderr)
                continue
            runs.append(json.loads(lines[-1]))
            run_s = runs[-1]["metrics"]["run_s"]["value"]
            print(f"{workload} seed {seed}: run_s={run_s:.3f}", file=sys.stderr)
        workloads[workload] = {
            "runs": len(runs),
            "failed_runs": failed_runs,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                name: {
                    "unit": runs[0]["metrics"][name]["unit"],
                    **_quartiles([r["metrics"][name]["value"] for r in runs]),
                }
                for name in names
            }
            if runs
            else {},
        }

    point = {
        "sha": sha,
        "seeds": args.seeds,
        "seconds": seconds,
        "thread_cap": nproc,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workloads": workloads,
    }
    path = f"BENCH_{sha}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
