"""simrad benchmark: one workload, end-to-end or per-layer metrics, as JSON.

Usage, from the root of a simrad checkout:

    python3 bench/run.py --workload recon --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): ``recon``, ``wavelet``, ``verify``, ``cli``.
The workload runs in a child process (``worker.py``) with the BLAS/OpenMP
pools capped at the number of usable cores (or ``--threads``) and ``src`` on
the module path.  ``setup_s`` is the median over that process and
``SETUP_PROBES`` more that only build the inputs, each timed from the moment
it is started until its inputs exist.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 1`` gives the per-layer metrics instead of the end-to-end ones.
Scratch files live under ``.bench_out/`` in the checkout and are removed at
the end; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
# Every child must end before this many seconds have passed since start.
DEADLINE_S = 172.0
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def _run_child(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run ``cmd`` to its end; return its start time and its last JSON line."""
    started = time.monotonic()
    timeout = max(deadline - started, 1.0)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{cmd[2:4]} did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited {proc.returncode}")
    return started, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, default=None, help="thread cap (default: usable cores)")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "simrad", "__init__.py")):
        print("bench: no src/simrad here; run from the root of a simrad checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    env = dict(os.environ)
    threads = args.threads or len(os.sched_getaffinity(0))
    env.update({var: str(threads) for var in THREAD_ENV_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), BENCH_DIR, env.get("PYTHONPATH")) if p
    )
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    base = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir,
    ]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                started, probe = _run_child(base + ["--setup-only"], env, deadline)
                setups.append(probe["setup_end"] - started)
        started, result = _run_child(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--per-layer", ",".join(m["name"] for m in spec["per_layer"])],
            env,
            deadline,
        )
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["metrics"]
    if not args.trace:
        setups.append(result["setup_end"] - started)
        values["setup_s"] = statistics.median(setups)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
