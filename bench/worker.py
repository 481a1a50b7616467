"""One workload in one process: set-up, reference values, timed rounds.

Started by ``run.py``, which caps the thread pools and puts ``src`` on the
path.  Prints one JSON object as its last line of standard output:
``setup_end`` (the monotonic clock when the inputs were built), ``correct``,
``attempted``, ``failed`` and ``metrics`` (bare numbers; ``run.py`` adds the
units).

With ``--trace 0`` it runs whole rounds until ``--seconds`` have passed (at
least the workload's ``min_rounds``) and reports the end-to-end metrics that
this process measures.  With ``--trace 1`` it runs one round in each of three
passes: untraced (top-level call times), traced (spans, self times, call
counts) and, except for ``cli``, under tracemalloc (per-call peaks).  It then
writes the spans to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict

import scipy  # noqa: F401  (set-up covers the scipy import)

import simrad.cli  # noqa: F401  (traced module)
import tracer
import workloads


class Bench:
    """Counts operations, times program calls and records what checks found."""

    def __init__(self, recorder: tracer.Recorder | None = None) -> None:
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.faults: dict[str, str] = {}
        self.times: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.run_s = 0.0

    def op(self, name: str, fn) -> None:
        self.attempted += 1
        spans = self.recorder is not None and not self.recorder.memory
        if spans:
            self.recorder.begin("op." + name)
        try:
            ok = fn(self.call)
        except Exception as exc:  # a failed operation is counted; the run goes on
            self.failed += 1
            self.faults.setdefault(name, "".join(traceback.format_exception_only(exc)).strip())
            return
        finally:
            if spans:
                self.recorder.end()
        if not ok:
            self.wrong.append(name)

    def call(self, layer: str, fn, *args):
        memory = self.recorder is not None and self.recorder.memory
        if memory:
            self.recorder.begin(layer)
        start = time.monotonic()
        try:
            return fn(*args)
        finally:
            elapsed = time.monotonic() - start
            if memory:
                self.recorder.end()
            self.times[layer] += elapsed
            self.run_s += elapsed


def _rounds(workload, bench: Bench, seconds: float) -> list[float]:
    start = time.monotonic()
    per_round = []
    while len(per_round) < workload.min_rounds or time.monotonic() - start < seconds:
        before = bench.run_s
        workload.round(bench)
        per_round.append(bench.run_s - before)
    return per_round


def _peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.Cli) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _layer_value(name: str, plain: Bench, summary: dict, peaks: dict) -> float:
    """A per-layer metric ``<layer>.<quantity>``; 0 when the workload never calls the layer."""
    if name in plain.values:
        return plain.values[name]
    base, quantity = name.rsplit(".", 1)
    if quantity == "s" and base in plain.times:
        return plain.times[base]
    rows = [row for key, row in summary.items() if key == base or key.startswith(base + ".")]
    if quantity in ("s", "self_s", "calls"):
        return sum(row[quantity] for row in rows)
    if quantity == "peak_mib":
        return max([v for key, v in peaks.items() if key == base or key.startswith(base + ".")], default=0.0)
    if quantity in ("iterations", "err", "runtime_ms"):
        return 0.0
    raise KeyError(f"no measurement for per-layer metric {name!r}")


def trace_run(workload, names: list[str], run_id: str, out_dir: str, env: dict) -> tuple[list[Bench], dict]:
    plain = Bench()
    workload.round(plain)

    recorder = tracer.Recorder(run_id)
    traced = Bench(recorder)
    if isinstance(workload, workloads.Cli):
        spans_path = os.path.join(workload.workdir, "child-spans.json")
        workload.child = workloads.CliChild(env, recorder, spans_path)
    restore = tracer.instrument(recorder)
    try:
        workload.round(traced)
    finally:
        restore()
    benches = [plain, traced]

    peaks: dict[str, float] = {}
    if workload.memory_pass:
        mem = tracer.Recorder(run_id, memory=True)
        measured = Bench(mem)
        tracemalloc.start()
        restore = tracer.instrument(mem)
        try:
            workload.round(measured)
        finally:
            restore()
            tracemalloc.stop()
        peaks = mem.peaks
        benches.append(measured)

    with open(os.path.join(out_dir, f"trace-{run_id}.json"), "w", encoding="ascii") as fh:
        json.dump({"run": run_id, "spans": recorder.spans}, fh)

    plain.values["trace.overhead_s"] = traced.run_s - plain.run_s
    plain.values["trace.uncovered_share"] = 1.0 - tracer.covered_seconds(recorder.spans) / traced.run_s
    if isinstance(workload, workloads.Cli):
        plain.values["cli.overhead.s"] = sum(
            plain.times["cli." + name] - plain.values["cli." + name + ".runtime_ms"] / 1e3
            for name, *_ in workload.commands
        )
        plain.values["cli.import.s"] = workloads.import_seconds(env)
    summary = tracer.summarize(recorder.spans)
    return benches, {name: _layer_value(name, plain, summary, peaks) for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    workload.prepare()
    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}"
        out_dir = os.path.dirname(args.workdir)
        benches, metrics = trace_run(workload, args.per_layer.split(","), run_id, out_dir, dict(os.environ))
    else:
        bench = Bench()
        per_round = _rounds(workload, bench, args.seconds)
        benches = [bench]
        metrics = {
            "run_s": statistics.median(per_round),
            "peak_rss_mib": _peak_rss_mib(workload),
            "recon_err": workload.recon_err,
        }
    for bench in benches:
        for name, fault in bench.faults.items():
            print(f"failed operation {name}: {fault}", file=sys.stderr)
        for name in bench.wrong:
            print(f"wrong output from {name}", file=sys.stderr)
    print(
        json.dumps(
            {
                "setup_end": setup_end,
                "correct": not any(b.wrong for b in benches),
                "attempted": sum(b.attempted for b in benches),
                "failed": sum(b.failed for b in benches),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
