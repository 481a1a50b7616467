"""Spans around simrad's public functions, recorded from outside the package.

``instrument`` replaces every public function of the traced modules with a
wrapper, in every ``simrad`` module namespace that refers to it, so calls
between modules are seen too.  A :class:`Recorder` keeps either timed spans
(name, start, end, parent span and run id, on the monotonic clock that all
processes of the machine share) or, in memory mode, the tracemalloc peak of
each call above the memory in use when it began.  Nothing is traced unless a
recorder is installed; ``restore`` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from types import FunctionType

TRACED_MODULES = ("grid", "xform", "filters", "invert", "verify", "io", "cli")

MIB = float(1 << 20)


def _direct_fourier_variant(args, kwargs) -> str:
    return "plane" if type(args[0]).__name__ == "PlaneSinogram" else "line"


# Spans whose name carries the kind of data they were called on.
VARIANTS = {"invert.invert_direct_fourier": _direct_fourier_variant}


class Recorder:
    """Spans of one run (``memory=False``) or per-name call peaks (``memory=True``)."""

    def __init__(self, run_id: str, memory: bool = False) -> None:
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self.peaks: dict[str, float] = defaultdict(float)
        self._open: list = []

    def begin(self, name: str):
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)
            tracemalloc.reset_peak()
            self._open.append([name, current, current])
            return None
        span = {
            "id": len(self.spans) + 1,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self) -> None:
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            name, entry, seen = self._open.pop()
            top = max(seen, peak)
            self.peaks[name] = max(self.peaks[name], (top - entry) / MIB)
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], top)
            return
        self._open.pop()["end"] = time.monotonic()

    def current(self) -> dict:
        """The innermost open span."""
        return self._open[-1]

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Append spans recorded by a child process under ``parent``."""
        base = len(self.spans)
        for span in spans:
            self.spans.append(
                dict(
                    span,
                    id=span["id"] + base,
                    parent=parent["id"] if span["parent"] is None else span["parent"] + base,
                    run=self.run_id,
                )
            )


def _wrap(fn, name: str, recorder: Recorder):
    variant = VARIANTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.begin(f"{name}.{variant(args, kwargs)}" if variant else name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end()

    return traced


def instrument(recorder: Recorder):
    """Route the traced modules' public functions through ``recorder``; returns ``restore``."""
    wrappers = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"simrad.{short}"]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(value, FunctionType)
                and value.__module__ == module.__name__
            ):
                wrappers[id(value)] = _wrap(value, f"{short}.{attr}", recorder)
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "simrad" and not mod_name.startswith("simrad."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - child_time[span["id"]]
    return out


def covered_seconds(spans: list[dict], roots: str = "op.") -> float:
    """Seconds inside root spans (named ``roots*``) that their child spans cover."""
    root_ids = {s["id"] for s in spans if s["name"].startswith(roots)}
    return sum(s["end"] - s["start"] for s in spans if s["parent"] in root_ids)
