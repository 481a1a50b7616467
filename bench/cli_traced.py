"""Run one simrad subcommand with the public functions of its modules traced.

Usage: python3 bench/cli_traced.py SPANS_OUT SUBCOMMAND [FLAGS...]

Writes the spans as a JSON list to SPANS_OUT and exits with the command's
exit code.  The numerical modules are imported before the command runs, so
that the tracer can wrap them; the thread cap comes from the environment.
"""

from __future__ import annotations

import json
import sys

import simrad.cli
import simrad.filters  # noqa: F401
import simrad.grid  # noqa: F401
import simrad.invert  # noqa: F401
import simrad.io  # noqa: F401
import simrad.verify  # noqa: F401
import simrad.xform  # noqa: F401
import tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder(run_id="child")
    restore = tracer.instrument(recorder)
    try:
        return simrad.cli.main(argv)
    finally:
        restore()
        with open(spans_out, "w", encoding="ascii") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
