"""Run one schubring CLI request with the benchmark's tracer installed.

    python3 bench/traced_cli.py TRACE_OUT REQUEST_ID -- CLI_ARGS...

The request's stdout and exit code are those of ``python -m schubring.cli
CLI_ARGS``; the span aggregates go to TRACE_OUT as JSON.  ``schubring``
must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    trace_out, request_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_OUT REQUEST_ID -- CLI_ARGS...")
    t0 = time.perf_counter()
    import schubring.cli as cli

    startup_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer(int(request_id))
    absent = tracer.install()
    rc = 1
    try:
        rc = tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        sys.stdout.flush()
        report = tracer.report()
        report["startup_s"] = startup_s
        report["absent"] = absent
        strictify = getattr(sys.modules.get("schubring.gammaring"), "_strictify", None)
        info = getattr(strictify, "cache_info", None)
        report["strictify"] = list(info()[:2]) if info is not None else None
        with open(trace_out, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
