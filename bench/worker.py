"""One pass of the benchmark in a fresh process, like a user's `contsem run`.

    python3 bench/worker.py JOBS.json [--trace] [--outputs]

JOBS.json is a list of `contsem run` argument lists.  The worker imports
`contsem.cli` from `src/` next to this directory and calls `cli.main` once
per job, in order, with stdout and stderr captured.  Nothing is compiled
before the first job, so no state from an earlier compile of the same
discourse can make a call cheaper.

It prints one JSON object: each call's wall time in seconds, the speed
probe's time before the first call and after each call (`speed.py`), a
digest of each call's output (the outputs themselves with `--outputs`),
its own peak resident memory, and with `--trace` the traced functions'
totals and spans.  Exit status 1 when a traced function does not exist.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def invoke(cli, argv: list[str]) -> tuple[float, list]:
    """(wall time, [exit status or None when cli.main raised, stdout, stderr])."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return elapsed, [code, out.getvalue(), err.getvalue()]


def digest(run: list) -> str:
    return hashlib.sha256(json.dumps(run).encode()).hexdigest()


def main(argv: list[str]) -> int:
    jobs = json.loads(Path(argv[0]).read_text())
    import contsem.cli as cli
    tracer = None
    if "--trace" in argv:
        from tracing import TraceError, Tracer
        tracer = Tracer()
        try:
            tracer.install()
        except TraceError as exc:
            print(exc, file=sys.stderr)
            return 1
    times, runs, probes = [], [], [speed.probe()]
    try:
        for job in jobs:
            elapsed, run = invoke(cli, job)
            probes.append(speed.probe())
            times.append(elapsed)
            runs.append(run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"times": times, "probes": probes, "digests": [digest(r) for r in runs],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if "--outputs" in argv:
        result["runs"] = runs
    if tracer is not None:
        result["totals"] = tracer.totals()
        result["spans"] = tracer.records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
