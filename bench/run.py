"""contsem benchmark: compile seeded discourses through `contsem.cli.main`.

    python3 bench/run.py --workload short-mixed|long-ac|branching-b|all
                         --seed N --seconds S --trace 0|1

Run from the repository root, or anywhere: the program is run from `src/`
next to this directory.  One client compiles whole passes over the
workload's corpus, one call after another (a closed loop), until
`--seconds` have passed.  A pass runs each call in a fresh worker process
(`worker.py`), one process per flag variant, so no call can reuse work
from an earlier compile of the same discourse.  Every output of the first
pass is checked by `reference.py`; later passes must print the same bytes.
Every time is a wall time scaled to a reference machine speed by a probe
timed next to it (`speed.py`).

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics;
`--trace 1` traces every second pass and reports the per-layer metrics.  See README.md for every metric.

Exit status 0 on a completed run, 1 when a traced function is missing or
a traced layer recorded no span, 2 when the program or the inputs cannot
be found or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import corpus
import speed
from reference import Run, check_discourse, check_sample
from tracing import TARGETS, TraceError, check_layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLES = ROOT / "samples"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
WORKER_TIMEOUT = 150

SETUP_RUNS = 9
# The probes and the import of `speed` are timed too, so that they can be
# taken out of the interpreter's wall time.
SETUP_CODE = (
    "import time\n"
    "a = time.perf_counter()\n"
    "import sys\n"
    f"sys.path.append({str(BENCH)!r})\n"
    "import speed\n"
    "p0 = speed.probe()\n"
    "t0 = time.perf_counter()\n"
    "import contsem.cli\n"
    "t1 = time.perf_counter()\n"
    "contsem.cli.default_lexicon()\n"
    "t2 = time.perf_counter()\n"
    "p1 = speed.probe()\n"
    "print(t0 - a + time.perf_counter() - t2, t1 - t0, t2 - t1, p0, p1)\n"
)

END_TO_END_UNITS = {"sentences_per_s": "1/s", "discourse_ms.p50": "ms",
                    "simplified_nodes": "nodes", "peak_rss_mb": "MB",
                    "setup_s": "s"}
P90_MIN_SAMPLES = 100


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",),
                   help="`all` runs each workload in a fresh process, in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def setup_sample(env: dict) -> tuple[float, float, float]:
    """Time (s) of one fresh interpreter importing `contsem.cli` and
    building the default lexicon, and the import and lexicon parts of it
    (ms) as that interpreter measured them, all scaled by the probes that
    interpreter ran before and after them."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
    extra, imp, lex, p0, p1 = (float(x) for x in proc.stdout.split())
    return tuple(speed.scale(t, p0, p1) for t in (wall - extra, imp * 1000, lex * 1000))


@dataclass
class Passes:
    times: list[list[float]] = field(default_factory=list)  # per pass, per call (s, scaled)
    walls: list[list[float]] = field(default_factory=list)  # the same, unscaled
    traced: list[bool] = field(default_factory=list)        # per pass
    first: list[Run] = field(default_factory=list)  # the outputs of the first pass
    digests: list[str] = field(default_factory=list)
    changed: set[int] = field(default_factory=set)  # calls whose output differed later
    peak_rss_mb: float = 0.0                        # largest untraced worker's
    totals: dict[str, float] = field(default_factory=dict)  # traced passes, summed
    spans: list[dict] = field(default_factory=list)
    setups: list[tuple[float, float, float]] = field(default_factory=list)  # s, ms, ms

    def setup(self) -> tuple[float, float, float]:
        """Median set-up time (s), and import and lexicon times (ms)."""
        return tuple(statistics.median(column) for column in zip(*self.setups))

    def of(self, traced: bool) -> list[list[float]]:
        return [t for t, tr in zip(self.times, self.traced) if tr == traced]


def _worker(spec: Path, traced: bool, outputs: bool) -> dict:
    argv = [sys.executable, str(WORKER), str(spec)]
    argv += ["--trace"] * traced + ["--outputs"] * outputs
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode == 1 and traced:
        raise TraceError(proc.stderr.strip())
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def run_passes(jobs, specs: list[tuple[Path, list[int]]], seconds: float,
               trace: bool) -> Passes:
    """Whole passes until `seconds` have passed; at least one, and with
    `trace` at least two, every second pass traced.  A pass runs one fresh
    worker process per spec, so every call is a discourse's first compile
    in its process.  Outputs of later passes are compared with the first
    by digest.

    A set-up sample follows each pass, and more follow the last until
    there are SETUP_RUNS, so the samples spread over the run's phases.
    One unmeasured set-up comes first, so byte-compiled modules exist as
    they do for a user."""
    result = Passes()
    env = _setup_env()
    setup_sample(env)
    start = time.perf_counter()
    while (len(result.times) < 1 + trace
           or time.perf_counter() - start < seconds):
        traced = trace and len(result.times) % 2 == 1
        times, walls = [0.0] * len(jobs), [0.0] * len(jobs)
        runs: list[Optional[Run]] = [None] * len(jobs)
        digests = [""] * len(jobs)
        for spec, indices in specs:
            res = _worker(spec, traced, outputs=not result.times)
            probes = res["probes"]
            for n, i in enumerate(indices):
                walls[i] = res["times"][n]
                times[i] = speed.scale(walls[i], probes[n], probes[n + 1])
                digests[i] = res["digests"][n]
                if "runs" in res:
                    runs[i] = Run(*res["runs"][n])
            if traced:
                for key, value in res["totals"].items():
                    result.totals[key] = result.totals.get(key, 0) + value
                result.spans += [{**span, "pass": len(result.times)}
                                 for span in res["spans"]]
            else:
                result.peak_rss_mb = max(result.peak_rss_mb, res["peak_rss_mb"])
        if not result.times:
            result.first, result.digests = runs, digests
        else:
            result.changed.update(i for i, d in enumerate(digests)
                                  if d != result.digests[i])
        result.times.append(times)
        result.walls.append(walls)
        result.traced.append(traced)
        result.setups.append(setup_sample(env))
    while len(result.setups) < SETUP_RUNS:
        result.setups.append(setup_sample(env))
    return result


def check(jobs, passes: Passes) -> tuple[bool, int, int, int, list[str]]:
    """(correct, attempted, failed, simplified nodes per pass, report lines).

    `correct` holds when every failure fits the signature of ROADMAP
    item 4's defect; those still count in `failed`."""
    by_item: dict[int, list[int]] = {}
    for i, (call, _) in enumerate(jobs):
        by_item.setdefault(id(call.item), []).append(i)
    failed_calls: set[int] = set()
    correct, nodes, report = True, 0, []
    for indices in by_item.values():
        item = jobs[indices[0]][0].item
        runs = {jobs[i][0].flags: passes.first[i] for i in indices}
        if isinstance(item, corpus.Sample):
            verdict = check_sample(item, runs)
        else:
            verdict = check_discourse(item, runs)
        nodes += verdict.simplified_nodes
        if not verdict.ok:
            failed_calls.update(indices)
            correct = correct and verdict.known_defect
            label = "known B defect" if verdict.known_defect else "UNEXPECTED"
            report.append(f"  {label}: {item.name}: {'; '.join(verdict.problems)}")
    for i in sorted(passes.changed):
        correct = False
        report.append(f"  UNEXPECTED: {jobs[i][1]} printed different output in a later pass")
    # A call whose output changed fails in every pass, like a failed check.
    n_passes = len(passes.times)
    failed = len(failed_calls | passes.changed) * n_passes
    return correct, len(jobs) * n_passes, failed, nodes, report


def typical(times: list[list[float]]) -> list[float]:
    """Each call's median time over the passes.  Scaling by the probe takes
    out most of the machine's slow and fast phases; the median then drops
    the passes where it took out too much or too little."""
    return [statistics.median(column) for column in zip(*times)]


def end_to_end(jobs, times: list[list[float]]) -> dict[str, float]:
    """Sentences per second over a pass of typical calls, and their median."""
    calls = typical(times)
    sentences = sum(call.sentences for call, _ in jobs)
    return {"sentences_per_s": sentences / sum(calls),
            "discourse_ms.p50": statistics.median(calls) * 1000}


def _write_jobs(workload: str, seed: int, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    jobs = []
    for call in corpus.calls(workload, seed, SAMPLES):
        if isinstance(call.item, corpus.Sample):
            path = call.item.path
        else:
            path = work / f"{call.item.name}.dsc"
            path.write_text(call.item.dsc())
        jobs.append((call, ["run", str(path), *call.flags]))
    return jobs


def _write_specs(jobs, work: Path) -> list[tuple[Path, list[int]]]:
    """One worker per flag variant: the k-th call of every discourse goes
    to worker k, so no worker compiles a discourse twice."""
    seen: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for i, (call, _) in enumerate(jobs):
        k = seen[id(call.item)] = seen.get(id(call.item), -1) + 1
        groups.setdefault(k, []).append(i)
    specs = []
    for k, indices in sorted(groups.items()):
        spec = work / f"jobs{k}.json"
        spec.write_text(json.dumps([jobs[i][1] for i in indices]))
        specs.append((spec, indices))
    return specs


def run_all(args) -> int:
    status = 0
    for workload in corpus.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    jobs_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not (SRC / "contsem" / "cli.py").is_file():
            raise FileNotFoundError(f"no contsem sources under {SRC}")
        jobs = _write_jobs(args.workload, args.seed, jobs_dir)
        specs = _write_specs(jobs, jobs_dir)
        passes = run_passes(jobs, specs, args.seconds, bool(args.trace))
        setup_s, import_ms, lexicon_ms = passes.setup()
        if args.trace:
            check_layers(passes.totals)
    except TraceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(jobs_dir, ignore_errors=True)

    correct, attempted, failed, nodes, report = check(jobs, passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} calls per pass, "
          f"{len(passes.times)} passes, {attempted} calls, {failed} failed "
          f"(error_rate {failed / attempted:.4f} ratio)")
    for line in report[:20]:
        print(line)

    if args.trace:
        with open(WORK / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in passes.spans)
        metrics = per_layer(jobs, passes, import_ms, lexicon_ms)
    else:
        e2e = end_to_end(jobs, passes.times)
        e2e.update({"simplified_nodes": nodes, "peak_rss_mb": passes.peak_rss_mb,
                    "setup_s": setup_s})
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        if len(jobs) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(typical(passes.times), n=10)[-1] * 1000
            print(f"  discourse_ms.p90 {p90:.3f} ms over {len(jobs)} calls")
        wall = end_to_end(jobs, passes.walls)
        print(f"  unscaled wall time: sentences_per_s {wall['sentences_per_s']:.6g} 1/s, "
              f"discourse_ms.p50 {wall['discourse_ms.p50']:.6g} ms")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer(jobs, passes: Passes, import_ms, lexicon_ms) -> dict:
    n_traced = len(passes.of(True))
    layer = {k: v / n_traced for k, v in passes.totals.items()}
    out_bytes = sum(len(run.out) for run in passes.first)
    untraced_rate = end_to_end(jobs, passes.of(False))["sentences_per_s"]
    traced_rate = end_to_end(jobs, passes.of(True))["sentences_per_s"]
    simplify_in = layer.get("logic.simplify.in_nodes", 0)
    values = {
        "terms.normalize.ms": (layer["terms.normalize.self_ms"], "ms"),
        "terms.normalize.in_nodes": (layer.get("terms.normalize.in_nodes", 0), "nodes"),
        "terms.normalize.out_nodes": (layer.get("terms.normalize.out_nodes", 0), "nodes"),
        "logic.simplify.ms": (layer["logic.simplify.self_ms"], "ms"),
        "logic.simplify.shrink": (
            layer.get("logic.simplify.out_nodes", 0) / simplify_in if simplify_in else 1.0,
            "ratio"),
        "logic.reify.ms": (layer["logic.reify.self_ms"], "ms"),
        "logic.reify.out_nodes": (layer.get("logic.reify.out_nodes", 0), "nodes"),
        "logic.reify.sites": (layer.get("logic.reify.sites", 0), "count"),
        "discourse.parse_discourse.ms": (layer["discourse.parse_discourse.self_ms"], "ms"),
        "discourse.compose.ms": (layer["discourse.compose.self_ms"], "ms"),
        "discourse.compose.out_nodes": (layer.get("discourse.compose.out_nodes", 0), "nodes"),
        "terms.typecheck.ms": (layer["terms.typecheck.self_ms"], "ms"),
        "syntax.pretty.ms": (layer["syntax.pretty.self_ms"], "ms"),
        "logic.formula_text.ms": (layer["logic.formula_text.self_ms"], "ms"),
        "logic.formula_json.ms": (layer["logic.formula_json.self_ms"], "ms"),
        "cli.main.self_ms": (layer["cli.main.self_ms"], "ms"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "resolver.report.ms": (layer["resolver.report.self_ms"], "ms"),
        "resolver.report.sites": (layer.get("resolver.report.sites", 0), "count"),
        "resolver.report.candidates": (layer.get("resolver.report.candidates", 0), "count"),
        "resolver.resolve.ms": (layer["resolver.resolve.self_ms"], "ms"),
        "setup.import_ms": (import_ms, "ms"),
        "setup.lexicon_ms": (lexicon_ms, "ms"),
    }
    for name in TARGETS:
        values[f"{name}.calls"] = (layer[f"{name}.calls"], "count")
        values[f"{name}.errors"] = (layer[f"{name}.errors"], "count")
    values["trace.overhead"] = (untraced_rate / traced_rate, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
