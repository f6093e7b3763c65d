"""Benchmark of seqwitness: observer chains, resource tables and CLI runs.

    python3 perfbench/run.py --workload {chains,tables,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
``src/`` there.  One client runs operations back to back (a closed loop),
in whole rounds of fixed make-up, until ``--seconds`` have passed, and
checks every answer against ``checks.py``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("chains", "tables", "cli")
# Fresh processes whose set-up is timed; setup_s is their median.
SETUP_PROBES = 5
# Rounds replayed by the traced run: a fixed prefix, so call counts repeat.
TRACE_ROUNDS = {"chains": 4, "tables": 1, "cli": 1}
# Failures echoed to stderr.
SHOWN_FAILURES = 5


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def prepare(name: str, seed: int, env: dict):
    """Everything before the first timed operation: import the package,
    make the first round of inputs and warm up."""
    import workloads  # imports seqwitness, so only once src/ is on the path

    bench = workloads.make(name, seed, env)
    first = bench.round(0)
    bench.warm_up()
    return bench, first


def measure_setup(args, env: dict) -> float:
    """Median time, at reference speed, from spawning a fresh process to
    its being ready to time the first operation."""
    gauge = reference.Gauge("spawn", sys.executable, env)
    before = gauge.measure()
    ratios = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--probe",
                                 "--workload", args.workload, "--seed", str(args.seed)],
                                stdout=subprocess.PIPE, env=env, text=True)
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        after = gauge.measure()
        ratios.append(elapsed / ((before + after) / 2.0))
        before = after
    return statistics.median(ratios) * gauge.nominal


class Tally:
    """Operations attempted and failed; a wrong answer also clears ``correct``."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def fail(self, op, exc: Exception, wrong: bool):
        self.failed += 1
        self.wrong += wrong
        if self.failed <= SHOWN_FAILURES:
            print(f"failed: {op}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def attempt(self, call, check, op):
        """Time ``call(op)`` and check its answer; returns (seconds, ok)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # counted, and the run goes on
            self.fail(op, exc, wrong=False)
            return time.perf_counter() - start, False
        elapsed = time.perf_counter() - start
        try:
            check(op, out)
        except checks.CheckError as exc:
            self.fail(op, exc, wrong=True)
            return elapsed, False
        except Exception as exc:
            self.fail(op, exc, wrong=False)
            return elapsed, False
        return elapsed, True


def timed_run(bench, first, seconds: float, setup_s: float, tally: Tally) -> dict:
    """Operations back to back in whole rounds, each followed by the
    reference kernel; an operation's time at reference speed is its wall
    time over the mean of the kernel times on either side of it."""
    gauge = bench.gauge
    ratios, wall = [], []
    busy = 0.0
    ops, r = first, 0
    before = gauge.measure()
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            elapsed, ok = tally.attempt(bench.run, bench.check, op)
            after = gauge.measure()
            ratio = elapsed / ((before + after) / 2.0)
            before = after
            busy += ratio
            if ok:
                ratios.append(ratio)
                wall.append(elapsed)
        r += 1
        if time.perf_counter() >= deadline:
            break
        ops = bench.round(r)
    if not ratios:
        raise RuntimeError("no operation completed; nothing to report")
    if bench.name == "cli":
        peak_kb = bench.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [x * gauge.nominal * 1e3 for x in ratios]
    wall_ms = [x * 1e3 for x in wall]
    print(f"{bench.name}: at reference speed {tail(scaled)}")
    print(f"{bench.name}: wall time {tail(wall_ms)}; reference kernel median "
          f"{statistics.median(gauge.samples) * 1e3:.4g} ms, nominal {gauge.nominal * 1e3:.4g} ms")
    _write(f"run-{bench.name}-{bench.seed}.json",
           {"rounds": r, "op_ms": scaled, "wall_ms": wall_ms,
            "reference_ms": [x * 1e3 for x in gauge.samples]})
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(scaled), "ms"),
        "ops_per_s": (len(ratios) / (busy * gauge.nominal), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def tail(ms: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(ms)
    head = f"{n} operations, median {statistics.median(ms):.4g} ms"
    if n < 40:
        return head
    ordered = sorted(ms)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return f"{head}, p{p:g} {ordered[rank - 1]:.4g} ms ({n - rank} beyond it)"
    return head


def traced_run(bench, seconds: float, env: dict, tally: Tally) -> dict:
    """Alternate untraced and traced passes over a fixed prefix of inputs."""
    ops = [op for r in range(TRACE_ROUNDS[bench.name]) for op in bench.round(r)]
    tracer = tracing.Tracer()
    overheads = []
    deadline = time.perf_counter() + seconds
    while True:
        plain = sum(tally.attempt(bench.replay, bench.check, op)[0] for op in ops)
        with tracer.active():
            traced = sum(tally.attempt(bench.replay, bench.check, op)[0] for op in ops)
        overheads.append((traced - plain) / len(ops))
        if time.perf_counter() >= deadline:
            break
    n = len(overheads) * len(ops)
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls_per_op"] = (tracer.calls[name] / n, "count")
        metrics[f"{name}.self_ms_per_op"] = (tracer.self_s[name] * 1e3 / n, "ms")
    metrics["sequential.stages_per_op"] = (tracer.stages / n, "count")
    metrics["trace.overhead_ms_per_op"] = (statistics.median(overheads) * 1e3, "ms")
    total_ms, own_ms = tracing.import_times(sys.executable, env)
    metrics["import.total_ms"] = (total_ms, "ms")
    metrics["import.seqwitness_own_ms"] = (own_ms, "ms")
    _write(f"trace-{bench.name}-{bench.seed}.json",
           {"passes": len(overheads), "ops_per_pass": len(ops),
            "spans": {k: {"calls": tracer.calls[k], "self_s": tracer.self_s[k]}
                      for k in tracing.SPANS}})
    return metrics


def _write(filename: str, data: dict):
    OUT.mkdir(exist_ok=True)
    (OUT / filename).write_text(json.dumps(data) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "seqwitness" / "__init__.py").is_file():
        print(f"run.py: no seqwitness package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = _env()
    if args.probe:
        prepare(args.workload, args.seed, env)
        print("ready", flush=True)
        return 0

    setup_s = 0.0 if args.trace else measure_setup(args, env)
    bench, first = prepare(args.workload, args.seed, env)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(bench, args.seconds, env, tally)
        else:
            metrics = timed_run(bench, first, args.seconds, setup_s, tally)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
