"""Per-layer spans around calls into seqwitness's public functions.

The spans are recorded from the benchmark's side: while a ``Tracer`` is
active, each listed function is replaced, in every seqwitness module that
binds it, by a wrapper that times the call.  Classes are timed through
their ``__init__`` (construction plus validation).  A span's self time is
its duration minus the time covered by the spans it caused.

Spans are aggregated in memory per function (calls and self time) rather
than kept one by one: a single resource comparison makes about 640,000
``average_shrink`` calls.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import subprocess
import sys
import time

LAYERS = {
    "qcore": ("DensityMatrix", "eigen_hermitian", "expectation", "tensor"),
    "measurement": ("sqrt_effect", "UnsharpObservable"),
    "sequential": ("average_two_sided", "average_one_sided", "violation_threshold",
                   "greedy_symmetric", "greedy_asymmetric", "classify_pair_count",
                   "run_symmetric_schedule", "average_shrink"),
    "resource": ("maximize_detectability", "solve_matching_parameter", "min_total_rom",
                 "detectability", "build_comparison_tables"),
    "states": ("build",),
    "witness": ("expectation", "modulate", "family_witness"),
    "cli": ("main",),
}
SPANS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
# Spans whose returned ChainReport gives the number of stages examined.
CHAIN_SPANS = ("sequential.greedy_symmetric", "sequential.greedy_asymmetric")


class Tracer:
    """Calls, self time and chain stages, summed over every active period."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.stages = 0
        self._open: list[float] = []  # child time of each open span

    def _wrap(self, name: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter
        count_stages = name in CHAIN_SPANS

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
            if count_stages:
                self.stages += len(result.thresholds)
            return result

        return span

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "seqwitness" or key.startswith("seqwitness.")]
        patched = []
        try:
            for layer, names in LAYERS.items():
                home = importlib.import_module(f"seqwitness.{layer}")
                for attr in names:
                    original = getattr(home, attr)
                    if isinstance(original, type):
                        init = original.__dict__["__init__"]
                        patched.append((original, "__init__", init))
                        original.__init__ = self._wrap(f"{layer}.{attr}", init)
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                patched.append((module, key, value))
                                setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, value in reversed(patched):
                setattr(owner, key, value)


def import_times(python: str, env: dict, repeats: int = 3) -> tuple[float, float]:
    """Median ``import seqwitness`` time in ms under ``-X importtime``:
    (everything the import pulls in, seqwitness's own modules only)."""
    totals, owns = [], []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import seqwitness"],
                              env=env, capture_output=True, text=True, check=True)
        total = own = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "seqwitness":
                total = int(fields[1])
            if name == "seqwitness" or name.startswith("seqwitness."):
                own += int(fields[0])
        totals.append(total / 1e3)
        owns.append(own / 1e3)
    return statistics.median(totals), statistics.median(owns)
