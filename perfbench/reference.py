"""Reference kernels that gauge the machine's current speed.

The reference machine (see README.md) alternates between speed phases:
the same call takes about twice as long in a slow phase as in a fast one,
and a phase lasts from under a second to minutes, so the raw medians of
30-second runs of identical code differ by up to a third.  Each workload
therefore times a small reference kernel next to every operation (and
every set-up probe) and reports times at a fixed machine speed:

    reported = measured / reference measured alongside * NOMINAL

The kernels mimic the instruction mix of the work they gauge but share
no code with seqwitness, so a change to the program moves the reported
figures and a change of machine phase does not.  ``NOMINAL`` holds each
kernel's fast-phase time on the reference machine (see README.md).
"""

from __future__ import annotations

import gc
import math
import subprocess
import time

import numpy as np

NOMINAL_S = {"chains": 0.5e-3, "tables": 25e-3, "spawn": 0.175}

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_RHO = np.diag([0.1, 0.4, 0.3, 0.2]).astype(complex)


def _chains_kernel() -> float:
    """Small-matrix numpy work: Kraus-style sandwiches of 4x4 complex
    matrices and scalar element access, as in a chain stage."""
    acc = np.zeros((4, 4), dtype=complex)
    for s in (0.3, 0.6, 0.9):
        root = (np.sqrt((1 + s) / 2) * (_I2 + _SX) / 2
                + np.sqrt((1 - s) / 2) * (_I2 - _SX) / 2)
        for _ in range(6):
            k = np.kron(root, root)
            acc += k @ _RHO @ k
    a = acc.copy()
    for _ in range(20):
        for p in range(3):
            for q in range(p + 1, 4):
                a[p, q] = abs(a[p, q]) * 0.5
    return float(np.trace(acc).real)


def _shrink(x: float) -> float:
    return (1.0 + 2.0 * math.sqrt(1.0 - x * x)) / 3.0


_GRID = np.linspace(0.05, 0.95, 29)


def _tables_kernel() -> float:
    """Pure-Python loops over numpy-scalar sharpness grids, as in the
    optimizer; about 25 ms, so that each sample spans several short phases."""
    best = 0.0
    for lam3 in np.linspace(0.8, 0.95, 12):
        for l1 in _GRID:
            for l2 in _GRID:
                g = 3.0
                per = []
                for lam in (l1, l2, lam3):
                    per.append((1.0 - lam * lam * g) / 4.0)
                    g *= _shrink(lam) ** 2
                if any(d >= 0.0 for d in per):
                    continue
                best = min(best, sum(per))
    return float(best)


class Gauge:
    """Times one kernel on demand; ``spawn`` starts ``python -c 'import numpy'``."""

    def __init__(self, kind: str, python: str | None = None, env: dict | None = None):
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        self._python = python
        self._env = env
        self.samples: list[float] = []

    def measure(self) -> float:
        if self.kind == "spawn":
            start = time.perf_counter()
            subprocess.run([self._python, "-c", "import numpy"], env=self._env, check=True)
            elapsed = time.perf_counter() - start
        else:
            kernel = _chains_kernel if self.kind == "chains" else _tables_kernel
            enabled = gc.isenabled()
            gc.disable()  # the program's garbage is not the machine's speed
            try:
                start = time.perf_counter()
                kernel()
                elapsed = time.perf_counter() - start
            finally:
                if enabled:
                    gc.enable()
        self.samples.append(elapsed)
        return elapsed
