"""How fast the host runs right now, from a fixed probe timed through the run.

On a shared host the same code runs 30-50% faster or slower from one
minute to the next, whatever the program does.  A probe that never calls
the program is timed at most every ``INTERVAL_S`` seconds, right before
one of the workload's own timed calls.  Each sample a workload takes is
kept with the slowdown of the probes just before it (their median time
over the probe's reference time); the end-to-end timings are divided by
it (rates multiplied), so they read as on a host where the probe takes
exactly its reference time.  The raw figures are kept in the run
information.

Two probes, matched to what the workloads spend their time on:
``probe_python`` is dictionary work, as encoding and counting do;
``probe`` adds small numpy array work (a sort and a ``bincount``), as the
kernel and table builds do.  zoo-tabular, whose calls are dominated by
interpreter overhead on tiny inputs, uses ``probe_python``; text-online
uses ``probe``.

Set-up is timed before the warm-up, often while the host is still in a
faster state, so it has its own ``HostSpeed`` whose slowdown is the median
of the probes taken between its repeats.
"""
from __future__ import annotations

import time
from typing import Callable, List

import numpy as np

from stats import median

INTERVAL_S = 0.2
# Probe calls per measurement; the slowdown of a sample is their median.
PROBE_REPEATS = 3

_KEYS = [f"token{i}" for i in range(512)]
_ROWS = np.random.default_rng(0).integers(0, 4_096, size=16_384)
_VALUES = np.linspace(0.0, 1.0, _ROWS.size)


def probe_python() -> None:
    counts = {}
    for i in range(6_000):
        key = _KEYS[i & 511]
        counts[key] = counts.get(key, 0) + i


def probe() -> None:
    probe_python()
    order = np.argsort(_ROWS, kind="stable")
    acc = np.bincount(_ROWS[order], weights=_VALUES[order], minlength=4_096)
    np.sqrt(acc * acc + 1.0)


# Median probe time on the 2-vCPU host the benchmark was tuned on, in its
# sustained (not freshly idle) state.
REFERENCE_S = {probe: 0.0032, probe_python: 0.0011}


class HostSpeed:
    def __init__(self, fn: Callable[[], None] = probe):
        self.fn = fn
        self.reference_s = REFERENCE_S[fn]
        self.probe_s: List[float] = []
        self._last = -float("inf")

    def tick(self) -> None:
        """Time the probe if ``INTERVAL_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.probe_now()

    def probe_now(self) -> None:
        """Time the probe ``PROBE_REPEATS`` times back to back."""
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            self.fn()
            self._last = time.perf_counter()
            self.probe_s.append(self._last - t0)

    def slowdown(self) -> float:
        """Median probe time over the reference: above 1 on a slower host."""
        return median(self.probe_s) / self.reference_s

    def recent_slowdown(self) -> float:
        """The slowdown from the latest ``PROBE_REPEATS`` probes only."""
        return median(self.probe_s[-PROBE_REPEATS:]) / self.reference_s
