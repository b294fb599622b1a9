"""Host-speed normalisation of the benchmark's timings.

On a shared virtual machine the same work can take 20-60% longer from
one minute to the next, because neighbours compete for the cores' caches
and memory bandwidth. That drift swamps the differences the benchmark
exists to show. So the benchmark probes the host between its timed units
(about two probes per second of run) and scales every time by
sqrt(NOMINAL_S / median probe of the run).

The probe is memory-bound: a random gather over a 16 MB array, a pointer
walk over shuffled Python objects and a burst of small-object allocation.
It follows the drift of the training workloads closely (correlation
0.8-0.9 over ten runs) and that of verify and ot_solve loosely (0.4-0.7),
so a full correction over-corrects those. Over ten-run sets of all four
workloads the square-root scaling gave the smallest worst spread: 7-15%,
against 8-21% with full scaling and 10-21% raw.

The probe is benchmark code, so a change to the program cannot move it,
and the collector is off while it runs, so the heap the program leaves
behind cannot either. Raw timings and the probe median are printed on the
line before the result.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# median probe time on the reference machine (2 vCPUs at 2.0 GHz, numpy
# 2.4 with OpenBLAS on one thread); scaled times read as seconds there
NOMINAL_S = 0.018
PROBE_EVERY_S = 0.5
MAX_REPEATS = 10

_rng = np.random.default_rng(0)
_ARRAY = _rng.random(2_000_000)
_GATHER = _rng.integers(0, _ARRAY.size, 200_000)
_OBJECTS = [[i] for i in range(100_000)]
_WALK = _rng.permutation(len(_OBJECTS))[:10_000].tolist()


def _probe_once() -> float:
    t0 = perf_counter()
    for _ in range(2):
        _ARRAY[_GATHER].sum()
    total = 0
    for i in _WALK:
        total += _OBJECTS[i][0]
    [(i, [i]) for i in range(15_000)]
    return perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.probes: list[float] = []
        self._last = None

    def probe(self) -> None:
        """Probe about once per PROBE_EVERY_S since the previous call."""
        now = perf_counter()
        repeats = 1 if self._last is None else min(
            MAX_REPEATS, max(1, round((now - self._last) / PROBE_EVERY_S)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.probes += [_probe_once() for _ in range(repeats)]
        finally:
            if enabled:
                gc.enable()
        self._last = perf_counter()

    def factor(self) -> float:
        """Scale that maps this run's times to the nominal host speed."""
        return (NOMINAL_S / statistics.median(self.probes)) ** 0.5
