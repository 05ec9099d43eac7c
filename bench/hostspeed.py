"""Host-speed reference probes, and the scaling of query times by them.

On a shared 2-vCPU host, other tenants slow a process by up to about 1.7
times, for seconds or for minutes, and CPU time grows with wall time (the
kernel counts no steal).  A 30 s run cannot average that out, so the run
times a fixed reference probe, a piece of work that calls no engine code,
every PROBE_EVERY seconds of query time.  Each query's time is multiplied
by NOMINAL / p, with p the median of the probes taken around it and
NOMINAL the probe's time on that host when nothing else runs, so that
times read as if the host were quiet.  The probe matches the kind of work: pure-Python
Fraction arithmetic for the symbolic workloads, numpy array work for the
quadrature workload; a probe of the other kind left quadrature's spread
several times wider.  Raw times stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

PROBE_EVERY = 0.02         # seconds of query time between two probes
PROBE_WINDOW = 2           # probes on each side of a query that set its scale


def python_probe(steps: int = 600) -> float:
    """Fraction sums and dict stores, as in the engine's hot paths."""
    started = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, steps):
        acc += Fraction(i % 13 + 1, i % 7 + 1)
        table[i % 64] = acc
    return time.perf_counter() - started


_GRID = []


def numpy_probe(reps: int = 8) -> float:
    """The moment map, a Gaussian and a pairwise sum on a 64 x 64 grid."""
    import numpy as np
    if not _GRID:
        x = np.linspace(-3.0, 3.0, 64)
        _GRID.extend((np.repeat(x, 64), np.tile(x, 64)))
    a, b = _GRID
    started = time.perf_counter()
    for _ in range(reps):
        h, u, v = -a * b / 2, a * a / 2, -b * b / 2
        buf = np.exp(-(h * h + u * u + v * v)) * (1.0 + h * u)
        while buf.size > 1:
            if buf.size % 2:
                buf = np.concatenate([buf, [0.0]])
            buf = buf[0::2] + buf[1::2]
    return time.perf_counter() - started


PROBES = {"python": python_probe, "numpy": numpy_probe}
# Lower decile of each probe on a quiet 2-vCPU Xeon host, Python 3.11.7,
# numpy 2.4.6.  Only the ratio between two runs matters; these fix the unit.
NOMINAL = {"python": 0.00115, "numpy": 0.00047}


def scaled(times, marks, values, kind: str) -> list:
    """Query times scaled to the quiet host.

    marks[i] is the number of queries done when probe i ran, values[i] its
    seconds, in order; each query takes the median of the PROBE_WINDOW
    probes on either side of the first probe after it.
    """
    out = []
    for j, took in enumerate(times):
        k = min(bisect.bisect_left(marks, j + 1), len(values) - 1)
        near = values[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
        out.append(took * NOMINAL[kind] / statistics.median(near))
    return out
