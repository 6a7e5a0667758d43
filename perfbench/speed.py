"""The machine's speed, measured next to the program, and times rescaled by it.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over tens of seconds, for the program and for any other
code alike.  A reference is a fixed piece of work, independent of the
package, with a nominal time; its slowness is its measured time over that
nominal time.  One is timed before every job, and each job's latency is
divided by the median slowness around it.  A rescaled time is the time the
job would take on a machine where the reference takes its nominal time; a
change in the program moves it as much as the raw time, while the drift of
the host cancels.

Two references, matched to the work they rescale:

- ``PYTHON``: pure-Python code like the package's (a triangle scan over a
  small integer matrix, componentwise comparison of all pairs of short
  vectors, a dict count), for jobs that run in this process;
- ``SPAWN``: start and reap a bare interpreter, for jobs that are a
  subprocess.  Process start-up speeds up less than pure Python when the
  host is fast, so ``PYTHON`` would over-correct those jobs.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

WINDOW = 3  # slowness samples on each side of a job that rescale it


def _leq(v, w):
    return all(a <= b for a, b in zip(v, w))


def python_work():
    n = 14
    m = [[(i * 7 + j * 3) % 5 for j in range(n)] for i in range(n)]
    bad = 0
    for i in range(n):
        mi = m[i]
        for j in range(n):
            mij = mi[j]
            mj = m[j]
            for k in range(n):
                if mij + mj[k] < mi[k]:
                    bad += 1
    vectors = [tuple((i * 5 + j * j) % 4 for j in range(12)) for i in range(40)]
    below = [0] * len(vectors)
    for i, v in enumerate(vectors):
        for j, w in enumerate(vectors):
            if i != j and _leq(w, v):
                below[i] |= 1 << j
    seen = {}
    for i in range(800):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
    return bad, sum(map(int.bit_count, below)), len(seen)


def spawn_work():
    subprocess.run(
        [sys.executable, "-S", "-c", "pass"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        check=True,
    )


class Reference:
    def __init__(self, work, nominal_s: float):
        self.work = work
        self.nominal_ns = nominal_s * 1e9

    def slowness(self) -> float:
        start = time.perf_counter_ns()
        self.work()
        return (time.perf_counter_ns() - start) / self.nominal_ns


# Nominal times: about the median on a 2-vCPU VM.
PYTHON = Reference(python_work, 0.003)
SPAWN = Reference(spawn_work, 0.012)


def rescale(latencies, slowness):
    """Job k ran between slowness[k] and slowness[k + 1]; divide it by the
    median of the WINDOW samples on each side of it."""
    assert len(slowness) == len(latencies) + 1
    return [
        lat / statistics.median(slowness[max(0, k + 1 - WINDOW) : k + 1 + WINDOW])
        for k, lat in enumerate(latencies)
    ]
