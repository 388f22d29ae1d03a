"""The host-speed probe: a fixed exact-rational Gauss-Jordan elimination in
pure Python, on the standard library's `Fraction` only.

On a shared 2-core VM the host's speed drifts by a factor of up to 1.5, over
spells from a tenth of a second to minutes, and the share of a 60 s run that
falls in a slow spell varies from run to run.  Raw op latencies follow it.
The probe is timed next to every op, and the end-to-end latencies are
reported in units of the probe's time in the same round (see
worker.timed_phase).  The probe does the kind of work the library's Q
arithmetic does -- interpreted code, small-integer and Fraction objects -- so
it slows down with the host in the same proportion, but it never calls the
library, so a change to the library moves the op's time and not the probe's.

    python3 perfbench/probe.py

runs one elimination; cli times that command as a child process, so that its
probe also pays interpreter start, as every cli op does.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

_rng = random.Random(5)
MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(7)]
          for _ in range(6)]


def eliminate(matrix=MATRIX):
    """Reduced row echelon form of a copy of `matrix`."""
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


def timed():
    """Seconds one elimination takes in this process.  The collector is off
    meanwhile, so the size of the library's heap does not enter the probe."""
    gc.disable()
    try:
        t = time.perf_counter()
        eliminate()
        return time.perf_counter() - t
    finally:
        gc.enable()


if __name__ == "__main__":
    eliminate()
