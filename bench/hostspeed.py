"""How fast the shared host runs right now, and times scaled by it.

A guest on a shared host runs the same code 10 to 40 % slower for seconds
to minutes at a time, when other tenants load the cores, caches and
memory it shares.  The benchmark times a fixed pure-Python loop after
every 50 ms of requests (after every CLI command) and after each block,
in the process that ran them, and scales each request's latency by how much slower than
``REFERENCE_S`` the next such loop ran.  The loop is benchmark code that no change to the package touches,
so the scaled times still move with the package's own speed.  The
unscaled times are kept in each run's record.
"""
from __future__ import annotations

import time

#: iterations of the loop
LOOP = 20000
#: the loop's time on an unloaded 2-vCPU Xeon guest; scaled times read as
#: if the host had run at that speed
REFERENCE_S = 1.5e-3


def _loop():
    x = 0.0
    for i in range(LOOP):
        x = x * 0.999 + i
    return x


def probe(reps: int = 3) -> float:
    """Fastest of ``reps`` timings of the loop, in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, at the reference speed."""
    return seconds * REFERENCE_S / loop_s
