"""Host-speed probe: scales wall-clock figures to a reference host speed.

On a shared virtual machine the CPU speed available to one process drifts
by up to 2x over minutes, for reasons outside the program (a pure-Python
loop slows down just as much as a campaign does). A figure measured in a
slow phase and one measured in a fast phase then differ by more than any
change to the program could explain.

:func:`probe_seconds` times a fixed pure-Python loop that touches nothing of
the program. Timings are scaled by ``REFERENCE_S / probe`` (rates by the
inverse), so they read as if measured on a host where the loop takes
``REFERENCE_S`` — about its time on a 2-CPU VM in a fast phase. A change to
the program moves the scaled figures exactly as it moves the raw ones; the
raw figures and every probe reading are kept in ``details.json``.

Timed rounds that keep both CPUs busy are probed on both: one process per
worker runs the loop at once, since the two CPUs of a shared host do not
slow down together. Set-up, mostly one process's work, is probed on one.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median

#: Probe time, in seconds, of the reference host.
REFERENCE_S = 0.05


def _loop() -> int:
    total = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(400_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        items.append(i * 3 % 7)
        if len(items) > 64:
            total += sum(items)
            items.clear()
    return total


def _times(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return times


def probe_seconds(repeats: int = 5, processes: int = 1) -> float:
    """Median wall time of the fixed loop over ``repeats`` runs in each of
    ``processes`` processes running at once (this one and forked children,
    each waited for before returning)."""
    children = []
    for _ in range(processes - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.write(write, json.dumps(_times(repeats)).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = _times(repeats)
    for pid, read in children:
        with os.fdopen(read) as pipe:
            times += json.loads(pipe.read() or "[]")
        os.waitpid(pid, 0)
    return median(times)
