"""Host-speed calibration of interpreter-bound times.

The host's speed drifts by tens of percent within seconds and by more over
minutes. Interpreter-bound work (the consensus periods, importing and
parsing at set-up) slows together with the fixed pure-Python loop below, so
the benchmark times that loop next to the work and divides by it: a
calibrated time reads as the time on a host where one loop takes
REF_NOMINAL_S. Standard library only, so it can run before the program is
imported.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time
from typing import List, Sequence, Tuple

REF_NOMINAL_S = 0.0025
REF_WINDOW = 2  # loops whose median gives an operation's local speed: just before and after


def reference() -> int:
    """Fixed interpreter-bound work: formatting, dict inserts, small hashes."""
    acc = 0
    table = {}
    for i in range(1000):
        text = "%d,%d,%r" % (i, i * 7, i / 3.0)
        table[(i, i & 7)] = text
        acc ^= hashlib.blake2b(text.encode(), digest_size=16).digest()[0]
    return acc + len(sorted(table))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def calibrated(durations: Sequence[float], starts: Sequence[float],
               refs: Sequence[Tuple[float, float]]) -> List[float]:
    """Each duration scaled to REF_NOMINAL_S by the median of the REF_WINDOW
    loops (start, seconds) nearest its start."""
    ref_starts = [t for t, _ in refs]
    ref_times = [d for _, d in refs]
    out = []
    for duration, start in zip(durations, starts):
        j = bisect.bisect_left(ref_starts, start)
        lo = max(0, min(j - REF_WINDOW // 2, len(refs) - REF_WINDOW))
        local = statistics.median(ref_times[lo:lo + REF_WINDOW])
        out.append(duration * REF_NOMINAL_S / local)
    return out
