"""A fixed pure-Python loop that measures how fast the host runs right now.

The host's speed drifts by up to 2x over minutes, in CPU time as well as in
wall time, because other machines share its cores and caches.  `run.py`
times `loop()` right before every job and scales each job's wall time by
`REFERENCE_S / (median of the nearby loop times)`, which turns it into
seconds on a host where the loop takes `REFERENCE_S`.  The loop does the
kind of work knotcalc does (XOR elimination of Python-int bit rows, dicts
keyed by small tuples), imports nothing from knotcalc and never changes, so
a change to knotcalc moves the scaled times in the same proportion as the
raw ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Best time of `loop()` on a 2.1 GHz Xeon VM with Python 3.11 (its median
# there was 0.0154 s), so a scaled time is close to the wall time on that
# host when it is not contended.
REFERENCE_S = 0.010

_rng = random.Random(5)
_ROWS = [(_rng.getrandbits(300), _rng.getrandbits(1)) for _ in range(260)]
_KEYS = [(_rng.randrange(50), _rng.randrange(50), _rng.randrange(9)) for _ in range(6000)]


def _work() -> int:
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in _ROWS:
        for pos, (pmask, prhs) in pivots.items():
            if (mask >> pos) & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask:
            pivots[(mask & -mask).bit_length() - 1] = (mask, rhs)
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
        if key[2] == 0:
            counts[(key,)] = sorted(key)
    return len(pivots) + len(counts)


def loop() -> float:
    """Wall seconds of two rounds of the fixed work, with the garbage
    collector off so that the jobs' heap does not change its cost."""
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(samples: list[float], loops: list[float], window: int = 2) -> list[float]:
    """Scale each sample by REFERENCE_S over the median of the loop times
    taken within *window* samples of it (loops[i] was taken right before
    samples[i])."""
    return [sample * REFERENCE_S / statistics.median(loops[max(0, i - window):i + window + 1])
            for i, sample in enumerate(samples)]
