"""Host-speed probe: a fixed pure-Python kernel timed before every op.

On a shared 2-core virtual machine (Intel Xeon, 2.1 GHz) identical work
took anywhere from 1.0x to 1.8x as long, depending on the moment, and the
slow spells lasted from seconds to minutes, so they moved whole runs: five
35-second runs of group-f3 gave from 10.8 to 15.3 ops/s.  Wall time alone
could not tell a 10% regression from the neighbours' load.

So the benchmark times this probe before each op and scales each op's
latency by ``NOMINAL_MS`` over the median probe time of the neighbouring
ops.  Scaled times read as times on a host that runs the probe in
``NOMINAL_MS``.  The probe shares no code with superpoints, so a change to
the program moves scaled times exactly as it moves raw ones.  It mixes the
kinds of work the program does: ``Fraction`` products, small-int products
mod 3 in bitmask-keyed dicts, and small-object allocation.  In the five runs
above, scaling narrowed ops/s to 10.6 to 11.5.  Over five runs per workload
the quartile spread of ops/s fell from 30% to 6% of the median on group-f3,
from 34% to 4% on triangle-q, and from 7% to 4% on pbw-cold.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

NOMINAL_MS = 2.0
WINDOW = 8  # probes on each side of an op that set its scale

_rng = random.Random(5)
_FRAC_A = {i: Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for i in range(12)}
_FRAC_B = {i: Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for i in range(12)}
_MOD_A = {m: _rng.randint(1, 2) for m in range(64)}
_MOD_B = {m: _rng.randint(1, 2) for m in range(64)}


class _Cell:
    __slots__ = ("key", "terms")

    def __init__(self, key, terms):
        self.key = key
        self.terms = terms


def _kernel():
    acc = {}
    for i, a in _FRAC_A.items():
        for j, b in _FRAC_B.items():
            k = (i + j) & 15
            prev = acc.get(k)
            acc[k] = a * b if prev is None else prev + a * b
    for _ in range(2):
        acc = {}
        for m1, a in _MOD_A.items():
            for m2, b in _MOD_B.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                r = (acc.get(m, 0) + a * b) % 3
                if r:
                    acc[m] = r
                else:
                    acc.pop(m, None)
    cells = [_Cell(i, {i: i}) for i in range(1000)]
    return acc, cells


def probe():
    """Seconds the kernel takes now.  The collector is paused so that the
    program's heap does not bill its collections to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(latencies, probes):
    """Each latency times NOMINAL_MS over the median probe of its neighbourhood."""
    nominal = NOMINAL_MS / 1e3
    return [lat * nominal / statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
            for i, lat in enumerate(latencies)]
