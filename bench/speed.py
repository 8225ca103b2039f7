"""Machine-speed normalization for end-to-end times.

On a shared host the same build can take 5 s one minute and 8.6 s a few
minutes later (2-core KVM Xeon), because the core's speed drifts with
other tenants' load.
So a fixed probe brackets every timed operation. The probe uses only
Python, numpy and scipy.stats, never fidelityq, in the same mix the
package spends its time in. Each raw time is scaled by the probe's
reference time divided by the mean of the probes before and after it. The
result is "seconds at reference speed": a change to fidelityq moves it,
and a drift in machine speed largely cancels out of it. Raw times are kept
next to it.

The probe lasts about 0.3 s, long enough to average out millisecond-scale
jitter. Shorter probes matched to millisecond operations are no steadier,
because that jitter is independent from one millisecond to the next.
"""

import time

import numpy as np
from scipy import stats

# median probe time on the 2-core KVM Xeon this benchmark was written on
PROBE_REFERENCE_S = 0.28

_ARRIVALS = np.arange(31)
_STEP = np.full((64, 64), 1.0 / 64)


def probe():
    """Seconds taken by a fixed mix of scalar scipy.stats calls, small
    matrix-vector products and interpreter work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += float(stats.poisson.pmf(_ARRIVALS, 1.0 + 0.01 * i)[3])
    v = np.ones(64)
    for _ in range(20000):
        v = _STEP @ v
    for i in range(2_000_000):
        acc += i & 7
    return time.perf_counter() - t0


class SpeedClock:
    """Times operations between probes."""

    def __init__(self):
        self._last = probe()
        self.probes = [self._last]

    def time(self, fn, *args, **kwargs):
        """Returns fn's result, its raw seconds and the factor that scales
        raw seconds to reference speed."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = probe()
        self.probes.append(after)
        factor = PROBE_REFERENCE_S / (0.5 * (self._last + after))
        self._last = after
        return out, raw, factor
