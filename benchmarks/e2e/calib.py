"""Host-speed probes.

On a shared 2-core host the speed of pure-Python code was seen to
drift by up to ~1.8x between runs and within seconds, which swamps a
run-to-run comparison.  A :class:`Probe` times a fixed pure-Python
workload between units of measured work (at most every ``interval``
seconds); each measured interval is then multiplied by
``REFERENCE_MS / mean of the probes just before and after it``, i.e.
reported at the reference host speed.  Raw values are printed beside
the scaled ones.
"""

from __future__ import annotations

import bisect
import json
import statistics
from time import perf_counter
from typing import List

#: The probe's duration on the reference host (a 2-core x86 VM at its
#: usual speed); only the ratio to it matters.
REFERENCE_MS = 1.7
#: Records the probe serializes: allocation and string building track
#: the campaigns' slowdowns better than arithmetic alone.
_RECORDS = [{"k": i, "v": [i, i + 1, "x" * 10], "f": i / 3}
            for i in range(150)]


def probe_ms() -> float:
    """Wall time of a fixed pure-Python loop plus a JSON round trip."""
    start = perf_counter()
    total, table = 0, {}
    for i in range(6000):
        total += i * i % 7
        table[i & 255] = total
    json.loads(json.dumps(_RECORDS, sort_keys=True, indent=2))
    return 1000.0 * (perf_counter() - start)


def calibrate_ms() -> float:
    """Median of 15 probe times (the ``host.calib_ms`` figure)."""
    return statistics.median(probe_ms() for _ in range(15))


class Probe:
    """Probe samples taken between units of measured work."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.times: List[float] = []

    def maybe(self) -> None:
        """Take a sample if ``interval`` has passed since the last."""
        if not self.times or perf_counter() - self.times[-1] >= \
                self.interval:
            self.samples.append(probe_ms())
            self.times.append(perf_counter())

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return REFERENCE_MS / statistics.mean(self.samples)

    def factor_at(self, start: float, end: float) -> float:
        """Scale for work done in ``[start, end]``: the probes just
        before and just after it."""
        after = bisect.bisect_left(self.times, end)
        before = bisect.bisect_right(self.times, start) - 1
        near = self.samples[max(before, 0):after + 1]
        return REFERENCE_MS / statistics.mean(near or self.samples)


def setup_times(setups: List[tuple], probe: Probe) -> dict:
    """Raw and reference-speed set-up seconds from ``(start, seconds)``
    pairs, each bracketed by probe samples."""
    return {"setup_s": [took for _start, took in setups],
            "setup_scaled_s": [took * probe.factor_at(start, start + took)
                               for start, took in setups]}
