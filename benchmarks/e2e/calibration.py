"""A fixed library-only kernel timed beside every rep, to divide machine drift out.

The sizing host is a shared 2-core VM whose speed shifts by 15-40 % for minutes
at a time: two back-to-back sets of identical runs differed by 17 % on every
workload, set-up included.  A bound of 0.25 cannot hold against that, so the
bounded timing metrics are reported at *reference machine speed*: each rep's
wall is divided by the slowdown the calibration kernel saw just before and just
after it.  The kernel is SciPy's tricubic ``map_coordinates`` on a fixed 32^3
field — the library routine all four workloads spend ~90 % of their time in,
and code no change to this repository can alter.  Windowed medians of a 24^3
solve spread by 16 % raw and 5 % calibrated in the same ten minutes.

What this hides: a change that slows the calibration kernel itself (a thread
the program leaves spinning in the process, a new SciPy).  Raw walls are
reported beside the calibrated ones for that reason.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

#: seconds one kernel call takes on the sizing host when it is quiet; fixes the
#: scale so calibrated seconds read like that host's seconds
REFERENCE_CALL_S = 0.0127
CALLS = 36


class MachineSpeed:
    """Slowdown of this machine, now, relative to the reference."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160101)
        self._field = rng.random((32, 32, 32))
        self._points = rng.random((3, 32 ** 3)) * 31.0

    def slowdown(self) -> float:
        """Median call time of the kernel over the reference (about 0.5 s).

        The median over calls ignores a burst that hits a few of them; a rep
        filters bursts the same way, through the median over reps.
        """
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            ndimage.map_coordinates(self._field, self._points, order=3, mode="grid-wrap")
            times.append(time.perf_counter() - start)
        return statistics.median(times) / REFERENCE_CALL_S
