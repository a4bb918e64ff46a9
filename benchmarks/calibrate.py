"""A fixed calibration kernel that tracks the machine's current speed.

On a shared machine the same pass can take 1.4x longer for a minute at a
time (other tenants), and a single run cannot outlast those phases.  Timed
passes are therefore interleaved with this kernel, and the run's median pass
time is scaled by REFERENCE_S / (mean kernel reading of the run): the result
is the pass time at a fixed reference machine speed.

The kernel is a matmul with a row-wise log-sum-exp, the shape of the ln Z
batch.  Of the kernels tried (this one, small-array numpy calls, a
pure-Python counting loop, and mixes of the three), it tracked the drift of
both the pressure and the cascade passes best.  It never calls potts_af, so
a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel reading on the 2-core reference machine in its fast
# phase; it only fixes the unit of the scaled times and is the same for
# every commit
REFERENCE_S = 0.0045

_RNG = np.random.default_rng(12345)
_ROWS = _RNG.random((512, 36))
_CELLS = (_RNG.random((36, 729)) < 0.3).astype(np.float64)
# preallocated, so the reading does not depend on the allocator state the
# program left behind (glibc moves its mmap threshold after large frees)
_E = np.empty((512, 729))
_MAX = np.empty((512, 1))
_SUM = np.empty(512)


def kernel() -> float:
    """The kernel's time now: the mean of three runs after one untimed run.

    The untimed run refills the caches the preceding work evicted, so the
    reading depends on the machine's speed, not on what ran before it.  The
    mean, not the best, keeps the short stalls the workload also suffers.
    """
    _run()
    return statistics.fmean(_run() for _ in range(3))


def _run() -> float:
    start = time.perf_counter()
    for _ in range(3):
        np.matmul(_ROWS, _CELLS, out=_E)
        np.max(_E, axis=1, keepdims=True, out=_MAX)
        np.subtract(_E, _MAX, out=_E)
        np.exp(_E, out=_E)
        np.sum(_E, axis=1, out=_SUM)
        np.log(_SUM, out=_SUM)
    return time.perf_counter() - start


def speed_factor(kernel_times: list[float]) -> float:
    """REFERENCE_S over the mean kernel reading: >1 on a fast machine state."""
    return REFERENCE_S / statistics.fmean(kernel_times)
