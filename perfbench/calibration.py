"""Machine-speed calibration with a fixed kernel that does not use cutrom.

On a shared host the same code runs at different speeds for periods of
seconds to minutes, because of load outside the machine the benchmark runs
in.  A fixed kernel with the kinds of work the workloads do (a sparse LU,
interpreted Python, small dense LAPACK solves, streaming vector
arithmetic) is timed before and after each window of operations.  An
operation's reference time is its wall time scaled by ``REFERENCE_S``
over the mean kernel time around its window: the time it would have taken
at the speed the kernel had when ``REFERENCE_S`` was measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# kernel time in the fast periods (10th percentile of 200 measurements) of
# the machine of the baseline in README.md
REFERENCE_S = 0.0134
SAMPLES = 3


class Calibration:
    """Times the fixed kernel to turn wall time into reference time."""

    def __init__(self):
        n = 60
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.laplacian = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        rng = np.random.default_rng(0)
        self.dense = rng.random((40, 40)) + 40.0 * np.eye(40)
        self.vector = rng.random(1 << 17)
        self.measure()     # the first call loads SuperLU and LAPACK

    def _kernel(self) -> None:
        spla.splu(self.laplacian)
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(20):
            np.linalg.solve(self.dense, self.dense[0])
        for _ in range(5):
            np.sqrt(self.vector * self.vector + 1.0).sum()

    def measure(self) -> float:
        """Median seconds of a few kernel runs."""
        samples = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self._kernel()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    def timed(self, fn):
        """``fn()`` and its reference time, calibrated before and after."""
        before = self.measure()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        return result, elapsed * REFERENCE_S / ((before + self.measure()) / 2)
