"""Machine-speed calibration interleaved with an untraced run.

On a shared host the speed of a vCPU changes by a third or more within
seconds as its neighbours come and go, so the wall time of one adaptive run
measures the host as much as the program.  To take the host out, the worker
runs a fixed calibration burst (about 8 ms of Python, numpy and sparse LU
work) right before the driver call, after every refinement, and right after
the call.  The burst after a refinement is hooked in where the driver looks
``refine`` up, its module globals, as the layer spans are.  The burst never
calls ``afem_lab``: if it did, a change to the program would move the
yardstick with it and cancel its own gain.

Each stretch of program time between two bursts is scaled by
``REFERENCE_BURST_S`` over the mean of its two bursts, and the scaled
stretches are summed: the result is the run's time at the reference speed,
the speed at which one burst takes ``REFERENCE_BURST_S`` seconds.  The
bursts' own time is never counted.
"""

import contextlib
import functools
import time

__all__ = ["Metronome", "scaled_time", "REFERENCE_BURST_S"]

# a fixed scale, so that scaled times compare across commits: about a
# burst's time on the busy 2-vCPU cloud VM the benchmark was tuned on, where
# scaled times read close to wall times
REFERENCE_BURST_S = 0.010


def scaled_time(marks):
    """(program seconds, seconds at the reference speed) of the stretches
    between consecutive bursts, given each burst as (start, end)."""
    wall = scaled = 0.0
    for (s0, e0), (s1, e1) in zip(marks, marks[1:]):
        stretch = s1 - e0
        wall += stretch
        scaled += stretch * REFERENCE_BURST_S / ((e0 - s0 + e1 - s1) / 2)
    return wall, scaled


class Metronome:
    """Runs the calibration burst on demand and records when it ran."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self._a = rng.random((4000, 3, 3))
        self._b = rng.random((4000, 3, 3))
        # larger than a core's L2 cache, like the element arrays of the
        # later levels; without it the burst under-reads the speed-up of
        # the program's memory-bound kernels when the host quietens
        self._big_a = rng.random((12000, 3, 3))
        self._big_b = rng.random((12000, 3, 3))
        n = 30
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self._lap = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        self._rhs = np.ones(n * n)
        self.marks = []

    def _burst(self):
        import numpy as np
        from scipy.sparse.linalg import spsolve

        x = 0
        for i in range(20000):
            x += i * i
        np.einsum("eij,ejk->eik", self._a, self._b).sum(axis=0)
        np.sqrt(self._a * self._b + 1.0)
        np.einsum("eij,ejk->eik", self._big_a, self._big_b).sum(axis=0)
        spsolve(self._lap, self._rhs)

    def warm_up(self, bursts=5):
        for _ in range(bursts):
            self._burst()

    def tick(self):
        start = time.perf_counter()
        self._burst()
        self.marks.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def installed(self):
        """``afem_lab.driver.refine`` followed by a burst, restored on
        exit."""
        from afem_lab import driver

        refine = driver.refine

        @functools.wraps(refine)
        def ticking(*args, **kwargs):
            result = refine(*args, **kwargs)
            self.tick()
            return result

        driver.refine = ticking
        try:
            yield self
        finally:
            driver.refine = refine
