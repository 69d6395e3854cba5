"""Reference tasks that track the host's current speed.

On a shared host the same work can take 1.5 to 2 times longer from one
minute to the next.  Each workload times one of these fixed tasks before
every job.  Neither calls gaussforge.  Every time the workload measures
is multiplied by ``nominal_ms / median task time`` over the block of jobs
it belongs to, so the reported figures are times at the task's nominal
speed and most of the host's drift cancels.  Each workload uses the task
that tracked its own job times best in paired measurements on the 2-core
development host: ``DENSE`` for BLAS-bound jobs, ``SMALL`` for jobs made of
many small calls, including CLI children.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((96, 96))
_VECTOR = _RNG.random(4)


def _dense():
    for _ in range(4):
        _MATRIX @ _MATRIX


def _small():
    v = _VECTOR
    for _ in range(50):
        v = np.abs(v[::-1] - 0.5) + 0.25


class Task:
    """A fixed reference task and its nominal time."""

    def __init__(self, name, fn, nominal_ms):
        self.name, self.fn, self.nominal_ms = name, fn, nominal_ms

    def sample(self):
        """Seconds the task takes now."""
        start = time.perf_counter()
        self.fn()
        return time.perf_counter() - start

    def scale(self, samples):
        """Factor that turns times measured alongside ``samples`` into nominal-speed times."""
        return self.nominal_ms / (statistics.median(samples) * 1e3)


# dense 96 x 96 products: BLAS-bound like the 2N x 2N congruences and ring states
DENSE = Task("dense", _dense, 0.11)
# many numpy calls on tiny arrays: like the 2x2 and 4x4 work of pairwise analysis
SMALL = Task("small", _small, 0.1)
