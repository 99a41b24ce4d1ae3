"""A fixed piece of CPU work that tracks how fast the shared machine runs right now.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent within a minute, with every kind of work slowing together. The runner
samples this reference between operations and rescales its wall times to the
speed at which one sample takes REFERENCE_MS; see `scale`. Each operation is
rescaled by the median of the samples taken after its own and its neighbours'
commands, which follows the drift more closely than one factor for the whole
run, while the median ignores a sample that was preempted. The reference mixes
interpreted Python (calls, attribute and list access, float arithmetic) with
small numpy kernels, like jsbnn itself, and never calls into jsbnn, so no
change to the program can move it.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

import numpy as np

# One sample takes about this long on a 2-vCPU virtual machine (Python 3.11, numpy 2.4)
# with nothing else running in it; the absolute value only fixes the unit.
REFERENCE_MS = 2.0


class _Node:
    __slots__ = ("value", "parent")

    def __init__(self, value, parent):
        self.value = value
        self.parent = parent


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 16))
        self._w = rng.standard_normal((16, 16))

    def _work(self):
        node = None
        for i in range(1800):
            node = _Node(math.sqrt(i) * 0.5, node)
        total = 0.0
        while node is not None:
            total += node.value
            node = node.parent
        h = self._x
        for _ in range(180):
            h = np.tanh(h @ self._w * 0.25)
        return total + float(np.log1p(np.exp(h)).sum())

    def sample(self, count: int = 1) -> list:
        """Seconds each of `count` reference passes takes, after an untimed pass that warms the caches.

        The cyclic garbage collector is off meanwhile, so that a collection of
        the program's objects never lands inside a sample.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()
            times = []
            for _ in range(count):
                start = perf_counter()
                self._work()
                times.append(perf_counter() - start)
            return times
        finally:
            if enabled:
                gc.enable()


def scale(samples) -> float:
    """Factor that turns a wall time measured alongside `samples` into reference-speed time."""
    return REFERENCE_MS / 1e3 / statistics.median(samples)
