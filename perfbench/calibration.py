"""A fixed reference loop that measures how fast the machine runs right now.

On a shared machine the speed of one CPU drifts by up to a factor of two
within seconds to minutes, as other tenants load the cores.  Identical rounds
of a workload then differ by that factor, and so do whole runs.  Timing this
loop next to each round and each set-up gives the speed factor at that
moment, and the benchmark reports its timings in reference seconds: the
seconds they would have taken on a machine where the loop takes
``REFERENCE_S``.

Most of the loop's time is BLAS matmuls the size of a pair-kernel MLP layer;
the rest is elementwise numpy ops chained through closures, as in the
autodiff engine.  Of the loops tried, this mix tracked the workloads'
slowdown best without overshooting it (see README).  The loop does not
import the program, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# about the loop's time on the idle 2-CPU Xeon at 2.0 GHz named in README,
# so that there a reference second is close to a wall-clock second
REFERENCE_S = 0.1


class _Node:
    __slots__ = ("data", "vjp")

    def __init__(self, data, vjp):
        self.data, self.vjp = data, vjp


def reference_loop_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(24, 24, 16))
    w = rng.normal(size=(16, 32))
    pairs = rng.normal(size=(2048, 64))
    wp = rng.normal(size=(64, 64)) / 8.0
    start = time.perf_counter()
    for _ in range(20):
        nodes, x = [], a
        for _ in range(40):
            y = np.exp(-0.1 * x * x)
            nodes.append(_Node(y, lambda g, y=y: g * y))
            x = y
        np.tanh(x.reshape(-1, 16) @ w)
        g = np.ones_like(x)
        for node in reversed(nodes):
            g = node.vjp(g)
        z = pairs
        for _ in range(3):
            z = np.tanh(z @ wp)
    return time.perf_counter() - start
