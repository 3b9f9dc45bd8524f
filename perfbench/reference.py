"""A fixed reference kernel that tracks how fast the machine is right now.

On a shared host the speed of a CPU drifts by tens of percent within
minutes, as other tenants load the same cores and caches, and the CPU time
of a pass drifts with it.  The kernel does a fixed amount of dense linear
algebra (the matrix exponential and symmetric eigensolve qepi's Fock layer
uses, on a fixed 200 x 200 matrix that fits in the L2 cache) and never
calls qepi, so no change to qepi changes it.  Timed beside each pass, it
gives the pass's cost in kernel units, from which that drift largely
cancels.  A scalar Python loop tracked the passes of the Gaussian
workloads worse than this kernel did, even though those passes are scalar
Python themselves.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

UNITS = 30                 # kernel runs per block, about 0.25 s in all
MATRIX = np.random.default_rng(20140203).standard_normal((200, 200)) * 0.05


def kernel() -> float:
    return (float(np.trace(scipy.linalg.expm(MATRIX)))
            + float(np.linalg.eigvalsh(MATRIX + MATRIX.T)[-1]))


def block() -> float:
    """Mean CPU seconds of one kernel run over UNITS consecutive runs."""
    start = time.process_time()
    for _ in range(UNITS):
        kernel()
    return (time.process_time() - start) / UNITS
