"""A fixed reference kernel, timed next to every measured operation.

On a shared host the speed of a CPU changes by tens of percent within
seconds (another tenant on the sibling hyperthread, frequency changes),
and process CPU time changes with it. Every end-to-end time is therefore
divided by the time of this kernel measured around it and multiplied by
``NOMINAL_S``: the times are given at the speed at which the kernel takes
``NOMINAL_S``. The kernel mixes the kinds of work the workloads do
(interpreted Python, small numpy calls, a mid-sized LAPACK eigensolve)
and never calls the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one kernel run that the reported times are scaled to: about its
#: time on an idle core of a 2-vCPU VM. It only sets the scale of the figures.
NOMINAL_S = 5e-3

_RNG = np.random.default_rng(20131226)
_SMALL = _RNG.standard_normal((3, 3))
_SMALL = _SMALL + _SMALL.T
_MEDIUM = _RNG.standard_normal((32, 32))
_MEDIUM = _MEDIUM + _MEDIUM.T


def kernel():
    total = 0
    for i in range(10000):
        total += (i * i) % 7
    for _ in range(150):
        np.linalg.eigvalsh(_SMALL)
    for _ in range(25):
        np.linalg.eigh(_MEDIUM)
    return total


def timed():
    """Wall-clock seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds, before, after):
    """``seconds`` measured between kernel runs timed ``before`` and ``after``, at nominal speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
