"""The BLAS kernel and numpy SIMD loops that this process runs, in one line.

The byte goldens and the same-bits tripwires were recorded with OpenBLAS
0.3.31's SkylakeX kernel and numpy's AVX-512 loops; on another kernel or
SIMD level they fail by a few ulps, and this line names which ran. pytest
prints it in its header (``conftest.py``); ``python tests/blas_kernel.py``
prints it alone.
"""

import ctypes
import glob
import os

import numpy as np
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__


def openblas_core() -> str:
    """The core that numpy's bundled OpenBLAS loaded at run time, "unknown" for another BLAS.

    ``OPENBLAS_CORETYPE`` asks for a core; OpenBLAS falls back without a word
    to another one for a type the CPU cannot run, so only this says which ran.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def simd_extensions() -> list:
    """numpy's baseline SIMD extensions and the dispatched ones it found on this CPU."""
    return list(__cpu_baseline__) + [f for f in __cpu_dispatch__ if __cpu_features__[f]]


def kernel_line() -> str:
    return f"OpenBLAS core: {openblas_core()}; numpy {np.__version__} SIMD: {' '.join(simd_extensions())}"


if __name__ == "__main__":
    print(kernel_line())
