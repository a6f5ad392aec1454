"""The thread count of the loaded BLAS, for code that runs GEMMs on
several threads of its own (``CompiledPlan`` splits a batch across
the cores) and for the benchmark artifacts that record it."""

from __future__ import annotations

import ctypes
import functools


@functools.lru_cache(maxsize=None)
def blas_threads():
    """The thread count the loaded OpenBLAS runs with, asked of the
    library itself once per process; ``None`` where it cannot be found
    (no ``/proc/self/maps``, or another BLAS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return int(get())
    return None
