"""Handover and SIR coverage analysis for a 3D-mobile aerial user with a
directional antenna in a Poisson cellular network: numerical evaluation of
the closed-form probabilities plus a Monte Carlo validation simulator.
Nothing is re-exported: import each entry point from its module
(`uavcov.analytic.coverage_probability`, `uavcov.cli.run_sweep`, ...)."""

import os

__version__ = "0.1.0"

# glibc's mallopt parameters, and the values the package sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20   # glibc's 64-bit maximum; mallopt refuses more


def _keep_freed_buffers() -> bool:
    """Keep freed numpy buffers in glibc's heap for reuse: serve blocks of
    up to 32 MiB from the heap, not from fresh mmaps, and return the heap's
    free top to the OS only beyond 64 MiB. By default glibc unmaps each
    freed station- or grid-sized temporary, and the next one page-faults
    its memory in again. Whether both values were set; a no-op on any other
    C library, and never raises. Called at import, so every process that
    runs the engines, pool workers included, sets it."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not libc or not libc.startswith("glibc"):
        return False
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1])


_keep_freed_buffers()
