"""The thread count of numpy's OpenBLAS, read and set in-process.

Processes that share the cores out among themselves — the process
pools' forked workers (:mod:`repro.fl.execution`) and a campaign's run
workers (:mod:`repro.campaign.pool`) — run BLAS on one thread each. A
forked OpenBLAS keeps its parent's thread count, and an environment
variable is read only when the library loads, so the count is set
through OpenBLAS's own set-threads function, looked up with ``ctypes``
in the library numpy loaded. Under another BLAS the functions are
absent and nothing here does anything: set that BLAS's own thread
variable (such as ``MKL_NUM_THREADS=1``) instead.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["blas_threads", "set_blas_threads", "one_blas_thread"]

# OpenBLAS's set-threads symbol under the names numpy's wheels have
# shipped it (scipy-openblas, then the older 64-bit-integer build); the
# get-threads twin is the same name with ``_get_``.
_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@functools.lru_cache(maxsize=None)
def _thread_functions():
    """The ``(set, get)`` threads functions of numpy's OpenBLAS, or ``None``.

    Looked up through numpy's own extension module, whose dependencies
    hold the BLAS it was linked against. Cached, so a process that
    resolves them before forking hands its children the lookup.
    """
    try:
        from numpy._core import _multiarray_umath as linked
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as linked
    try:
        library = ctypes.CDLL(linked.__file__)
    except OSError:
        return None
    for name in _SET_THREADS:
        setter = getattr(library, name, None)
        getter = getattr(library, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            getter.argtypes, getter.restype = (), ctypes.c_int
            return setter, getter
    return None


def blas_threads() -> Optional[int]:
    """The thread count numpy's OpenBLAS runs at, or ``None`` under another BLAS."""
    functions = _thread_functions()
    return None if functions is None else functions[1]()


def set_blas_threads(count: int) -> None:
    """Run numpy's OpenBLAS on ``count`` threads; nothing under another BLAS."""
    functions = _thread_functions()
    if functions is not None:
        functions[0](count)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run BLAS on one thread for the block, then at the count it had."""
    before = blas_threads()
    if before is None or before == 1:
        yield
        return
    set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(before)
