"""One OpenBLAS thread inside the library's public entry points.

The library's matrices are at most a few thousand by a few hundred, where
BLAS threads cost more than they save: on a 2-core x86-64 VM with numpy
2.4.6 on OpenBLAS 0.3.31, the thin SVD of a 240 x 60 matrix took 1.0 ms
on one thread and 1.8-1.9 ms on two, and that of a 310 x 200 matrix 8.2
ms against 11.3-11.6 ms.  `one_blas_thread` wraps every public function
whose work includes an SVD or a product over a sampled system, so library
calls and CLI runs share this one pin.

numpy's OpenBLAS thread count belongs to the process, not to a Python
thread, so the pin is process-wide too: a count of the open entries of
every Python thread, kept under a lock.  Every entry adds to it, nested
ones too (stable_sampling_rate calling compute_lambda); if the count was
0, the entry reads the environment, saves the current thread count and
sets it to 1.  Every exit, also by an exception, takes its entry off the
count, and the exit that brings it back to 0 restores the saved thread
count.  So the first entry to open pins and the last to close restores,
however the entries of one thread nest or those of several interleave.
While any entry is open, numpy calls on every thread run on one BLAS
thread.  A count exported in OPENBLAS_NUM_THREADS or OMP_NUM_THREADS wins:
the entry that would pin then leaves the BLAS alone.  So does any BLAS
other than OpenBLAS, or an OpenBLAS without the thread-count symbols.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading

import numpy as np

__all__ = ["THREAD_VARS", "one_blas_thread", "openblas_thread_calls"]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_lock = threading.Lock()
# the entries open on every Python thread, and what the exit of the last
# one restores: (set, count) saved by the entry that pinned, or None if it
# pinned nothing
_open_entries = 0
_restore = None


@functools.cache
def openblas_thread_calls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    None for any other BLAS or when the symbols are missing.  The symbols
    are looked up through numpy's own linalg extension, which is loaded
    and links the BLAS, so this loads no library.  The lookup is made once
    per process: the BLAS a process has loaded does not change.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 can only print its configuration
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    prefix = {"scipy-openblas": "scipy_openblas", "openblas": "openblas"}.get(blas.get("name"))
    if prefix is None:
        return None
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for suffix in ("64_", ""):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _pin():
    """Set one thread unless a count is exported; the (set, count) to restore, or None.

    The environment is read on every entry that would pin, since it may
    change between calls.
    """
    for name in THREAD_VARS:
        if os.environ.get(name):
            return None
    calls = openblas_thread_calls()
    if calls is None:
        return None
    get, set_ = calls
    previous = get()
    set_(1)
    return set_, previous


def one_blas_thread(fn):
    """Run fn with numpy's OpenBLAS on one thread (module docstring)."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        global _open_entries, _restore
        with _lock:
            if _open_entries == 0:
                _restore = _pin()
            _open_entries += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _open_entries -= 1
                if _open_entries == 0 and _restore is not None:
                    set_, previous = _restore
                    _restore = None
                    set_(previous)

    return pinned
