"""Run numerical entry points with every loaded OpenBLAS at one thread.

A fit makes thousands of small dense products and factorizations (the PLS
systems have a few hundred rows), for which OpenBLAS's worker threads cost
more than they save.  ``serial_blas`` runs a call at one BLAS thread and then
restores the previous counts.  The package itself loads only numpy, so the
pin finds numpy's bundled OpenBLAS; if the caller has loaded scipy, which
bundles its own, that one is pinned too.  Libraries are found on the first
decorated call from ``/proc/self/maps``, so a scipy loaded after that call
is not pinned.  Where no OpenBLAS thread control is found (not Linux, MKL,
Accelerate) the decorator does nothing.

The thread-control symbols carry a ``scipy_`` prefix in both bundles:
numpy's wheels ship ``libscipy_openblas64_`` (``scipy_openblas_get_num_threads64_``),
scipy's ship ``libscipy_openblas`` (``scipy_openblas_get_num_threads``).
A plain OpenBLAS exports the unprefixed names.
"""

from __future__ import annotations

import ctypes
import functools
import threading

# (get, set) symbol pairs: the scipy-openblas builds bundled by numpy (64-bit integers)
# and by scipy, then a plain OpenBLAS
_SYMBOLS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]

_lock = threading.Lock()
_depth = 0
_saved: list[tuple[object, int]] = []
_found: list[tuple[object, object]] | None = None


def controls() -> list[tuple[object, object]]:
    """(get_num_threads, set_num_threads) of every loaded OpenBLAS, looked up once."""
    global _found
    if _found is None:
        try:
            with open("/proc/self/maps") as fh:
                fields = [line.split(maxsplit=5) for line in fh]
        except OSError:
            fields = []
        found = []
        for path in sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}):
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # e.g. a library replaced on disk since it was loaded
                continue
            for get_name, set_name in _SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    found.append((get, set_))
                    break
        _found = found
    return _found


def serial_blas(func):
    """Run ``func`` with every OpenBLAS at one thread; the outermost exit restores the counts."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        global _depth
        with _lock:
            if _depth == 0:
                _saved[:] = [(set_, get()) for get, set_ in controls()]
                for set_, _ in _saved:
                    set_(1)
            _depth += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for set_, count in _saved:
                        set_(count)

    return wrapper
