"""The OpenBLAS thread policy of slhnet's own linear algebra.

numpy and scipy wheels each bundle an OpenBLAS, and each copy has its own
thread count: numpy's (``numpy.libs``) serves ``@``, ``eigh``,
``eigvalsh``, ``svd`` and the Krylov Gram-Schmidt; scipy's
(``scipy.libs``) serves ``scipy.linalg.expm`` and the sparse solvers.
slhnet's dense calls are small (d <= ~100): on two threads of a 2-vCPU
machine they ran 4-70x slower, intermittently, and slowed the sparse work
around them.  An environment variable set from inside the package
reaches only a copy that has not loaded yet, and a caller has usually
imported numpy first, so ``single_thread`` sets both counts through the
libraries' own symbols.

The change is scoped: the caller's counts come back on exit.  A reader of
the count after a run, such as ``blas_threads`` in ``bench/worker.py``,
sees the caller's restored count, not the count the run used; the run's
manifest records that one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from pathlib import Path

import numpy
import scipy

# A user who set any of these chose the thread count; the policy keeps it.
USER_SETTINGS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# (copy, package, library directory, thread-count symbol with {} = get/set)
_COPIES = (
    ("numpy", numpy, "numpy.libs", "scipy_openblas_{}_num_threads64_"),
    ("scipy", scipy, "scipy.libs", "scipy_openblas_{}_num_threads"),
)


@functools.cache
def bundled() -> dict:
    """``{copy: (get, set)}`` for each bundled OpenBLAS found, by the
    package's library directory, as ``bench/worker.py`` finds numpy's."""
    found = {}
    for name, pkg, libdir, symbol in _COPIES:
        libs = Path(pkg.__file__).parent.parent / libdir
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            try:
                handle = ctypes.CDLL(lib)
                get = getattr(handle, symbol.format("get"))
                set_ = getattr(handle, symbol.format("set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found[name] = (get, set_)
            break
    return found


@contextlib.contextmanager
def single_thread():
    """Run the body with every bundled OpenBLAS on one thread, and restore
    each copy's count on exit.  Yields ``{copy: count}``, the counts the
    body runs with, or None when no bundled copy is found.

    It changes nothing when the user set one of ``USER_SETTINGS`` (the
    yielded counts are then the copies' own).  Nested entry is safe: the
    inner exit restores 1, and the outer one the caller's counts.  The
    counts are process-wide, so a caller running BLAS on other threads
    meanwhile runs it on one thread too.
    """
    copies = bundled()
    if not copies:
        yield None
        return
    saved = {name: get() for name, (get, _) in copies.items()}
    if any(os.environ.get(key) for key in USER_SETTINGS):
        yield saved
        return
    for _, set_ in copies.values():
        set_(1)
    try:
        yield {name: 1 for name in copies}
    finally:
        for name, (_, set_) in copies.items():
            set_(saved[name])
