"""Run a block of code with a given OpenBLAS thread count.

The numpy and scipy wheels each bundle their own OpenBLAS, and by default
each copy spreads every call over all cores. For small products, such as
the matrix-vector products and updates of one L-BFGS-B iteration, that
costs thread wake-ups and doubles the CPU time for no speed-up, while the
large factorisations do gain from more threads. ``blas_threads(n)`` sets
the thread count of every OpenBLAS copy already loaded in the process for
the length of a ``with`` block, and restores each copy's previous count on
exit, also when the block raises. task1 runs each logistic-regression fit
on one thread and its factorisations on the default count; its results do
not depend on the count. task2 holds every copy at one thread for the
length of its pool of scoring passes, since the passes fill the cores.

The copies are looked up, when the block is entered, among the bundled
libraries beside the numpy and scipy packages (``numpy.libs`` and
``scipy.libs``), and each is opened only if it is already loaded, so the
helper never loads one. scipy loads its copy with ``scipy.linalg``,
``scipy.optimize`` or ``scipy.special``, not with ``scipy.sparse``: touch
the subpackage a block calls before entering it. Where no OpenBLAS is found
this way (MKL, Accelerate, a system BLAS, Windows), the helper does
nothing.

The count belongs to the process, not to a thread, so the helper is not for
concurrent use from pool threads: one thread's exit would restore the count
under another thread's block. Enter it instead from the thread that owns
the pool, around the whole pool: the block then outlasts every task, and
every thread of the pool runs at the block's count.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy
import scipy

# auditwheel puts a Linux wheel's bundled libraries in <package>.libs
LIB_DIRS = tuple(os.path.dirname(package.__file__) + ".libs" for package in (numpy, scipy))

# the scipy-openblas builds in recent wheels prefix their symbols, older
# builds do not; the ILP64 build in numpy's wheels appends 64_
_SYMBOLS = [
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]

# loaded copies by path, as (set, get); a loaded library stays loaded
_found: dict[str, tuple] = {}


def _thread_controls(path: str):
    """The (set, get) thread-count functions of the OpenBLAS at ``path``.

    None when it is not loaded in this process or exports neither pair.
    """
    if path in _found:
        return _found[path]
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:  # not loaded (yet)
        return None
    for set_name, get_name in _SYMBOLS:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        _found[path] = (set_threads, get_threads)
        return _found[path]
    return None


def loaded_openblas() -> dict:
    """Each OpenBLAS copy in ``LIB_DIRS`` that is loaded, by path, as (set, get)."""
    if not hasattr(os, "RTLD_NOLOAD"):  # Windows: no way to open only if loaded
        return {}
    paths = sorted({p for d in LIB_DIRS for p in glob.glob(os.path.join(d, "*openblas*"))})
    return {p: c for p in paths if (c := _thread_controls(p)) is not None}


@contextmanager
def blas_threads(n: int):
    """Run the block with every loaded OpenBLAS copy on ``n`` threads."""
    controls = list(loaded_openblas().values())
    previous = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(n)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)
