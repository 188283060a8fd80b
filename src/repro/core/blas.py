"""Process-wide OpenBLAS thread budget shared by every running server.

Each :class:`~repro.core.executor.ExactExecutor` call is one float64 BLAS
product, and a server runs one per worker at a time.  OpenBLAS by default
threads every product over all cores, so ``W`` workers each starting a
multi-threaded product oversubscribe the machine, and the helper threads
spin after every call against the workers' own Python.  The budget keeps
the total at the core count: while servers run, BLAS gets
``max(1, usable_cpus // active_workers)`` threads, where ``active_workers``
sums the workers of every started, unclosed server.  The thread count found
before the first server registered comes back when the last one leaves.

The OpenBLAS thread count is one per process, so the budget is one per
process too (:data:`PROCESS_BUDGET`).  It finds the OpenBLAS that numpy
has already loaded and calls its set/get-threads entry points through
ctypes; with any other BLAS it changes nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Callable, Optional

#: Set/get entry points: numpy's bundled ILP64 build, then a system build.
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class OpenBLASThreads:
    """Get and set the thread count of one loaded OpenBLAS library."""

    def __init__(self, library: ctypes.CDLL, set_name: str, get_name: str) -> None:
        self._library = library  # keeps the handle alive with the functions
        self._set = getattr(library, set_name)
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._get = getattr(library, get_name)
        self._get.argtypes = []
        self._get.restype = ctypes.c_int

    def get(self) -> int:
        return int(self._get())

    def set(self, threads: int) -> None:
        self._set(threads)


def find_openblas() -> Optional[OpenBLASThreads]:
    """The thread control of the OpenBLAS numpy loaded, or ``None``.

    Reads the libraries mapped into this process (Linux ``/proc/self/maps``),
    so it finds a library numpy loaded with local symbol binding, and
    prefers one shipped inside numpy over any other OpenBLAS.
    """
    import numpy  # noqa: F401 - the library must be mapped before the scan

    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                # address perms offset dev inode [path]
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        return None
    for path in sorted(paths, key=lambda path: "numpy" not in path):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _ENTRY_POINTS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                return OpenBLASThreads(library, set_name, get_name)
    return None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class BlasBudget:
    """Shares the BLAS threads of one process among the running servers.

    ``find`` returns the library's thread control, or ``None`` when there is
    nothing to control; it is called once, at the first :meth:`acquire`.
    """

    def __init__(
        self,
        find: Callable[[], Optional[OpenBLASThreads]] = find_openblas,
        cpus: Callable[[], int] = usable_cpus,
    ) -> None:
        self._find = find
        self._cpus = cpus
        self._lock = threading.Lock()
        self._searched = False
        self._control: Optional[OpenBLASThreads] = None
        self._original: Optional[int] = None
        self._active = 0
        self._threads: Optional[int] = None

    @property
    def threads(self) -> Optional[int]:
        """BLAS threads applied now; ``None`` when no worker is registered
        or no OpenBLAS was found."""
        with self._lock:
            return self._threads

    def acquire(self, workers: int) -> Optional[int]:
        """Register ``workers`` more BLAS-calling workers and apply the new
        budget; returns the threads applied, or ``None`` if none could be."""
        with self._lock:
            if not self._searched:
                self._searched = True
                self._control = self._find()
            if self._control is not None and self._active == 0:
                self._original = self._control.get()
            self._active += workers
            return self._apply()

    def release(self, workers: int) -> None:
        """Unregister ``workers``; the last release restores the thread count
        found before the first :meth:`acquire`."""
        with self._lock:
            self._active -= workers
            if self._active > 0:
                self._apply()
                return
            self._active = 0
            self._threads = None
            if self._control is not None and self._original is not None:
                self._control.set(self._original)
                self._original = None

    def _apply(self) -> Optional[int]:
        if self._control is None:
            return None
        self._threads = max(1, self._cpus() // self._active)
        self._control.set(self._threads)
        return self._threads


#: The budget of this process, shared by every :class:`~repro.serving.Server`
#: in it.
PROCESS_BUDGET = BlasBudget()
