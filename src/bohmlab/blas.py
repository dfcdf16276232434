"""One OpenBLAS thread for a block of work, whatever thread count numpy
loaded OpenBLAS with: every task and every acceptance criterion runs so."""

import contextlib
import ctypes

_MAPPED_FILES = "/proc/self/maps"
# Thread-count calls by build: numpy >= 2 wheels (64-bit interface), scipy
# wheels, older numpy wheels, system builds.
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_",
                   "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_libraries():
    """(set, get) thread-count calls of every OpenBLAS mapped into this
    process; [] without /proc/self/maps (not Linux) or with another BLAS."""
    try:
        with open(_MAPPED_FILES) as fh:
            fields = (line.split(None, 5) for line in fh)
            paths = dict.fromkeys(f[5].strip() for f in fields
                                  if len(f) == 6 and "openblas" in f[5].lower())
    except OSError:
        return []
    libraries = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_CALLS:
            if hasattr(lib, name.format("set")):
                libraries.append((getattr(lib, name.format("set")),
                                  getattr(lib, name.format("get"))))
                break
    return libraries


@contextlib.contextmanager
def one_blas_thread():
    """Set every OpenBLAS in the process to one thread for the body, then
    give each its previous count back.  One thread makes eigh and the
    matrix products give the same bits whatever OPENBLAS_NUM_THREADS says,
    and leaves no worker thread spin-waiting between products."""
    libraries = _openblas_libraries()
    previous = [get() for _, get in libraries]
    for set_threads, _ in libraries:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(libraries, previous):
            set_threads(count)
