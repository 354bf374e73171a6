"""One BLAS thread for every network pass.

The rule: every network pass runs on one BLAS thread.  `trainer.train`,
`evaluation.predict` and `evaluation.contour_grid` run under `one_thread()`;
together they cover training, its per-epoch predict, the scoring predicts
after it, `eval`, `contour`, each `sweep` worker and library callers.

OpenBLAS splits a product over its threads once m * n * k passes about
2.6e5, which these products do.  At these sizes the split product is
slower than one thread, and after it returns OpenBLAS's second thread
busy-waits on a core that other work needs, such as the other worker of a
`sweep`.  On a 2-vCPU VM: 200 back-to-back 1000 x 64 x 64 products took
5.2 ms each on two threads and 0.53 ms on one; a fresh process's 1000-row
`predict` or 300 x 300 `contour_grid` left about 125 ms of CPU burned
after it returned on two threads and none on one.  Capping `predict` and
`contour_grid` as well as `train` cut `sweep` `run_s_p50` from 1.69 to
1.42 s and its `cpu_s` from 2.94 to 2.35 s (12 pairs, `BENCH_69faffa.json`).

`one_thread()` caps the OpenBLAS that NumPy loaded at one thread for a
block or, as a decorator, for a call, and restores the previous count;
where no OpenBLAS with a thread-count setter is loaded it does nothing.
The count is process-wide, so other Python threads run under the cap
during the block too.  OpenBLAS splits a product over its rows and
columns, never along the summed dimension, so the thread count does not
change any result.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Iterator

import numpy as np  # noqa: F401  loads the BLAS that _controls looks for

# plain OpenBLAS, its 64-bit-integer build, and the scipy-openblas build
# that NumPy wheels bundle
_NAMES = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("openblas", "scipy_openblas")
    for suffix in ("", "64_")
]


@functools.cache
def _controls():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:  # Linux; elsewhere no cap
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _NAMES:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Run the block with OpenBLAS capped at one thread."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
