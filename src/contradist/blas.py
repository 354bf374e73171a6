"""One BLAS thread for the whole of `train`.

OpenBLAS splits a product over its threads once m * n * k passes about
2.6e5, which training's products do (batch forwards and backwards, the
kernel_mmd Gram products, the per-epoch pooled predict).  At these sizes
the split product is no faster than one thread (the 256-row Gram product
took 4.0 ms on two threads and 0.32 ms on one, on a 2-vCPU VM), costs up
to twice the CPU time, and waits for cores that other work holds, such as
the other worker of a `sweep`.  So `trainer.train` runs under
`one_thread()`; `eval`, `contour` and the scoring predicts after training
keep the default thread count.

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
