"""One BLAS thread for every network pass.

The rule: every network pass runs on one BLAS thread.  `trainer.train` and
the chunk loop under `evaluation.predict` and `evaluation.contour_grid` run
under `one_thread()`; together they cover training, the scoring predicts
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
during the block too.

The `contradist` command's processes go further and start OpenBLAS with
one thread: `contradist.__main__` sets OPENBLAS_NUM_THREADS to 1 before
NumPy loads, unless it is already set, so an explicit count wins.  Else
`import numpy` starts OpenBLAS's worker thread, which no capped call uses.
On a 2-vCPU VM (medians of 30 alternating pairs) the default cut the CPU
of the `pipeline` benchmark's commands by 0.06-0.09 s each: `gen-data` from
0.30 to 0.21 s, `train` from 0.45 to 0.36 s, `eval` from 0.27 to 0.21 s and
`contour` from 0.58 to 0.52 s.  A program that only imports the package
keeps its environment and OpenBLAS's default count, and relies on
`one_thread()`.

Whether the thread count changes a result depends on the kernel OpenBLAS
picks for the CPU, which `core_name()` reports.  Measured with
scipy-openblas 0.3.31 on a 2-vCPU x86_64 VM: on `SkylakeX`, the kernel it
picks there, a classifier step, the generator loss and an 8,100-row
contour forward are bit-equal on one and two threads (tests/test_blas.py).
On `Haswell`, forced with OPENBLAS_CORETYPE on the same VM, the two-thread
contour forward differs from the one-thread one in 2 rows by 5.6e-17.
Training always runs on one thread, so fixed-seed results on one machine
stay deterministic on either kernel.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Iterator

import numpy as np  # noqa: F401  loads the BLAS that _controls looks for

# (thread-count getter, setter, core-name getter) of plain OpenBLAS, its
# 64-bit-integer build, and the scipy-openblas build that NumPy wheels bundle
_NAMES = [
    [f"{prefix}_{fn}{suffix}" for fn in ("get_num_threads", "set_num_threads", "get_corename")]
    for prefix in ("openblas", "scipy_openblas")
    for suffix in ("", "64_")
]


@functools.cache
def _controls():
    """(get, set, corename) functions of the loaded OpenBLAS (corename may be None), or None."""
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
        for names in _NAMES:
            get, set_, corename = (getattr(lib, name, None) for name in names)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                if corename is not None:
                    corename.restype, corename.argtypes = ctypes.c_char_p, []
                return get, set_, corename
    return None


def core_name() -> str | None:
    """The kernel the loaded OpenBLAS picked for this CPU ("SkylakeX"), or None."""
    controls = _controls()
    if controls is None or controls[2] is None:
        return None
    return controls[2]().decode()


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Run the block with OpenBLAS capped at one thread."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_, _ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
