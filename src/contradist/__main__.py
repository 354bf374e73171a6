"""The `contradist` command's entry point.

The installed script and `python -m contradist` run `main`; `python -m
contradist.cli` runs `start_command` before its own imports.  Either way the
process sets its OpenBLAS thread default before NumPy loads, so OpenBLAS
starts with one thread instead of one per core (see `contradist.blas`).
This module loads no NumPy, and importing it changes no environment
variable: only `start_command` does.
"""

import os
import sys


def start_command() -> None:
    """Default OPENBLAS_NUM_THREADS to 1; takes effect only before NumPy loads."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main() -> int:
    start_command()
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
