"""The `contradist` command's entry point.

The installed script and `python -m contradist` run `main`; `python -m
contradist.cli` runs `start_command` before its own imports and
`run_command` after them.  Either way the process sets its OpenBLAS thread
default before NumPy loads, so OpenBLAS starts with one thread instead of
one per core (see `contradist.blas`), and imports with the cyclic garbage
collector off.  This module loads no NumPy, and importing it changes no
environment variable and leaves the collector alone: only `start_command`
and `run_command` touch them.
"""

import gc
import os
import sys


def start_command() -> None:
    """Default OPENBLAS_NUM_THREADS to 1, which takes effect only before NumPy
    loads, and switch the collector off for the imports that follow."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()


def _drop_output(stream) -> None:
    """Point the stream's file descriptor at os.devnull, so that what it holds
    and what it is given later are dropped without an error."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


class _ClosedPipeStdout:
    """sys.stdout of a command process: once the reader has closed the pipe,
    what the command prints goes to os.devnull, and the command runs on."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text):
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            _drop_output(self._stream)
            return self._stream.write(text)


def run_command(main) -> int:
    """Run a command process's `main` after its imports, and return its status.

    The import-time objects (tens of thousands once NumPy and the package
    have loaded, nearly none of them garbage) are frozen before the
    collector is switched back on, so no collection during the command walks
    them.  After `main` returns everything is frozen again, so the
    interpreter's final collection at exit walks nothing.  That relies on
    every file a command writes being closed by its `with` block before
    `main` returns: none waits for a collection to be flushed and closed.

    A reader that closes stdout early (`contradist eval ... | head -1`) is not
    an error: the status stays the one `main` returns.  Any other error
    writing stdout ends in one `error:` line and status 2, also when it comes
    from the output still buffered after `main` returns.

    Call it once per process, from the entry point: it replaces sys.stdout.
    `cli.main` and the library leave the collector and stdout alone.
    """
    stdout = sys.stdout
    if stdout is not None:  # None when the process started without fd 1
        sys.stdout = _ClosedPipeStdout(stdout)
    gc.freeze()
    gc.enable()
    try:
        status = main()
    finally:
        gc.freeze()
    try:
        if stdout is not None:
            stdout.flush()
    except OSError as exc:
        _drop_output(stdout)  # so the interpreter's own flush at exit does not fail again
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return status


def main() -> int:
    start_command()
    from .cli import main as run

    return run_command(run)


if __name__ == "__main__":
    sys.exit(main())
