"""Run the contradist command line with the benchmark's tracer installed.

    PERFBENCH_TRACE_DIR=<dir> PYTHONPATH=src python3 perfbench/traced_cli.py <contradist args>

The command's own process and each of its forked sweep workers write their
spans into <dir> as JSON files.
"""

import os
import sys

import bench_trace


def main() -> int:
    out = os.environ[bench_trace.TRACE_DIR_ENV]
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer, dump_dir=out)
    from contradist import cli

    tracer.enabled = True
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
        tracer.dump(out, "main")


if __name__ == "__main__":
    sys.exit(main())
