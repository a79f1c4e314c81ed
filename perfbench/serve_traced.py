"""``slp serve`` with the benchmark's layer wrappers installed.

Usage: ``serve_traced.py DUMP_DIR [slp serve arguments...]``.  The wrappers
go in before the service forks its worker pool, so the workers inherit
them; every process writes its counters into ``DUMP_DIR`` when it exits.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer(sys.argv[1])
    tracing.install(tracer)
    from repro.server.cli import serve_main

    try:
        return serve_main(sys.argv[2:])
    finally:
        tracer.dump("server")


if __name__ == "__main__":
    sys.exit(main())
