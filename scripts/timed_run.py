#!/usr/bin/env python3
"""Run a command and report its wall time and peak resident memory.

The command's output and exit status pass through unchanged. One line goes
to stderr when it ends: ``LABEL: wall_s=<seconds> peak_rss_mb=<MB>``, where
the peak is the child's ``ru_maxrss`` (KiB on Linux) / 1024, the unit of
``perfbench/run.py``'s ``peak_rss_mb``. Nothing is gated on the numbers.

Usage:
    python3 scripts/timed_run.py LABEL COMMAND [ARG ...]
"""
from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv):
    if len(argv) < 2:
        print("usage: " + __doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    label, command = argv[0], argv[1:]
    start = time.perf_counter()
    code = subprocess.call(command)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"{label}: wall_s={wall:.2f} peak_rss_mb={peak:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
