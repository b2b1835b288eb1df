"""Run `frobkit` with the benchmark's span or count wrappers installed.

    python bench/cli_boot.py span|count OUT.json -- <frobkit arguments>

The parent passes the moment it spawned this process (perf_counter, the
system-wide monotonic clock) in BENCH_SPAWNED, so the interpreter's start-up
shows as its own span. What the wrappers saw is written to OUT.json.
"""

import time

BOOTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

if __name__ == "__main__":
    mode, out_path, sep, *argv = sys.argv[1:]
    if mode not in ("span", "count") or sep != "--":
        sys.exit("usage: cli_boot.py span|count OUT.json -- ARGS...")
    spawned = float(os.environ.get("BENCH_SPAWNED", BOOTED))
    sys.exit(tracing.boot(mode, out_path, argv, spawned, BOOTED))
