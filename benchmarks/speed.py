"""Shared wall-clock speed harness for the bench suite.

The kernel fast paths target the *default* configuration (no faults, no
trace, no telemetry) -- the configuration every golden fingerprint runs
under.  This module defines, for every Table 1 / Figure 2 cell, a
default-configuration runner and a best-of-N wall-clock measurement,
the stopwatch behind ``run_bench.py``'s ``wall_time_s`` / ``cells_per_s``
columns.

Usage (prints the ``{cell_key: wall_seconds}`` JSON; ``--output`` writes
it to a file instead)::

    PYTHONPATH=src python benchmarks/speed.py [--cells KEY ...] [--output times.json]

Wall seconds are only comparable within one session on one host: time
two trees back to back, never against a file captured elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.experiments.common import (  # noqa: E402
    KB,
    DEFAULT_REQUEST_SIZES_KB,
    run_collective,
    run_separate_files,
    scaled_file_size,
)
from repro.pfs import IOMode  # noqa: E402

FIGURE2_MODES = (IOMode.M_UNIX, IOMode.M_LOG, IOMode.M_SYNC, IOMode.M_RECORD, IOMode.M_ASYNC)

#: Wall times are min-of-N to suppress scheduler noise.
DEFAULT_REPEATS = 3


def default_cell_runners(
    t1_sizes_kb=DEFAULT_REQUEST_SIZES_KB,
    f2_sizes_kb=DEFAULT_REQUEST_SIZES_KB,
    rounds: int = 16,
) -> Dict[str, Callable[[], object]]:
    """Default-configuration runner per bench cell key.

    These are the runs the golden fingerprints pin: fifo tie-break, no
    faults, no trace, no telemetry -- the configuration the ``>= 5x``
    kernel speed target is defined against.
    """
    runners: Dict[str, Callable[[], object]] = {}
    for size_kb in t1_sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, rounds=rounds)
        for prefetch in (False, True):
            key = f"table1:{size_kb}kb:prefetch={prefetch}"
            runners[key] = (
                lambda request=request, file_size=file_size, prefetch=prefetch:
                run_collective(
                    request_size=request,
                    file_size=file_size,
                    iomode=IOMode.M_RECORD,
                    prefetch=prefetch,
                    rounds=rounds,
                )
            )
    for size_kb in f2_sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, rounds=rounds)
        for mode in FIGURE2_MODES:
            key = f"figure2:{size_kb}kb:{mode.name}"
            runners[key] = (
                lambda request=request, file_size=file_size, mode=mode:
                run_collective(
                    request_size=request,
                    file_size=file_size,
                    iomode=mode,
                    rounds=rounds,
                    async_partition=False,
                )
            )
        key = f"figure2:{size_kb}kb:SEPARATE_FILES"
        runners[key] = (
            lambda request=request, rounds=rounds: run_separate_files(
                request_size=request,
                file_size_per_node=request * rounds,
            )
        )
    return runners


def time_runner(runner: Callable[[], object], repeats: int = DEFAULT_REPEATS) -> float:
    """Best-of-*repeats* wall seconds for one cell run."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        runner()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def measure_all(
    rounds: int = 16, repeats: int = DEFAULT_REPEATS, cells=None, verbose: bool = True
) -> Dict[str, float]:
    """Wall-time every cell, or just the keys listed in *cells*
    (unknown keys raise -- a typo'd CI subset should fail loudly)."""
    runners = default_cell_runners(rounds=rounds)
    if cells is not None:
        missing = [key for key in cells if key not in runners]
        if missing:
            raise KeyError(f"unknown bench cells: {missing}")
        runners = {key: runners[key] for key in cells}
    times: Dict[str, float] = {}
    for key, runner in runners.items():
        times[key] = round(time_runner(runner, repeats=repeats), 4)
        if verbose:
            print(f"  {key}: {times[key]:.3f}s", flush=True)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=None,
        help="write the {cell_key: wall_seconds} JSON here (default: stdout)",
    )
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--cells", nargs="+", default=None, metavar="KEY",
        help="measure only these cell keys (e.g. "
             "'table1:1024kb:prefetch=True'); default: all 40 cells",
    )
    args = parser.parse_args(argv)
    # With no --output the JSON is the only thing on stdout.
    times = measure_all(
        rounds=args.rounds, repeats=args.repeats, cells=args.cells, verbose=args.output is not None
    )
    payload = {
        "note": "best-of-%d wall seconds per default-config cell" % args.repeats,
        "rounds": args.rounds,
        "cells": times,
    }
    if args.output is None:
        print(json.dumps(payload, indent=2))
        return 0
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.output)} ({len(times)} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
