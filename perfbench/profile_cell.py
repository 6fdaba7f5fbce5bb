"""Per-layer profile of one benchmark cell.

Runs one named cell of a workload under cProfile and the traced run's
layer wrappers, then folds host self-time by layer with the same map the
traced run uses (``hooks.LAYER_PREFIXES``), so a perf change starts from
the attribution the benchmark will judge it by.  Usage (from the root of
a checkout)::

    python3 perfbench/profile_cell.py --workload checkpoint-restart \\
        --cell ckpt:1024kb:healthy [--top 15] [--seed 0]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cell", required=True, help="cell key, e.g. table1:1024kb:prefetch=True")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=15, help="functions listed by self time")
    args = parser.parse_args(argv)
    run.use_checkout_sources()
    import cells
    import hooks

    matches = [c for c in cells.workload_cells(args.workload, args.seed) if c.key == args.cell]
    if not matches:
        keys = ", ".join(c.key for c in cells.workload_cells(args.workload, args.seed))
        print(f"unknown cell {args.cell!r}; {args.workload} has: {keys}", file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    with hooks.Ledger() as ledger, hooks.LayerTrace() as trace:
        start = time.perf_counter()
        with trace.recording():
            profiler.enable()
            matches[0].run("fifo")
            profiler.disable()
        wall_s = time.perf_counter() - start
        events = ledger.events
    stats = pstats.Stats(profiler)
    folded = hooks.fold_self_time(stats)
    total = sum(folded.values())
    print(f"{args.workload} {args.cell}: {wall_s:.3f} s profiled wall, {events} events")
    print(f"{'layer':<18} {'self_s':>9} {'share':>7}")
    for layer in sorted(folded, key=folded.get, reverse=True):
        if folded[layer] > 0:
            print(f"{layer:<18} {folded[layer]:9.3f} {folded[layer] / total:7.1%}")
    print("\nboundary counts:")
    for name, unit in hooks.TRACE_COUNTS:
        print(f"  {name:<30} {trace.counts.get(name, 0):>14.6g} {unit}")
    print(f"\ntop {args.top} functions by self time:")
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)[: args.top]
    for (filename, line, func), (_cc, calls, self_s, _cum, _callers) in rows:
        layer = hooks.layer_of(filename) or "(charged to caller)"
        print(f"  {self_s:8.3f} s {calls:>9} calls  {layer:<20} {func} ({filename}:{line})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
