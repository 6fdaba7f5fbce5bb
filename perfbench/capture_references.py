"""Re-capture ``references.json``: every cell's fingerprint at this tree.

Usage (from the root of a checkout)::

    python3 perfbench/capture_references.py [--output perfbench/references.json]

Each cell runs once under fifo and once under lifo with seed 0; the two
fingerprints must agree, and Table 1 / Figure 2 bandwidths and the
2048-node scale-out fingerprint must match the committed BENCH_9.json.
Run it only when a change is meant to move simulated results, and say
so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    run.use_checkout_sources()
    import cells
    import hooks

    fingerprints = {}
    problems = []
    refs = cells.References(cells.DEFAULT_REFERENCES, run.BENCH9)
    with hooks.Ledger() as ledger:
        for workload in cells.WORKLOADS:
            for cell in cells.workload_cells(workload, seed=0):
                key = f"{workload}/{cell.key}"
                by_tie = {}
                for tie_break in ("fifo", "lifo"):
                    result = cell.run(tie_break)
                    by_tie[tie_break] = cells.fingerprint(result)
                    problems += [f"{key}: {p}" for m in ledger.machines for p in m.verify()]
                    ledger.reset()
                if by_tie["fifo"] != by_tie["lifo"]:
                    problems.append(f"{key}: fifo and lifo fingerprints differ")
                fingerprints[key] = by_tie["fifo"]
                problems += [f"{key}: {p}" for p in refs.intrinsic_problems(cell, result)]
                print(f"{key} {by_tie['fifo']}", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(args.output or cells.DEFAULT_REFERENCES, "w") as fh:
        json.dump({"fingerprints": fingerprints}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
