#!/usr/bin/env python
"""Tuning PFS stripe attributes for a workload (paper sections 4.3/4.4).

"Stripe attributes describe how the file is to be laid out via
parameters such as the stripe unit size ... and the stripe group."

This example takes one workload -- 8 nodes reading 256KB records with a
little computation between reads -- and measures it across a grid of
stripe units and stripe factors, printing the grid and the best cell.
It reproduces the paper's two findings at once: more I/O nodes in the
stripe group win (Table 4), and the stripe unit interacts with the
request size (Table 3).

Run:  python examples/stripe_tuning.py
"""

from repro.config import PFSConfig
from repro.experiments.common import run_collective, scaled_file_size
from repro.pfs import IOMode

KB = 1024

REQUEST = 256 * KB
DELAY_S = 0.025
STRIPE_UNITS_KB = (16, 64, 256, 1024)
STRIPE_FACTORS = (1, 2, 4, 8)


def main() -> None:
    print(__doc__)
    file_size = scaled_file_size(REQUEST, 8, 16)
    print(
        f"Workload: 8 nodes x 256KB records, {DELAY_S * 1000:.0f}ms compute "
        f"between reads, prefetching on.\n"
    )
    label = "su / factor"
    header = f"{label:>12}" + "".join(f"{f:>10}" for f in STRIPE_FACTORS)
    print(header)
    print("-" * len(header))
    best = (0.0, None, None)
    for su_kb in STRIPE_UNITS_KB:
        cells = []
        for factor in STRIPE_FACTORS:
            report = run_collective(
                request_size=REQUEST,
                file_size=file_size,
                compute_delay=DELAY_S,
                iomode=IOMode.M_RECORD,
                prefetch=True,
                pfs=PFSConfig(stripe_unit=su_kb * KB, stripe_factor=factor),
            )
            bw = report.collective_bandwidth_mbps
            cells.append(bw)
            if bw > best[0]:
                best = (bw, su_kb, factor)
        print(f"{su_kb:>10}KB" + "".join(f"{c:>10.2f}" for c in cells))
    print()
    bw, su_kb, factor = best
    print(
        f"Best: stripe unit {su_kb}KB across {factor} I/O nodes "
        f"({bw:.2f} MB/s).\n"
        f"Wider stripe groups win (paper Table 4); past that, match the\n"
        f"stripe unit to request_size/stripe_factor so every I/O node\n"
        f"contributes to every request (paper Table 3 / Figure 3)."
    )


if __name__ == "__main__":
    main()
