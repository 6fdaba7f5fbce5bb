"""Table 4: prefetching with different stripe groups.

Paper section 4.4: "The measurements were obtained using two sets of
stripegroups, namely striping across all 8 nodes and striping across 1
node.  [...] With prefetching, we observe a maximum speedup by a factor
of [digit lost].  Again, no delays were introduced between requests.
Due to the prefetching overhead which is more pronounced when the read
request sizes are small, the speedup is less than the no prefetching
case for 64KB."

R1 = bandwidth with stripe group 1, R2 = with stripe group 8; the table
reports both and the R2/R1 speedup, with and without prefetching.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import PFSConfig
from repro.experiments.common import (
    KB,
    DEFAULT_REQUEST_SIZES_KB,
    ExperimentTable,
    run_collective,
    scaled_file_size,
)
from repro.pfs import IOMode

TABLE4_STRIPE_GROUPS = (1, 8)


def run_table4(
    request_sizes_kb: Sequence[int] = DEFAULT_REQUEST_SIZES_KB,
    rounds: int = 16,
    n_compute: int = 8,
    n_io: int = 8,
    prefetch: bool = True,
) -> ExperimentTable:
    """Reproduce Table 4: bandwidth for stripe groups 1 and 8."""
    mode_label = "with" if prefetch else "without"
    table = ExperimentTable(
        title=(
            f"Table 4: PFS Read Performance {mode_label} Prefetching for "
            f"different Stripe groups, Number of Nodes = {n_compute} [MB/s]"
        ),
        columns=["request_kb", "file_mb", "bw_sgroup=1", "bw_sgroup=8", "speedup_R2/R1"],
    )
    for size_kb in request_sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, n_compute, rounds)
        bandwidths = {}
        for sgroup in TABLE4_STRIPE_GROUPS:
            report = run_collective(
                request_size=request,
                file_size=file_size,
                compute_delay=0.0,
                iomode=IOMode.M_RECORD,
                prefetch=prefetch,
                pfs=PFSConfig(stripe_factor=sgroup),
                n_compute=n_compute,
                n_io=n_io,
            )
            bandwidths[sgroup] = report.collective_bandwidth_mbps
        table.add_row(
            size_kb,
            file_size / (1024 * KB),
            bandwidths[1],
            bandwidths[8],
            bandwidths[8] / bandwidths[1] if bandwidths[1] > 0 else float("inf"),
        )
    table.notes.append("no delay between requests")
    return table


def check_table4_shape(
    with_prefetch: ExperimentTable, without_prefetch: ExperimentTable
) -> Optional[str]:
    """The paper's claims:

    - Striping across 8 I/O nodes beats striping across 1 (speedup > 1)
      at every request size.
    - With prefetching, the speedup at 64KB is *less* than the
      no-prefetch speedup at 64KB (overhead most pronounced there).
    """
    for size, sp in zip(with_prefetch.column("request_kb"), with_prefetch.column("speedup_R2/R1")):
        if sp <= 1.0:
            return f"stripe group 8 not faster than 1 at {size}KB (speedup {sp:.2f})"
    sp_with = with_prefetch.column("speedup_R2/R1")[0]
    sp_without = without_prefetch.column("speedup_R2/R1")[0]
    if sp_with > sp_without * 1.05:
        return (
            f"64KB speedup with prefetching ({sp_with:.2f}) should not exceed "
            f"the no-prefetch speedup ({sp_without:.2f})"
        )
    return None


def main() -> None:  # pragma: no cover
    with_pf = run_table4(prefetch=True)
    print(with_pf.render())
    without_pf = run_table4(prefetch=False)
    print(without_pf.render())
    problem = check_table4_shape(with_pf, without_pf)
    print(f"shape check: {'OK' if problem is None else problem}")


if __name__ == "__main__":  # pragma: no cover
    main()
