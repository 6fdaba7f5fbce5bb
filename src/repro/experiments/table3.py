"""Table 3: prefetching with different stripe-unit sizes.

Paper section 4.3: "Table 3 summarizes results for varying stripe units
with prefetching.  Given that no delay was introduced between requests,
the results are consistent with the no prefetching case.  For smaller
request sizes, the throughputs are less than the throughputs of the no
prefetching case due to the prefetching overhead."

Stripe units resolved from the OCR as 16KB, 64KB and 1024KB (the text
shows "su=6KB" and "su=04KB" with leading digits lost).
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

#: Stripe units swept by the paper (OCR-resolved).
TABLE3_STRIPE_UNITS_KB = (64, 16, 1024)


def run_table3(
    request_sizes_kb: Sequence[int] = DEFAULT_REQUEST_SIZES_KB,
    stripe_units_kb: Sequence[int] = TABLE3_STRIPE_UNITS_KB,
    rounds: int = 16,
    n_compute: int = 8,
    n_io: int = 8,
) -> ExperimentTable:
    """Reproduce Table 3: read bandwidth with prefetching per stripe unit."""
    table = ExperimentTable(
        title=(
            "Table 3: PFS Read Performance with prefetching for different "
            "Stripe unit sizes [MB/s]"
        ),
        columns=["request_kb", "file_mb"]
        + [f"bw_su={su}KB" for su in stripe_units_kb],
    )
    for size_kb in request_sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, n_compute, rounds)
        row = [size_kb, file_size / (1024 * KB)]
        for su_kb in stripe_units_kb:
            report = run_collective(
                request_size=request,
                file_size=file_size,
                compute_delay=0.0,
                iomode=IOMode.M_RECORD,
                prefetch=True,
                pfs=PFSConfig(stripe_unit=su_kb * KB),
                n_compute=n_compute,
                n_io=n_io,
            )
            row.append(report.collective_bandwidth_mbps)
        table.add_row(*row)
    table.notes.append("no delay between requests; prefetching enabled")
    return table


def run_table3_baseline(
    request_sizes_kb: Sequence[int] = DEFAULT_REQUEST_SIZES_KB,
    stripe_units_kb: Sequence[int] = TABLE3_STRIPE_UNITS_KB,
    rounds: int = 16,
) -> ExperimentTable:
    """The matching no-prefetch sweep ("consistent with the no
    prefetching case") used by the shape check."""
    table = ExperimentTable(
        title="Table 3 baseline (no prefetching) [MB/s]",
        columns=["request_kb"] + [f"bw_su={su}KB" for su in stripe_units_kb],
    )
    for size_kb in request_sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, 8, rounds)
        row = [size_kb]
        for su_kb in stripe_units_kb:
            report = run_collective(
                request_size=request,
                file_size=file_size,
                iomode=IOMode.M_RECORD,
                prefetch=False,
                pfs=PFSConfig(stripe_unit=su_kb * KB),
            )
            row.append(report.collective_bandwidth_mbps)
        table.add_row(*row)
    return table


def check_table3_shape(with_prefetch: ExperimentTable, baseline: ExperimentTable) -> Optional[str]:
    """Prefetch results track the no-prefetch sweep within tolerance."""
    su_columns = [c for c in with_prefetch.columns if c.startswith("bw_su=")]
    for column in su_columns:
        for size, pf, base in zip(
            with_prefetch.column("request_kb"),
            with_prefetch.column(column),
            baseline.column(column),
        ):
            ratio = pf / base if base > 0 else 0.0
            if not 0.7 <= ratio <= 1.2:
                return (
                    f"{column} at {size}KB: prefetch/no-prefetch ratio "
                    f"{ratio:.2f} not consistent"
                )
    return None


def main() -> None:  # pragma: no cover
    table = run_table3()
    print(table.render())
    baseline = run_table3_baseline()
    print(baseline.render())
    problem = check_table3_shape(table, baseline)
    print(f"shape check: {'OK' if problem is None else problem}")


if __name__ == "__main__":  # pragma: no cover
    main()
