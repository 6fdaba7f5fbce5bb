"""The benchmark's workloads: named cells, their references and checks.

A *cell* is one fresh-machine simulation: ``cell.run(tie_break)``
builds the machine, runs the workload to completion and returns a
result object whose canonical fingerprint
(:func:`repro.analysis.sanitizers.report_fingerprint`) must equal the
stored reference.  A *workload* is an ordered tuple of cells run one
after another in this process.

- ``paper-read``: the paper's 8+8 evaluation grid at rounds=16 -- Table 1
  (M_RECORD, prefetch off/on), Figure 2 (five modes plus separate files)
  and the Figure 4/5 balanced sweep (prefetch on, delays 0.025-0.2 s).
- ``checkpoint-restart``: every rank writes its M_RECORD checkpoint, then
  the job reads it back with prefetching and a state-rebuild compute
  delay, healthy and with one raid0 spindle failed from t=0.
- ``scale-mixed``: BENCH_9's largest scale-out cell (2048 nodes, 128
  tenants) plus a 512-node mixed-mode cell with staggered arrivals.

The workload seed drives ``Scenario.seed`` and the checkpoint record
content.  Neither moves a simulated number: the staggered schedule
ignores the seed by construction and record content is not timed, so
every reference fingerprint is seed-independent (scale results are
fingerprinted with the seed field zeroed).  The read-back content is
checked against the seeded records on every run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.sanitizers import report_fingerprint
from repro.config import MachineConfig, PFSConfig
from repro.experiments.common import (
    DEFAULT_REQUEST_SIZES_KB,
    KB,
    run_collective,
    run_separate_files,
    scaled_file_size,
)
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.metrics import BandwidthReport, report_from_handles
from repro.pfs import IOMode
from repro.scale import homogeneous_scenario, mixed_scenario, run_scenario
from repro.ufs.data import Data, SyntheticData
from repro.workloads import CollectiveWriteWorkload

WORKLOADS = ("paper-read", "checkpoint-restart", "scale-mixed")

PAPER_ROUNDS = 16
FIGURE2_MODES = (IOMode.M_UNIX, IOMode.M_LOG, IOMode.M_SYNC, IOMode.M_RECORD, IOMode.M_ASYNC)
BALANCED_DELAYS_S = (0.025, 0.05, 0.1, 0.2)

CHECKPOINT_SIZES_KB = (64, 256, 1024)
CHECKPOINT_ROUNDS = 8
#: Simulated seconds of state rebuild between two restart reads.
REBUILD_DELAY_S = 0.05

#: The cell of each workload that also runs under ``tie_break="lifo"``.
TIE_CHECK_CELL = {
    "paper-read": "table1:256kb:prefetch=True",
    "checkpoint-restart": "ckpt:64kb:degraded",
    "scale-mixed": "mixed:512n-32t",
}

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_REFERENCES = os.path.join(HERE, "references.json")


@dataclass(frozen=True)
class Cell:
    key: str
    run: Callable[[str], Any]
    #: Where BENCH_9.json records this cell: the Table 1 / Figure 2
    #: bandwidth, or the scale-out fingerprint.
    bench9_key: Optional[Tuple[str, int, str]] = None


@dataclass
class CheckpointResult:
    """One checkpoint-restart cell: the write and the read-back."""

    write: BandwidthReport
    read: BandwidthReport
    #: (record read back or None, record checkpointed) for every restart
    #: read.  :meth:`References.intrinsic_problems` compares the bytes after
    #: the cell's host time is taken; they are not part of the fingerprint.
    restart_reads: List[Tuple[Optional[Data], SyntheticData]] = field(
        default_factory=list, compare=False, repr=False
    )


# -- paper-read ----------------------------------------------------------------


def paper_cells() -> List[Cell]:
    cells = []
    for size_kb in DEFAULT_REQUEST_SIZES_KB:
        request = size_kb * KB
        file_size = scaled_file_size(request, rounds=PAPER_ROUNDS)

        def collective(tie_break, request=request, file_size=file_size, **kwargs):
            return run_collective(
                request_size=request,
                file_size=file_size,
                rounds=PAPER_ROUNDS,
                tie_break=tie_break,
                **kwargs,
            )

        for prefetch in (False, True):
            cells.append(
                Cell(
                    f"table1:{size_kb}kb:prefetch={prefetch}",
                    lambda tb, c=collective, p=prefetch: c(tb, prefetch=p),
                    ("table1", size_kb, str(prefetch)),
                )
            )
        for mode in FIGURE2_MODES:
            cells.append(
                Cell(
                    f"figure2:{size_kb}kb:{mode.name}",
                    lambda tb, c=collective, m=mode: c(tb, iomode=m, async_partition=False),
                    ("figure2", size_kb, mode.name),
                )
            )
        cells.append(
            Cell(
                f"figure2:{size_kb}kb:SEPARATE_FILES",
                lambda tb, r=request: run_separate_files(
                    request_size=r, file_size_per_node=r * PAPER_ROUNDS, tie_break=tb
                ),
                ("figure2", size_kb, "SEPARATE_FILES"),
            )
        )
        for delay in BALANCED_DELAYS_S:
            cells.append(
                Cell(
                    f"figure45:{size_kb}kb:delay={delay}",
                    lambda tb, c=collective, d=delay: c(tb, prefetch=True, compute_delay=d),
                )
            )
    return cells


# -- checkpoint-restart -----------------------------------------------------------


def record_key(seed: int, rank: int, round_index: int) -> int:
    """The synthetic-content stream of one checkpoint record."""
    digest = hashlib.sha256(f"ckpt:{seed}:{rank}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


@functools.lru_cache(maxsize=None)
def record_digest(key: int, length: int) -> bytes:
    """SHA-256 of a checkpoint record's content.  Every pass writes the
    same records, so their bytes are made once per run; keeping digests
    rather than bytes leaves the run's peak memory to the cells."""
    return hashlib.sha256(SyntheticData(key, 0, length).to_bytes()).digest()


def restored(got: Optional[Data], want: SyntheticData) -> bool:
    """True when a restart read returned exactly the checkpointed record."""
    return (got is not None and len(got) == len(want)
            and hashlib.sha256(got.to_bytes()).digest() == record_digest(want.key, want.length))


def run_checkpoint(tie_break: str, size_kb: int, degraded: bool, seed: int) -> CheckpointResult:
    request = size_kb * KB
    faults = FaultPlan.single_disk_failure(array="raid0", at_s=0.0) if degraded else None
    machine = Machine(MachineConfig(tie_break=tie_break, faults=faults))
    mount = machine.mount("/pfs", PFSConfig(stripe_unit=64 * KB))
    machine.create_file(mount, "ckpt", 0)
    nprocs = len(machine.clients)

    writer = CollectiveWriteWorkload(
        machine, mount, "ckpt", request_size=request, rounds=CHECKPOINT_ROUNDS
    )
    writer.record_content = lambda rank, k, nbytes: SyntheticData(
        record_key(seed, rank, k), 0, nbytes
    )
    write = writer.run().report

    # Restart: each rank reads its records back in M_RECORD order (rank r's
    # k-th read is the record it wrote in round k), rebuilding state between.
    handles: List[Any] = [None] * nprocs
    received: Dict[Tuple[int, int], Data] = {}

    def opener(rank):
        handles[rank] = yield from machine.clients[rank].open(
            mount, "ckpt", IOMode.M_RECORD, rank=rank, nprocs=nprocs,
            prefetcher=machine.build_prefetcher(rank),
        )

    def reader(handle):
        for k in range(CHECKPOINT_ROUNDS):
            if k:
                yield from handle.node.compute(REBUILD_DELAY_S)
            received[handle.rank, k] = yield from handle.read(request)

    def closer(handle):
        yield from handle.close()

    for rank in range(nprocs):
        machine.spawn(opener(rank), name=f"restart-open-{rank}")
    machine.run()
    started = machine.env.now
    for handle in handles:
        machine.spawn(reader(handle), name=f"restart-read-{handle.rank}")
    machine.run()
    elapsed = machine.env.now - started
    for handle in handles:
        machine.spawn(closer(handle), name=f"restart-close-{handle.rank}")
    machine.run()

    restart_reads = [
        (received.get((rank, k)), SyntheticData(record_key(seed, rank, k), 0, request))
        for rank in range(nprocs)
        for k in range(CHECKPOINT_ROUNDS)
    ]
    return CheckpointResult(write, report_from_handles(handles, elapsed), restart_reads)


def checkpoint_cells(seed: int) -> List[Cell]:
    return [
        Cell(
            f"ckpt:{size_kb}kb:{'degraded' if degraded else 'healthy'}",
            lambda tb, s=size_kb, d=degraded: run_checkpoint(tb, s, d, seed),
        )
        for size_kb in CHECKPOINT_SIZES_KB
        for degraded in (False, True)
    ]


# -- scale-mixed -------------------------------------------------------------------


def scale_cells(seed: int) -> List[Cell]:
    scenarios = {
        # BENCH_9's largest scale-out cell (same name and shape).
        "scaleout:2048n-128t": homogeneous_scenario(
            2048, 128, nprocs=4, rounds=4, name="scaleout-2048n", seed=seed
        ),
        # M_RECORD, M_SYNC, M_UNIX and M_ASYNC tenants, staggered arrivals.
        "mixed:512n-32t": mixed_scenario(512, 32, seed=seed),
    }
    return [
        Cell(
            key,
            lambda tb, s=scenario: run_scenario(s.with_tie_break(tb)),
            ("scaleout", 2048, "fingerprint") if key.startswith("scaleout") else None,
        )
        for key, scenario in scenarios.items()
    ]


def workload_cells(workload: str, seed: int) -> List[Cell]:
    if workload == "paper-read":
        return paper_cells()
    if workload == "checkpoint-restart":
        return checkpoint_cells(seed)
    if workload == "scale-mixed":
        return scale_cells(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- observations and checks -----------------------------------------------------------


def fingerprint(result: Any) -> str:
    if hasattr(result, "seed"):
        result = dataclasses.replace(result, seed=0)
    return report_fingerprint(result)


@dataclass
class Observation:
    """The simulated outputs of one cell that the metrics aggregate."""

    read_mbps: float
    read_durations: List[float]
    write_mbps: Optional[float] = None
    job_turnarounds: Tuple[float, ...] = ()
    jain: Optional[float] = None


def observe(result: Any, handles: List[Any]) -> Observation:
    """Simulated outputs of *result*; *handles* are every PFS handle the
    cell opened (their ``stats.call_durations`` hold the read latencies)."""
    durations = [d for h in handles for d in h.stats.call_durations]
    if isinstance(result, CheckpointResult):
        return Observation(
            read_mbps=result.read.collective_bandwidth_mbps,
            read_durations=durations,
            write_mbps=result.write.collective_bandwidth_mbps,
        )
    if isinstance(result, BandwidthReport):
        return Observation(result.collective_bandwidth_mbps, durations)
    return Observation(
        read_mbps=result.aggregate_bandwidth_mbps,
        read_durations=durations,
        job_turnarounds=tuple(job.finished_s - job.arrival_s for job in result.jobs),
        jain=result.jain,
    )


class References:
    """Stored cell fingerprints plus the committed BENCH_9 bandwidths."""

    def __init__(self, path: str, bench9_path: str) -> None:
        self.path = path
        with open(path, "rb") as fh:
            raw = fh.read()
        self.sha256 = hashlib.sha256(raw).hexdigest()
        self.fingerprints: Dict[str, str] = json.loads(raw)["fingerprints"]
        with open(bench9_path) as fh:
            bench9 = json.load(fh)
        self.bench9: Dict[Tuple[str, int, str], Any] = {}
        for point in bench9["table1"]:
            key = ("table1", point["request_kb"], str(point["prefetch"]))
            self.bench9[key] = point["collective_bandwidth_mbps"]
        for point in bench9["figure2"]:
            key = ("figure2", point["request_kb"], point["mode"])
            self.bench9[key] = point["collective_bandwidth_mbps"]
        for point in bench9["scale"]["scaleout"]["curve"]:
            self.bench9["scaleout", point["nodes"], "fingerprint"] = point["fingerprint"]

    def problems(self, workload: str, cell: Cell, result: Any) -> List[str]:
        """Why *result* is wrong (empty when it matches every reference)."""
        found = self.intrinsic_problems(cell, result)
        want = self.fingerprints.get(f"{workload}/{cell.key}")
        got = fingerprint(result)
        if want != got:
            found.append(f"fingerprint {got[:12]} != reference {str(want)[:12]}")
        return found

    def intrinsic_problems(self, cell: Cell, result: Any) -> List[str]:
        """The checks that need no stored fingerprint: BENCH_9 figures and
        checkpoint content."""
        found = []
        if cell.bench9_key is not None:
            want = self.bench9.get(cell.bench9_key)
            if cell.bench9_key[0] == "scaleout":
                got = fingerprint(result)
            else:
                got = round(result.collective_bandwidth_mbps, 4)
            if want != got:
                found.append(f"{cell.bench9_key[2]} {got} != BENCH_9 {want}")
        if isinstance(result, CheckpointResult) and not all(
            restored(got, want) for got, want in result.restart_reads
        ):
            found.append("restart read returned content that was not checkpointed")
        return found
