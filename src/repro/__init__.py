"""repro: simulation-based reproduction of *Implementation and
Evaluation of Prefetching in the Intel Paragon Parallel File System*
(Arunachalam, Choudhary, Rullman; IPPS 1996).

Quickstart::

    from repro import (
        Machine, MachineConfig, PFSConfig, IOMode,
        CollectiveReadWorkload, Prefetcher, OneRequestAhead,
    )

    machine = Machine(MachineConfig(n_compute=8, n_io=8))
    mount = machine.mount("/pfs", PFSConfig(stripe_unit=64 * 1024))
    machine.create_file(mount, "data", 128 * 1024 * 1024)

    workload = CollectiveReadWorkload(
        machine, mount, "data",
        request_size=64 * 1024,
        compute_delay=0.05,
        iomode=IOMode.M_RECORD,
        prefetcher_factory=lambda rank: Prefetcher(OneRequestAhead()),
    )
    result = workload.run()
    print(result.report.collective_bandwidth_mbps)
"""

from repro.config import MachineConfig, PFSConfig
from repro.core import (
    AdaptivePolicy,
    DepthKAhead,
    NoPrefetch,
    OneRequestAhead,
    OnlineTuner,
    Prefetcher,
    PrefetchPolicy,
    PrefetchStats,
    StrideDetector,
    StridedPolicy,
    TunerConfig,
    make_policy,
)
from repro.machine import Machine, SimulationStalled
from repro.metrics import BandwidthReport, report_from_handles
from repro.pfs import IOMode, StripeAttributes
from repro.workloads import (
    CollectiveReadWorkload,
    SeparateFilesWorkload,
    WorkloadResult,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptivePolicy",
    "BandwidthReport",
    "CollectiveReadWorkload",
    "DepthKAhead",
    "IOMode",
    "Machine",
    "MachineConfig",
    "NoPrefetch",
    "OneRequestAhead",
    "OnlineTuner",
    "PFSConfig",
    "PrefetchPolicy",
    "PrefetchStats",
    "Prefetcher",
    "SeparateFilesWorkload",
    "SimulationStalled",
    "StrideDetector",
    "StridedPolicy",
    "StripeAttributes",
    "TunerConfig",
    "WorkloadResult",
    "__version__",
    "make_policy",
]
