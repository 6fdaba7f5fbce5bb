"""Outside-in instrumentation: wrappers around the layers' public entry points.

Nothing under ``src/`` knows about these hooks.  Each wrapper is installed
on the class (so every machine built afterwards uses it) and removed on
exit; generator entry points are wrapped by generator functions that
delegate with ``yield from``, so they schedule no event and leave every
simulated number unchanged.

- :class:`Ledger` is always on: it records the machines and PFS handles a
  cell creates (events scheduled, read latencies, prefetch statistics)
  and the host time spent setting machines up.  Its wrappers sit outside
  the simulation loop.
- :class:`LayerTrace` is the traced run's per-layer instrumentation:
  simulated-time spans and counts at the layer boundaries, plus a
  cProfile fold of host self-time by layer.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hardware.mesh import Mesh
from repro.hardware.raid import RAID3Array
from repro.machine import Machine
from repro.obs.stats import PrefetchStats
from repro.paragonos.messages import ControlRequest, ReadRequest, WriteRequest
from repro.paragonos.rpc import RPCEndpoint
from repro.pfs.client import PFSFileHandle
from repro.pfs.coordinator import GlobalArrive, SyncArrive, TokenAcquire, TokenRelease
from repro.ufs import UFS
from repro.ufs.data import ConcatData, LiteralData, SyntheticData

SERVER_REQUESTS = (ReadRequest, WriteRequest, ControlRequest)
COORDINATOR_REQUESTS = (TokenAcquire, TokenRelease, SyncArrive, GlobalArrive)


class _Patches:
    """Class-attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def wrap(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, functools.wraps(original)(make(original)))

    def undo(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


class Ledger:
    """Machines, handles and set-up host time of the current cell."""

    def __init__(self) -> None:
        self.machines: List[Machine] = []
        self.handles: List[PFSFileHandle] = []
        self.setup_s: Dict[str, float] = {}
        self._patches = _Patches()

    def reset(self) -> None:
        self.machines = []
        self.handles = []
        self.setup_s = {"build": 0.0, "mount": 0.0, "create_file": 0.0}

    def __enter__(self) -> "Ledger":
        self.reset()

        def timed(part: str, keep_machine: bool = False):
            def make(original):
                def wrapper(machine, *args, **kwargs):
                    start = time.perf_counter()
                    result = original(machine, *args, **kwargs)
                    self.setup_s[part] += time.perf_counter() - start
                    if keep_machine:
                        self.machines.append(machine)
                    return result

                return wrapper

            return make

        def keep_handle(original):
            def wrapper(handle, *args, **kwargs):
                original(handle, *args, **kwargs)
                self.handles.append(handle)

            return wrapper

        self._patches.wrap(Machine, "__init__", timed("build", keep_machine=True))
        self._patches.wrap(Machine, "mount", timed("mount"))
        self._patches.wrap(Machine, "create_file", timed("create_file"))
        self._patches.wrap(PFSFileHandle, "__init__", keep_handle)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    @property
    def events(self) -> int:
        """Simulation events scheduled by the cell's machines."""
        return sum(machine.env._eid for machine in self.machines)

    def prefetch_stats(self) -> PrefetchStats:
        merged = PrefetchStats()
        for handle in self.handles:
            if handle.prefetcher is not None:
                merged = merged.merge(handle.prefetcher.stats)
        return merged


# -- the traced run ------------------------------------------------------------------

#: Module path under ``src/repro/`` -> layer; first matching prefix wins.
LAYER_PREFIXES = (
    ("sim/", "sim"),
    ("hardware/mesh.py", "hardware.mesh"),
    ("hardware/raid.py", "hardware.raid"),
    ("hardware/scsi.py", "hardware.raid"),
    ("hardware/disk.py", "hardware.raid"),
    ("hardware/", "hardware.node"),
    ("paragonos/", "paragonos"),
    ("ufs/", "ufs"),
    ("pfs/server.py", "pfs.server"),
    ("pfs/coordinator.py", "pfs.coordinator"),
    ("pfs/", "pfs.client"),
    ("core/", "core"),
    ("machine.py", "machine"),
    ("config.py", "machine"),
    ("obs/", "obs"),
    ("faults/", "faults"),
    ("", "workloads"),
)

LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in LAYER_PREFIXES)) + ("bench", "other")

_REPRO = os.sep + "repro" + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> Optional[str]:
    """The layer of a profiled function's file; None for code outside the
    repository (stdlib, numpy, builtins), which is charged to its caller."""
    if _REPRO in filename:
        rel = filename.split(_REPRO, 1)[1].replace(os.sep, "/")
        for prefix, layer in LAYER_PREFIXES:
            if rel.startswith(prefix):
                return layer
    if os.path.abspath(filename).startswith(_BENCH_DIR + os.sep):
        return "bench"
    return None


def fold_self_time(stats: pstats.Stats, max_depth: int = 6) -> Dict[str, float]:
    """Host self-seconds per layer.

    Functions of the repository count for their own layer.  Time in code
    outside it (numpy, heapq, builtins) is charged to the layers of its
    callers, in proportion to the time each caller spent in it, following
    chains of outside callers up to *max_depth* levels.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    folded = dict.fromkeys(LAYERS, 0.0)

    def charge(func, seconds: float, depth: int) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            folded[layer] += seconds
            return
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if depth >= max_depth or not callers:
            folded["other"] += seconds
            return
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        for caller in sorted(weights):
            charge(caller, seconds * weights[caller] / total, depth + 1)

    for func in sorted(table):
        charge(func, table[func][2], 0)
    return folded


def call_count(stats: pstats.Stats, name: str, *files: str) -> int:
    """Total profiled calls of functions called *name* in the given
    ``src/repro/`` files (any repository file when none are given)."""
    total = 0
    for (filename, _line, func), entry in stats.stats.items():
        if func != name or _REPRO not in filename:
            continue
        rel = filename.split(_REPRO, 1)[1].replace(os.sep, "/")
        if not files or rel in files:
            total += entry[1]
    return total


#: The counts and simulated-time spans :class:`LayerTrace` records.
TRACE_COUNTS = (
    ("hardware.mesh.messages", "count"),
    ("hardware.mesh.wait_sim_s", "sim_s"),
    ("hardware.raid.accesses", "count"),
    ("paragonos.rpc_calls", "count"),
    ("ufs.bytes_materialised", "bytes"),
    ("ufs.writes", "count"),
    ("pfs.client.read_calls", "count"),
    ("pfs.client.write_calls", "count"),
    ("pfs.client.read_sim_s", "sim_s"),
    ("pfs.server.requests", "count"),
    ("pfs.coordinator.token_rpcs", "count"),
    ("pfs.coordinator.wait_sim_s", "sim_s"),
)


class LayerTrace:
    """Counts and simulated-time spans at the layers' public entry points.

    The wrappers stay installed while the trace is entered, but they count
    only inside :meth:`recording`, so the benchmark's own checks of a
    cell's results are not charged to the layers.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self._patches = _Patches()
        self._depth = 0
        self._recording = False

    def add(self, name: str, amount: float = 1) -> None:
        if self._recording:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def recording(self):
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    def __enter__(self) -> "LayerTrace":
        add = self.add

        def counted_generator(count: str, span: Optional[str] = None):
            """Count calls of a generator method; with *span*, also sum the
            simulated seconds each call took (``obj.env`` is the clock)."""

            def make(original):
                def wrapper(obj, *args, **kwargs):
                    if span is None:
                        result = yield from original(obj, *args, **kwargs)
                    else:
                        start = obj.env.now
                        result = yield from original(obj, *args, **kwargs)
                        add(span, obj.env.now - start)
                    add(count)
                    return result

                return wrapper

            return make

        def mesh_send(original):
            def wrapper(mesh, message):
                start = mesh.env.now
                result = yield from original(mesh, message)
                span = mesh.env.now - start
                add("hardware.mesh.messages")
                add(
                    "hardware.mesh.wait_sim_s",
                    span - mesh.transfer_time(message.src, message.dst, message.size_bytes),
                )
                return result

            return wrapper

        def rpc_call(original):
            def wrapper(endpoint, target, request):
                start = endpoint.env.now
                result = yield from original(endpoint, target, request)
                add("paragonos.rpc_calls")
                if isinstance(request, SERVER_REQUESTS):
                    add("pfs.server.requests")
                elif isinstance(request, COORDINATOR_REQUESTS):
                    add("pfs.coordinator.token_rpcs")
                    add("pfs.coordinator.wait_sim_s", endpoint.env.now - start)
                return result

            return wrapper

        def to_bytes(original):
            def wrapper(data):
                self._depth += 1
                try:
                    payload = original(data)
                finally:
                    self._depth -= 1
                if self._depth == 0:
                    add("ufs.bytes_materialised", len(payload))
                return payload

            return wrapper

        patch = self._patches.wrap
        patch(PFSFileHandle, "read", counted_generator("pfs.client.read_calls",
                                                     "pfs.client.read_sim_s"))
        patch(PFSFileHandle, "write", counted_generator("pfs.client.write_calls"))
        patch(Mesh, "send", mesh_send)
        patch(RPCEndpoint, "call", rpc_call)
        patch(RAID3Array, "read", counted_generator("hardware.raid.accesses"))
        patch(RAID3Array, "write", counted_generator("hardware.raid.accesses"))
        patch(UFS, "write", counted_generator("ufs.writes"))
        for cls in (SyntheticData, LiteralData, ConcatData):
            patch(cls, "to_bytes", to_bytes)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


def machine_totals(machines: List[Machine]) -> Dict[str, float]:
    """RAID busy fractions and buffer-cache hits read off finished
    machines, as sums the caller pools over a pass before dividing."""
    raid_busy = raid_count = 0.0
    hits = lookups = 0
    for machine in machines:
        report = machine.utilization_report()
        for name in sorted(report):
            if name.startswith("raid"):
                raid_busy += report[name]
                raid_count += 1
        for cache in machine.caches:
            hits += cache.counts.get("hits", 0)
            lookups += sum(
                cache.counts.get(kind, 0) for kind in ("hits", "misses", "collapsed_misses")
            )
    return {
        "raid_busy": raid_busy,
        "raid_count": raid_count,
        "bcache_hits": hits,
        "bcache_lookups": lookups,
    }
