"""Callback RPC: fault-free calls and declustered transfers as callbacks.

On a fault-free, untraced, telemetry-off machine the RPC layer runs no
dispatcher process, the reply worm wakes the caller directly, and a
declustered transfer posts its pieces as callback chains instead of one
process each (see :mod:`repro.paragonos.rpc` and
:meth:`repro.pfs.client.PFSClient._post_pieces`).  A tracer-enabled run
takes the generator path for all of it, so it is the reference:

- the differential oracle generates small machines and checks that the
  report fingerprints and every arbitration key asked of a node's CPU,
  its message co-processor or its RPC inbox match the traced run under
  both tie-breaks, and that the callback path never schedules more
  events (on the paper's mesh every node has one inbound link, so
  same-instant arrivals are rare and a wrong key seldom moves a report:
  the key log is what catches it);
- the event ratchet pins the exact event count of six golden cells, so
  a change that adds kernel work shows up as a failing number.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

from repro.analysis.sanitizers import report_fingerprint
from repro.config import PFSConfig
from repro.experiments.common import KB, build_machine, run_collective, scaled_file_size
from repro.paragonos.messages import ReadRequest
from repro.paragonos.rpc import RPCError
from repro.pfs import IOMode
from repro.workloads import CollectiveReadWorkload, CollectiveWriteWorkload, SeparateFilesWorkload

#: Client prefetch presets: ``None`` is prefetch off, else
#: ``(prefetch_policy, prefetch_depth)``.
PREFETCH_PRESETS = (None, ("one-ahead", 1), ("depth-k", 2), ("adaptive", 2), ("none", 1))


@st.composite
def cases(draw):
    n_io = draw(st.integers(1, 4))
    stripe_factor = draw(st.integers(1, n_io))
    stripe_unit = draw(st.sampled_from((4 * KB, 16 * KB, 64 * KB)))
    # Whole stripe units per call, wrapping past the stripe factor (so a
    # call spans 1..stripe_factor coalesced pieces), optionally cut short
    # so later calls start mid-unit.
    units = draw(st.integers(1, 2 * stripe_factor))
    short = draw(st.sampled_from((0, stripe_unit // 2)))
    return {
        "n_compute": draw(st.integers(1, 3)),
        "n_io": n_io,
        "pfs": PFSConfig(
            stripe_unit=stripe_unit,
            stripe_factor=stripe_factor,
            buffered=draw(st.booleans()),
        ),
        "request_size": max(units * stripe_unit - short, KB),
        "rounds": draw(st.integers(1, 3)),
        "iomode": draw(st.sampled_from(list(IOMode))),
        "prefetch": draw(st.sampled_from(PREFETCH_PRESETS)),
        "compute_delay": draw(st.sampled_from((0.0, 0.01))),
        "write_first": draw(st.booleans()),
    }


def _record_keys(machine):
    """Log ``(resource, arrival time, key)`` of every request for a node's
    CPU or message co-processor and of every RPC inbox put."""
    log = []

    def wrap(obj, method, label):
        inner = getattr(obj, method)

        def recorded(*args, **kwargs):
            event = inner(*args, **kwargs)
            log.append((label, event.arrived_at, repr(event.key)))
            return event

        setattr(obj, method, recorded)

    for node in machine.compute_nodes + machine.io_nodes + [machine.service_node]:
        wrap(node.cpu, "request", f"node{node.node_id}.cpu")
        wrap(node.msgproc, "request", f"node{node.node_id}.msgproc")
    endpoints = [client.endpoint for client in machine.clients]
    endpoints += list(machine.io_endpoints.values()) + [machine.coordinator_endpoint]
    for endpoint in endpoints:
        wrap(endpoint._inbox, "put", f"node{endpoint.node.node_id}.inbox")
    return log


def _run(case, tie_break, trace):
    """Optionally write the file (M_RECORD), then read it collectively.

    Returns the fingerprints of the write and read reports, the sorted
    key log (see :func:`_record_keys`) and the number of events the run
    scheduled.
    """
    prefetch = case["prefetch"]
    policy = {}
    if prefetch is not None:
        policy = {"prefetch_policy": prefetch[0], "prefetch_depth": prefetch[1]}
    machine, mount = build_machine(
        case["pfs"],
        n_compute=case["n_compute"],
        n_io=case["n_io"],
        tie_break=tie_break,
        trace=trace,
        **policy,
    )
    size = case["request_size"]
    rounds = case["rounds"]
    machine.create_file(mount, "data", size * case["n_compute"] * rounds)
    keys = _record_keys(machine)
    fingerprints = []
    if case["write_first"]:
        write = CollectiveWriteWorkload(machine, mount, "data", request_size=size, rounds=rounds)
        fingerprints.append(report_fingerprint(write.run().report))
    read = CollectiveReadWorkload(
        machine,
        mount,
        "data",
        request_size=size,
        compute_delay=case["compute_delay"],
        iomode=case["iomode"],
        rounds=rounds,
        prefetcher_factory=machine.build_prefetcher if prefetch is not None else None,
    )
    fingerprints.append(report_fingerprint(read.run().report))
    return fingerprints, sorted(keys), machine.env._eid


class TestDifferentialOracle:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=cases())
    # Four coalesced pieces per call on four I/O nodes, read with
    # depth-2 prefetch after a write: every callback part at once.
    @example(
        case={
            "n_compute": 3,
            "n_io": 4,
            "pfs": PFSConfig(stripe_unit=16 * KB, stripe_factor=4),
            "request_size": 64 * KB,
            "rounds": 3,
            "iomode": IOMode.M_RECORD,
            "prefetch": ("depth-k", 2),
            "compute_delay": 0.0,
            "write_first": True,
        }
    )
    def test_callback_path_matches_generator_path(self, case):
        runs = {
            (tie_break, trace): _run(case, tie_break, trace)
            for tie_break in ("fifo", "lifo")
            for trace in (False, True)
        }
        reference = runs[("fifo", True)]
        for run in sorted(runs):
            assert runs[run][:2] == reference[:2], run
        fast_events = runs[("fifo", False)][2]
        # The event count is a property of the model, not of pop order.
        assert runs[("lifo", False)][2] == fast_events
        assert fast_events <= reference[2]


def _read_with_broken_io_node(trace):
    """Declustered read on a 1+4 machine whose I/O node 2 fails every
    read; returns the caller's errors and the machine's ``rpc.calls``."""
    machine, mount = build_machine(n_compute=1, n_io=4, trace=trace)
    machine.create_file(mount, "data", 4 * 64 * KB)

    def broken(request):
        raise ValueError("disk on fire")
        yield  # pragma: no cover - makes this a generator

    machine.io_endpoints[2].register(ReadRequest, broken)
    errors = []

    def reader():
        handle = yield from machine.clients[0].open(mount, "data", IOMode.M_ASYNC)
        try:
            yield from handle.read(4 * 64 * KB)
        except RPCError as exc:
            errors.append(str(exc))

    machine.spawn(reader())
    machine.run()
    return errors, machine.monitor.counter_value("rpc.calls")


class TestCallbackFanOut:
    def test_handler_error_reaches_the_caller(self):
        """One failing piece fails the whole declustered read, on either
        path, and ``rpc.calls`` counts the same completed calls on both."""
        fast = _read_with_broken_io_node(trace=False)
        stepped = _read_with_broken_io_node(trace=True)
        assert fast[0] == stepped[0] == ["disk on fire"]
        assert fast[1] == stepped[1]


#: Exact events scheduled by six golden cells (rounds=4, the paper's
#: 8+8 machine), fault-free and untraced, identical under fifo and lifo.
#: These pin the kernel work per cell: any increase needs a re-pin and a
#: CHANGES.md note saying what the extra events buy.
EVENT_RATCHET = {
    "table1:64kb:prefetch=False": 360,
    "table1:64kb:prefetch=True": 552,
    "table1:1024kb:prefetch=False": 2874,
    "table1:1024kb:prefetch=True": 3066,
    "figure2:64kb:M_UNIX": 874,
    "figure2:64kb:SEPARATE_FILES": 365,
}


def _cell_events(cell, tie_break):
    family, size, variant = cell.split(":")
    request_size = int(size[: -len("kb")]) * KB
    if variant == "SEPARATE_FILES":
        # run_separate_files, keeping the machine to read its clock.
        machine, mount = build_machine(tie_break=tie_break)
        for rank in range(machine.config.n_compute):
            machine.create_file(mount, f"data{rank}", request_size * 4, rotate=True)
        SeparateFilesWorkload(machine, mount, "data", request_size=request_size).run()
        return machine.env._eid
    if family == "figure2":
        iomode, prefetch = IOMode[variant], False
    else:
        iomode, prefetch = IOMode.M_RECORD, variant == "prefetch=True"
    report = run_collective(
        request_size=request_size,
        file_size=scaled_file_size(request_size, rounds=4),
        iomode=iomode,
        prefetch=prefetch,
        rounds=4,
        tie_break=tie_break,
        keep_machine=True,
    )
    return report.machine.env._eid


class TestEventRatchet:
    @pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
    @pytest.mark.parametrize("cell", sorted(EVENT_RATCHET))
    def test_events_pinned(self, cell, tie_break):
        assert _cell_events(cell, tie_break) == EVENT_RATCHET[cell]
