"""Unit tests for the 2D mesh interconnect model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware import Mesh, MeshMessage, MeshParams
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def mesh(env):
    return Mesh(env, width=4, height=4)


class TestTopology:
    def test_bad_dimensions(self, env):
        with pytest.raises(ValueError):
            Mesh(env, 0, 4)
        with pytest.raises(ValueError):
            Mesh(env, 4, -1)

    def test_contains(self, mesh):
        assert mesh.contains((0, 0))
        assert mesh.contains((3, 3))
        assert not mesh.contains((4, 0))
        assert not mesh.contains((0, -1))

    def test_route_is_xy_ordered(self, mesh):
        links = mesh.route((0, 0), (2, 2))
        # X moves first, then Y.
        assert links == [
            ((0, 0), (1, 0)),
            ((1, 0), (2, 0)),
            ((2, 0), (2, 1)),
            ((2, 1), (2, 2)),
        ]

    def test_route_negative_directions(self, mesh):
        links = mesh.route((3, 3), (1, 2))
        assert links == [
            ((3, 3), (2, 3)),
            ((2, 3), (1, 3)),
            ((1, 3), (1, 2)),
        ]

    def test_route_to_self_is_empty(self, mesh):
        assert mesh.route((1, 1), (1, 1)) == []

    def test_route_length_equals_hops(self, mesh):
        for src in [(0, 0), (2, 1), (3, 3)]:
            for dst in [(0, 0), (1, 3), (3, 0)]:
                assert len(mesh.route(src, dst)) == mesh.hops(src, dst)

    def test_route_outside_raises(self, mesh):
        with pytest.raises(ValueError):
            mesh.route((0, 0), (9, 9))
        with pytest.raises(ValueError):
            mesh.route((-1, 0), (1, 1))


class TestTransmission:
    def test_uncontended_latency(self, env):
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=1.0, per_hop_s=0.5)
        mesh = Mesh(env, 4, 1, params=params)
        msg = MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200)

        def proc(env):
            yield from mesh.send(msg)
            return env.now

        p = env.process(proc(env))
        env.run()
        # 1.0 sw + 2 hops * 0.5 + 200/100 = 4.0
        assert p.value == pytest.approx(4.0)
        assert msg.delivered_at == pytest.approx(4.0)

    def test_transfer_time_estimate_matches(self, env):
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=1.0, per_hop_s=0.5)
        mesh = Mesh(env, 4, 1, params=params)

        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (2, 0), 200))
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(mesh.transfer_time((0, 0), (2, 0), 200))

    def test_zero_size_message(self, env, mesh):
        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), 0))
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value > 0  # still pays software overhead

    def test_negative_size_rejected(self, env, mesh):
        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), -1))

        env.process(proc(env))
        with pytest.raises(ValueError):
            env.run()

    def test_link_contention_serialises(self, env):
        # Two messages over the same single link: the second waits.
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=0.0, per_hop_s=0.0)
        mesh = Mesh(env, 2, 1, params=params)
        done = []

        def proc(env, tag):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), 100))
            done.append((tag, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert done[0] == ("a", pytest.approx(1.0))
        assert done[1] == ("b", pytest.approx(2.0))

    def test_disjoint_paths_run_concurrently(self, env):
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=0.0, per_hop_s=0.0)
        mesh = Mesh(env, 2, 2, params=params)
        done = []

        def proc(env, src, dst, tag):
            yield from mesh.send(MeshMessage(src, dst, 100))
            done.append((tag, env.now))

        env.process(proc(env, (0, 0), (1, 0), "row0"))
        env.process(proc(env, (0, 1), (1, 1), "row1"))
        env.run()
        times = dict(done)
        assert times["row0"] == pytest.approx(1.0)
        assert times["row1"] == pytest.approx(1.0)

    def test_many_crossing_messages_all_deliver(self, env):
        mesh = Mesh(env, 4, 4)
        delivered = []

        def proc(env, src, dst, size):
            msg = yield from mesh.send(MeshMessage(src, dst, size))
            delivered.append(msg)

        coords = [(x, y) for x in range(4) for y in range(4)]
        n = 0
        for i, src in enumerate(coords):
            dst = coords[(i * 7 + 3) % len(coords)]
            env.process(proc(env, src, dst, 64 * 1024))
            n += 1
        env.run()
        assert len(delivered) == n
        assert all(m.delivered_at >= m.enqueued_at for m in delivered)

    def test_monitor_records_traffic(self, env):
        from repro.sim import Monitor

        mon = Monitor(env)
        mesh = Mesh(env, 2, 1, monitor=mon)

        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), 1000))

        env.process(proc(env))
        env.run()
        assert mon.counter_value("mesh.messages") == 1
        assert mon.counter_value("mesh.bytes") == 1000


# -- collapsed header walks -------------------------------------------------

#: Integer-valued parameters make every sum exact, so same-instant starts
#: and header windows that overlap by whole hops tie exactly.  With a
#: 10 s software overhead every route on a 4x4 mesh (at most 6 hops) may
#: collapse; with 2.5 s only routes of up to 2 hops may.
DIFF_PARAMS = (
    MeshParams(link_bandwidth_bps=1.0, sw_overhead_s=10.0, per_hop_s=1.0),
    MeshParams(link_bandwidth_bps=1.0, sw_overhead_s=2.5, per_hop_s=1.0),
    MeshParams(),
)


def _burst_run(params, width, height, burst, tie_break, stepped):
    """Send *burst* -- ``(src, dst, size, start hop)`` tuples -- and return
    per-message delivery times, wait seconds, per-link busy seconds and
    the number of events scheduled.

    ``stepped`` builds a tracer-enabled mesh, which walks every header
    hop by hop through the generator path."""
    from repro.obs import Observability

    env = Environment(tie_break=tie_break)
    monitor = Observability(env, trace=True) if stepped else None
    mesh = Mesh(env, width, height, params=params, monitor=monitor)
    messages = []

    def sender(message, start):
        yield env.timeout(start)
        yield from mesh.send(message)

    for src, dst, size, start in burst:
        message = MeshMessage(src, dst, size)
        messages.append(message)
        env.process(sender(message, start * params.per_hop_s))
    env.run()
    return (
        [m.delivered_at for m in messages],
        mesh.wait_s,
        sorted(mesh._link_busy_s.items()),
        env._eid,
    )


@st.composite
def bursts(draw):
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    coord = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    burst = draw(
        st.lists(
            st.tuples(
                coord,
                coord,
                st.integers(0, 5),  # body bytes, zero included
                st.integers(0, 6),  # start offset in hops: same instant or a few hops apart
            ),
            min_size=1,
            max_size=10,
            # Worms on one route tie on equal arbitration keys, which the
            # arbiter orders by insertion: same-route worms start apart.
            unique_by=lambda item: (item[0], item[1], item[3]),
        )
    )
    return draw(st.sampled_from(DIFF_PARAMS)), width, height, burst


class TestCollapsedHeaderWalk:
    @settings(max_examples=300, deadline=None)
    @given(case=bursts())
    # A 4-hop walk outlasts the 2.5 s overhead: a worm sent after the
    # first one's header started reaches its last link at the same
    # instant and wins the tie on its smaller key.
    @example(case=(DIFF_PARAMS[1], 4, 2, [((3, 0), (0, 1), 1, 0), ((0, 0), (0, 1), 1, 3)]))
    def test_matches_stepped_path(self, case):
        params, width, height, burst = case
        keys = [(tie_break, stepped) for tie_break in ("fifo", "lifo") for stepped in (False, True)]
        runs = {key: _burst_run(params, width, height, burst, *key) for key in keys}
        for key in keys:
            # delivered_at, wait_s and per-link busy seconds, bit for bit.
            assert runs[key][:3] == runs[("fifo", True)][:3], key
        # The collapse decision is the same in every same-time pop order.
        assert runs[("fifo", False)][3] == runs[("lifo", False)][3]

    @pytest.mark.parametrize("hops", list(range(12)) + [200])
    def test_isolated_message_schedules_two_events(self, hops):
        env = Environment()
        mesh = Mesh(env, hops + 1, 1)
        message = MeshMessage((0, 0), (hops, 0), 4096)
        send = mesh.send(message)
        next(send)  # the send now waits on the worm; no process involved
        env.run()
        assert env._eid == 2
        assert message.delivered_at == pytest.approx(mesh.transfer_time((0, 0), (hops, 0), 4096))

    def test_contended_route_walks_hop_by_hop(self):
        # Two same-instant worms sharing links cannot collapse; each
        # walks its three hops (one sw timeout + three grants).
        env = Environment()
        mesh = Mesh(env, 4, 1)
        for _ in range(2):
            next(mesh.send(MeshMessage((0, 0), (3, 0), 64)))
        env.run()
        assert env._eid == 2 * (1 + 3)

    def test_walk_longer_than_sw_overhead_is_stepped(self):
        params = MeshParams(link_bandwidth_bps=1.0, sw_overhead_s=2.5, per_hop_s=1.0)
        env = Environment()
        mesh = Mesh(env, 4, 1, params=params)
        message = MeshMessage((0, 0), (3, 0), 2)
        next(mesh.send(message))
        env.run()
        assert env._eid == 1 + 3
        assert message.delivered_at == 2.5 + 3.0 + 2.0
