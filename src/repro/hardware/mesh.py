"""2D wormhole-routed mesh interconnect.

The Paragon backplane is a 2D mesh with XY (dimension-ordered) routing.
We model each directed link as a unit-capacity resource.  A message
reserves the links along its XY route one at a time in path order (the
way a worm's header flit advances), then holds the whole path while the
body streams through at link bandwidth.  Dimension-ordered acquisition
keeps the model deadlock-free, exactly as it does for the hardware.

On the real machine the mesh (175 MB/s links) is never the I/O
bottleneck -- the disks are three orders of magnitude slower -- but
modelling it keeps scaling studies honest and charges the per-message
software overhead that makes many small requests expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.hardware.params import MeshParams

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
from repro.obs.telemetry import get_telemetry
from repro.obs.trace import get_tracer
from repro.sim import ArbitratedResource, Environment
from repro.sim.events import Event, Timeout
from repro.obs.monitor import Monitor

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


@dataclass(slots=True)
class MeshMessage:
    """A message in flight on the mesh."""

    src: Coord
    dst: Coord
    size_bytes: int
    payload: Any = None
    enqueued_at: float = 0.0
    delivered_at: float = field(default=0.0)
    #: Trace context of the causing span (None when untraced).
    ctx: Any = None
    #: Set by fault injection: the message occupied its route but was
    #: lost (the sender must not act on it having arrived).
    dropped: bool = False
    #: Set by fault injection: the message was delivered twice.
    duplicated: bool = False


class _MeshLink(ArbitratedResource):
    """A directed link, plus what a callback worm needs to collapse its walk.

    ``pending`` holds the header-start times of callback worms still in
    their software-overhead phase whose route crosses this link, oldest
    first; ``walkers`` counts worms crossing it that walk their header
    hop by hop; ``released_at`` is the time of the last release.
    """

    def __init__(self, env: Environment) -> None:
        super().__init__(env, capacity=1)
        self.pending: List[float] = []
        self.walkers = 0
        self.released_at = float("-inf")


@dataclass(slots=True)
class _Route:
    """A cached XY route: its ``(link, resource)`` pairs and link resources."""

    pairs: List[Tuple[Link, _MeshLink]]
    links: Tuple[_MeshLink, ...]
    #: The header walk may run as one event (see :meth:`_FastWorm.collapse`):
    #: at least two hops, and a walk shorter than the software overhead.
    collapsible: bool


# fast-path: requires=faults,tracer,telemetry -- callback worm skips per-hop generator resumes; legal only when nothing observes the interior
class _FastWorm:
    """Event-callback worm: one mesh transmission without a generator.

    The stepped/merged ``Mesh.send`` body resumes the *caller's whole
    generator chain* once per hop grant just to request the next link.
    When nothing can observe the interior of a transmission (no fault
    plan, no trace span, no telemetry probe), this state machine drives
    the identical event sequence -- same software-overhead timeout, same
    per-hop merged grants at the same times with the same queue ids --
    through flat callbacks, and wakes the caller exactly once.  When no
    other worm can touch its links before its header arrives, the whole
    header walk is one event (see :meth:`collapse`).

    The caller waits on ``proxy``, an event that is never scheduled: the
    pop of the final grant (or of a collapsed walk's completion) runs
    :meth:`_finish`, which invokes the proxy's callbacks synchronously
    on that same pop -- exactly when the generator version would have
    resumed the caller.
    """

    __slots__ = (
        "mesh",
        "message",
        "route",
        "route_key",
        "per_hop",
        "body_time",
        "idx",
        "requests",
        "granted",
        "requested_at",
        "proxy",
    )

    def __init__(self, mesh: "Mesh", message: MeshMessage, proxy: Event) -> None:
        self.mesh = mesh
        self.message = message
        self.proxy = proxy
        p = mesh.params
        route = self.route = mesh._route(message.src, message.dst)
        self.route_key = (message.src, message.dst)
        self.per_hop = p.per_hop_s
        self.body_time = message.size_bytes / p.link_bandwidth_bps
        self.idx = -1
        self.requests: list = []
        self.granted: list = []
        self.requested_at = 0.0
        # Software send overhead: the same Timeout the generator path
        # yields first, with the worm itself as the continuation.
        sw = Timeout(mesh.env, p.sw_overhead_s)
        sw.callbacks.append(self.advance)
        if route.links:
            # The header start, as the timeout's own pop time.
            start = mesh.env._now + p.sw_overhead_s
            for link in route.links:
                link.pending.append(start)

    def advance(self, event: Event) -> None:
        """Continuation run by each hop's merged grant (and the sw timeout)."""
        mesh = self.mesh
        env = mesh.env
        idx = self.idx
        if idx < 0:
            mesh._in_flight += 1
            route = self.route
            links = route.links
            if links:
                for link in links:
                    del link.pending[0]
                if len(links) > 1:
                    if route.collapsible and self.collapse(env):
                        return
                    # A one-hop worm's only request is visible at once
                    # in the link's queue; a longer walk announces the
                    # links it has yet to request until it finishes.
                    for link in links:
                        link.walkers += 1
        else:
            granted_at = event._value
            if granted_at is None:
                granted_at = env._now
            mesh.wait_s += granted_at - self.requested_at
            self.granted.append(granted_at)
        pairs = self.route.pairs
        nxt = idx + 1
        self.idx = nxt
        last = len(pairs) - 1
        if nxt <= last:
            res = pairs[nxt][1]
            delay = (self.per_hop, self.body_time) if nxt == last else self.per_hop
            self.requested_at = env._now
            req = res.request(  # sim-ok: R005 -- every hold is released in _finish, which runs on the final grant of this same worm
                key=self.route_key, resume_delay=delay
            )
            self.requests.append(req)
            req.callbacks.append(self.advance)
            return
        if last < 0 and self.body_time > 0:
            # Zero-hop message: stream the body with a plain timeout
            # (no link grant, so no wait to account).
            body = Timeout(env, self.body_time)
            body.callbacks.append(self._complete)
            return
        self._finish(env)

    def collapse(self, env: Environment) -> bool:
        """Claim every route link now and schedule only the completion.

        The hop-by-hop walk grants link ``i`` at ``t_i = t_{i-1} +
        per_hop`` and completes at ``(t_last + per_hop) + body_time``.
        Holding link ``i`` from the header start instead of from ``t_i``
        is unobservable when nothing else requests it before ``t_i``:
        every link is free, with no queue and no release at or after
        now; no walking worm shares a link; and no worm still in its
        software-overhead phase shares a link with a header start at or
        before ``t_last``.  A worm sent from now on starts its header at
        ``now + sw_overhead_s``, after ``t_last`` (``hops * per_hop <
        sw_overhead_s``).  Every worm this reads existed before the
        current timestep or cannot block, so the outcome is the same in
        every same-time pop order.
        """
        now = env._now
        per_hop = self.per_hop
        links = self.route.links
        granted = []
        t = now
        for link in links:
            if link.users or link.queue or link.walkers or link.released_at >= now:
                return False
            granted.append(t)
            t += per_hop
        t_last = granted[-1]
        for link in links:
            pending = link.pending
            if pending and pending[0] <= t_last:
                return False
        for link in links:
            link.users.append(self)
        # The worm itself holds each link (``requests`` stays empty: a
        # list of self-references would make every worm cyclic garbage).
        self.granted = granted
        done = Event(env)
        done._ok = True
        done._value = None
        done.callbacks.append(self._complete)
        env.schedule_at(done, t + self.body_time)
        return True

    def _complete(self, event: Event) -> None:
        self._finish(event.env)

    def _finish(self, env: Environment) -> None:
        mesh = self.mesh
        route = self.route
        pairs = route.pairs
        released_at = env._now
        links = route.links
        requests = self.requests
        if requests:
            for i in range(len(links)):
                link = links[i]
                link.release(requests[i])
                link.released_at = released_at
            if len(links) > 1:
                for link in links:
                    link.walkers -= 1
        else:
            for link in links:
                link.release(self)
                link.released_at = released_at
        busy = mesh._link_busy_s
        granted = self.granted
        for i in range(len(pairs)):
            link = pairs[i][0]
            busy[link] = busy.get(link, 0.0) + (released_at - granted[i])
        mesh._in_flight -= 1
        message = self.message
        message.delivered_at = released_at
        if mesh._c_messages is not None:
            mesh._c_messages.add(1)
            mesh._c_bytes.add(message.size_bytes)
            mesh._s_latency.record(released_at - message.enqueued_at)
        # Wake the caller on this same event pop (no extra event), just
        # as the generator version's single resume would have.
        proxy = self.proxy
        proxy._ok = True
        proxy._value = message
        callbacks = proxy.callbacks
        proxy.callbacks = None
        for callback in callbacks:
            callback(proxy)


class Mesh:
    """A ``width`` x ``height`` 2D mesh of nodes."""

    def __init__(
        self,
        env: Environment,
        width: int,
        height: int,
        params: Optional[MeshParams] = None,
        monitor: Optional[Monitor] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.env = env
        self.width = width
        self.height = height
        self.params = params or MeshParams()
        self.monitor = monitor
        self.faults = faults
        self.tracer = get_tracer(monitor)
        self._links: Dict[Link, _MeshLink] = {}
        #: (src, dst) -> route -- XY routes are static, so each pair's
        #: route is computed and resolved once.
        self._route_cache: Dict[Tuple[Coord, Coord], _Route] = {}
        #: Per-directed-link seconds held by a streaming worm.
        self._link_busy_s: Dict[Link, float] = {}
        #: Total seconds senders spent blocked on link acquisition
        #: (contention: zero on an idle mesh by construction).
        self.wait_s = 0.0
        self._in_flight = 0
        # Hot-path monitor objects, resolved once instead of per message.
        if monitor is not None:
            self._c_messages = monitor.counter("mesh.messages")
            self._c_bytes = monitor.counter("mesh.bytes")
            self._s_latency = monitor.series("mesh.latency")
        else:
            self._c_messages = None
        self.telemetry = get_telemetry(monitor)
        #: Merged per-hop grants collapse each link's grant + hold
        #: timeout into one scheduled event.  Timing-identical, but the
        #: sender's ``wait_s`` bookkeeping then lands at the end of the
        #: hold instead of at the grant -- observable only by a telemetry
        #: sampler, so the merge is disabled when telemetry is on (the
        #: ISSUE's "probe overlaps the batch" fallback).
        self._merge_grants = not self.telemetry.enabled
        #: Callback-worm transmissions (see :class:`_FastWorm`): same
        #: event sequence as the merged path but without per-hop
        #: generator resumes.  Requires that nothing can observe or
        #: perturb a transmission's interior: fault plans decide
        #: drop/duplicate at delivery and trace spans record hop
        #: interiors, so both fall back to the generator paths.
        self._fast_sends = faults is None and not self.tracer.enabled and self._merge_grants
        self.telemetry.register_probe(
            "mesh_wait_seconds",
            lambda: self.wait_s,
            help="Cumulative seconds senders blocked on busy links (contention)",
            kind="counter",
        )
        self.telemetry.register_probe(
            "mesh_messages_in_flight",
            lambda: float(self._in_flight),
            help="Messages currently crossing the mesh",
        )

    # -- topology ---------------------------------------------------------

    def contains(self, coord: Coord) -> bool:
        x, y = coord
        return 0 <= x < self.width and 0 <= y < self.height

    def route(self, src: Coord, dst: Coord) -> List[Link]:
        """XY (dimension-ordered) route: X first, then Y."""
        if not self.contains(src):
            raise ValueError(f"source {src} outside {self.width}x{self.height} mesh")
        if not self.contains(dst):
            raise ValueError(f"destination {dst} outside {self.width}x{self.height} mesh")
        links: List[Link] = []
        x, y = src
        dx = 1 if dst[0] > x else -1
        while x != dst[0]:
            nxt = (x + dx, y)
            links.append(((x, y), nxt))
            x += dx
        dy = 1 if dst[1] > y else -1
        while y != dst[1]:
            nxt = (x, y + dy)
            links.append(((x, y), nxt))
            y += dy
        return links

    def hops(self, src: Coord, dst: Coord) -> int:
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    def _link(self, link: Link) -> _MeshLink:
        res = self._links.get(link)
        if res is None:
            # Arbitrated: two worms requesting the same link at the same
            # simulated time are ordered by (src, dst), not by event
            # insertion order -- port arbitration must not be a race.
            res = self._links[link] = _MeshLink(self.env)
            (ax, ay), (bx, by) = link
            self.telemetry.register_probe(
                "mesh_link_busy_seconds",
                lambda lk=link: self._link_busy_s.get(lk, 0.0),
                labels={"link": f"{ax},{ay}->{bx},{by}"},
                help="Seconds this directed link was held by a worm",
                kind="counter",
            )
        return res

    def _route(self, src: Coord, dst: Coord) -> _Route:
        """The cached XY route from *src* to *dst*."""
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            pairs = [(link, self._link(link)) for link in self.route(src, dst)]
            p = self.params
            hops = len(pairs)
            route = self._route_cache[key] = _Route(
                pairs,
                tuple(res for _link, res in pairs),
                hops >= 2 and hops * p.per_hop_s < p.sw_overhead_s,
            )
        return route

    # -- transmission -------------------------------------------------------

    def transfer_time(self, src: Coord, dst: Coord, size_bytes: int) -> float:
        """Uncontended latency of a message."""
        p = self.params
        return (
            p.sw_overhead_s + self.hops(src, dst) * p.per_hop_s + size_bytes / p.link_bandwidth_bps
        )

    def send(self, message: MeshMessage):
        """Generator: transmit *message*; completes when delivered.

        Reserves the XY route link-by-link (header flit), then streams the
        body while holding the path, then releases every link.
        """
        env = self.env
        message.enqueued_at = env.now
        if message.size_bytes < 0:
            raise ValueError("message size must be non-negative")
        if self._fast_sends:
            proxy = Event(env)
            _FastWorm(self, message, proxy)
            return (yield proxy)
        p = self.params
        tracer = self.tracer
        traced = tracer.enabled
        span = None
        if traced:
            span = tracer.begin(
                "mesh_xfer",
                ctx=message.ctx,
                bytes=message.size_bytes,
                src=message.src,
                dst=message.dst,
            )

        # Software send overhead (charged regardless of distance).
        yield env.timeout(p.sw_overhead_s)

        pairs = self._route(message.src, message.dst).pairs
        route_key = (message.src, message.dst)
        per_hop = p.per_hop_s
        body_time = message.size_bytes / p.link_bandwidth_bps
        requests = []
        acquired = []
        self._in_flight += 1
        try:
            if self._merge_grants:
                # Fast path: each link's grant + hold timeout is one
                # scheduled event (the last link also absorbs the body
                # streaming time).  Grant instants, hold windows and
                # release times are identical to the stepped path.
                last = len(pairs) - 1
                for i, (link, res) in enumerate(pairs):
                    # The tuple makes the resume time's float arithmetic
                    # identical to the stepped per-hop + body timeouts.
                    delay = (per_hop, body_time) if i == last else per_hop
                    requested_at = env.now
                    req = res.request(key=route_key, resume_delay=delay)
                    requests.append((link, res, req))
                    granted_at = yield req
                    if granted_at is None:
                        granted_at = env.now
                    self.wait_s += granted_at - requested_at
                    acquired.append((link, granted_at))
                if not pairs and body_time > 0:
                    yield env.timeout(body_time)
            else:
                for link, res in pairs:
                    req = res.request(key=route_key)
                    requests.append((link, res, req))
                    requested_at = env.now
                    yield req
                    self.wait_s += env.now - requested_at
                    acquired.append((link, env.now))
                    if per_hop > 0:
                        yield env.timeout(per_hop)
                # Path reserved end-to-end; stream the body.
                if body_time > 0:
                    yield env.timeout(body_time)
        finally:
            released_at = env.now
            for _link, res, req in requests:
                res.release(req)
            busy = self._link_busy_s
            for link, granted_at in acquired:
                busy[link] = busy.get(link, 0.0) + (released_at - granted_at)
            self._in_flight -= 1

        message.delivered_at = env.now
        if self.faults is not None:
            # Window-triggered only (see repro.faults.plan): same-time
            # sends have no canonical global order, so drop/dup decisions
            # depend on sim time alone and are tie-break-invariant.  The
            # worm still paid full route occupancy + streaming time.
            pair = f"{message.src[0]},{message.src[1]}->" f"{message.dst[0]},{message.dst[1]}"
            if self.faults.decide("mesh_drop", pair) is not None:
                message.dropped = True
            elif self.faults.decide("mesh_dup", pair) is not None:
                message.duplicated = True
            if traced:
                tracer.end(span, dropped=message.dropped, duplicated=message.duplicated)
        elif traced:
            tracer.end(span)
        if self._c_messages is not None:
            self._c_messages.add(1)
            self._c_bytes.add(message.size_bytes)
            self._s_latency.record(message.delivered_at - message.enqueued_at)
        return message

    def __repr__(self) -> str:
        return f"<Mesh {self.width}x{self.height}>"
