"""Online prefetch-parameter tuning (à la IOPathTune).

The :class:`OnlineTuner` retunes each attached prefetcher's policy at
fixed simulated-time intervals: the pipeline **depth envelope**, the
prefetch **buffer quota**, and the prefetch **request size** (batching
of adjacent planned ranges).

Determinism contract
--------------------
The tuner schedules **zero events** and installs **no tick hooks**.
Evaluation is pull-based: it runs inside the demand-read path
(:meth:`before_read`, called by
:meth:`~repro.core.prefetcher.Prefetcher.serve_read`) the first time a
handle's demand stream crosses an interval boundary.  Each decision
therefore depends only on

- the simulated clock at a point *causally inside* that handle's own
  read call, and
- the observed prefetcher's **own** counters and buffer list,

both of which are bit-identical under either same-timestamp tie-break
order (the per-handle hit/partial/miss classification is part of the
golden report fingerprints).  A tick-hook design would *not* be
tie-safe: hooks fire after every event, so at a timestamp with several
events the first hook invocation sees order-dependent intermediate
state.  Reading fleet-global monitor counters from one handle's causal
point would be order-dependent for the same reason, which is why the
tuner deliberately stays per-prefetcher even though it reports through
the shared monitor.

With the tuner off (``MachineConfig(tuner=False)``, the default) none
of this code runs and fault-free fingerprints stay bit-identical to a
build without it -- locked by ``tests/test_tuner.py`` against the
bench3 goldens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.policies import AdaptivePolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prefetcher import Prefetcher
    from repro.obs.monitor import Monitor
    from repro.pfs.client import PFSFileHandle
    from repro.sim import Environment


@dataclass(frozen=True)
class TunerConfig:
    """Control-loop constants for :class:`OnlineTuner`."""

    #: Simulated seconds between evaluations of each prefetcher.
    interval_s: float = 0.05
    #: Depth-envelope bounds the tuner may move policies within.
    min_depth: int = 1
    max_depth: int = 8
    #: Useful-fraction thresholds (same semantics as AdaptivePolicy's).
    raise_threshold: float = 0.9
    lower_threshold: float = 0.25
    #: Buffer-quota bounds: the quota halves (>= floor) on memory
    #: pressure and doubles (<= ceiling) while the pipeline is useful.
    quota_floor_bytes: int = 256 * 1024
    quota_ceiling_bytes: int = 8 * 1024 * 1024
    #: Request-size knob bound: at most this many adjacent planned
    #: ranges coalesce into one prefetch request.
    max_batch: int = 4

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 1 <= self.min_depth <= self.max_depth:
            raise ValueError("need 1 <= min_depth <= max_depth")
        if not 0.0 <= self.lower_threshold <= self.raise_threshold <= 1.0:
            raise ValueError("need 0 <= lower_threshold <= raise_threshold <= 1")
        if not 0 < self.quota_floor_bytes <= self.quota_ceiling_bytes:
            raise ValueError("need 0 < quota_floor_bytes <= quota_ceiling_bytes")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


class _Channel:
    """Per-prefetcher tuner state: next deadline + counter snapshot."""

    __slots__ = ("next_eval", "snapshot")

    def __init__(self, next_eval: float) -> None:
        self.next_eval = next_eval
        self.snapshot = (0, 0, 0, 0)  # hits, partial_hits, misses, skipped_oom


class OnlineTuner:
    """Interval-driven controller over a machine's prefetchers.

    Attach prefetchers with :meth:`attach` (done by
    :meth:`repro.machine.Machine.build_prefetcher` when
    ``MachineConfig(tuner=True)``).  Decisions are appended to
    :attr:`decisions` -- ``{"t", "rank", "knob", "old", "new"}`` dicts in
    causal order -- and counted on the monitor as
    ``tuner.adjust.<knob>``.
    """

    def __init__(
        self,
        env: "Environment",
        config: Optional[TunerConfig] = None,
        monitor: Optional["Monitor"] = None,
    ) -> None:
        self.env = env
        self.config = config or TunerConfig()
        self.monitor = monitor
        #: Attach-ordered channels (dict preserves insertion order; the
        #: tuner never iterates it during a run, only per-key lookup).
        self._channels: Dict[int, _Channel] = {}
        self.decisions: List[dict] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, prefetcher: "Prefetcher") -> None:
        """Put *prefetcher* under tuner control."""
        if prefetcher.tuner is not None and prefetcher.tuner is not self:
            raise RuntimeError("prefetcher is already attached to another tuner")
        prefetcher.tuner = self
        self._channels[id(prefetcher)] = _Channel(self.env.now + self.config.interval_s)

    # -- the control loop ------------------------------------------------

    def before_read(
        self, prefetcher: "Prefetcher", handle: "PFSFileHandle", offset: int, nbytes: int
    ) -> None:
        """Pull-based evaluation hook, called from the demand path."""
        chan = self._channels.get(id(prefetcher))
        if chan is None:
            return
        now = self.env.now
        if now < chan.next_eval:
            return
        # Catch up across idle gaps without evaluating once per missed
        # interval: one evaluation per crossing, deadline re-armed past
        # the current time.
        while chan.next_eval <= now:
            chan.next_eval += self.config.interval_s
        self._evaluate(prefetcher, handle, nbytes, chan)

    def _evaluate(
        self, prefetcher: "Prefetcher", handle: "PFSFileHandle", nbytes: int, chan: _Channel
    ) -> None:
        stats = prefetcher.stats
        current = (stats.hits, stats.partial_hits, stats.misses, stats.skipped_oom)
        dh = current[0] - chan.snapshot[0]
        dp = current[1] - chan.snapshot[1]
        dm = current[2] - chan.snapshot[2]
        doom = current[3] - chan.snapshot[3]
        chan.snapshot = current
        classified = dh + dp + dm
        if classified == 0:
            return
        useful = (dh + dp) / classified
        cfg = self.config
        rank = handle.rank
        policy = prefetcher.policy
        struggling = doom > 0 or useful <= cfg.lower_threshold
        thriving = doom == 0 and useful >= cfg.raise_threshold

        # -- depth envelope ------------------------------------------------
        if isinstance(policy, AdaptivePolicy):
            if struggling and policy.max_depth > max(1, cfg.min_depth):
                self._record(rank, "max_depth", policy.max_depth, policy.max_depth - 1)
                policy.set_max_depth(policy.max_depth - 1)
            elif thriving and dp > 0 and policy.max_depth < cfg.max_depth:
                self._record(rank, "max_depth", policy.max_depth, policy.max_depth + 1)
                policy.set_max_depth(policy.max_depth + 1)
        elif struggling and policy.depth > cfg.min_depth:
            self._record(rank, "depth", policy.depth, policy.depth - 1)
            policy.set_depth(policy.depth - 1)
        elif thriving and dp > 0 and policy.depth < cfg.max_depth:
            self._record(rank, "depth", policy.depth, policy.depth + 1)
            policy.set_depth(policy.depth + 1)

        # -- buffer quota --------------------------------------------------
        quota = policy.quota_bytes
        if doom > 0:
            base = quota if quota is not None else cfg.quota_ceiling_bytes
            new_quota = max(cfg.quota_floor_bytes, base // 2)
            if new_quota != quota:
                self._record(rank, "quota_bytes", quota, new_quota)
                policy.set_quota(new_quota)
        elif thriving and quota is not None and quota < cfg.quota_ceiling_bytes:
            new_quota = min(cfg.quota_ceiling_bytes, quota * 2)
            self._record(rank, "quota_bytes", quota, new_quota)
            policy.set_quota(new_quota)

        # -- request size (batching of adjacent ranges) --------------------
        batch = policy.batch
        det = policy.detector
        # Adjacent planning only happens on contiguous sequential
        # streams (stride == request size); anywhere else a bigger
        # batch is a no-op at best, so fold it back to 1.
        sequential = det is not None and det.confident and det.stride == nbytes
        if (struggling or not sequential) and batch > 1:
            self._record(rank, "batch", batch, 1)
            policy.set_batch(1)
        elif thriving and sequential and batch < cfg.max_batch:
            new_batch = min(cfg.max_batch, batch * 2)
            self._record(rank, "batch", batch, new_batch)
            policy.set_batch(new_batch)

    # -- reporting -------------------------------------------------------

    def _record(self, rank: int, knob: str, old, new) -> None:
        self.decisions.append(
            {"t": self.env.now, "rank": rank, "knob": knob, "old": old, "new": new}
        )
        if self.monitor is not None:
            self.monitor.counter(f"tuner.adjust.{knob}").add(1)

    def summary(self) -> Dict[str, int]:
        """Decision counts per knob (deterministic ordering by knob name)."""
        counts: Dict[str, int] = {}
        for decision in self.decisions:
            counts[decision["knob"]] = counts.get(decision["knob"], 0) + 1
        return dict(sorted(counts.items()))

    def __repr__(self) -> str:
        return (
            f"<OnlineTuner interval={self.config.interval_s}s "
            f"channels={len(self._channels)} decisions={len(self.decisions)}>"
        )


__all__ = ["OnlineTuner", "TunerConfig"]
