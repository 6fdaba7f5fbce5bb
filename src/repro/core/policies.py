"""Prefetch policies: deciding *what* to fetch ahead.

One pipeline, :class:`DepthKAhead`, plans every prefetch.  The paper's
prototype is its depth-1 case: "The prototype prefetches only one block
of data it anticipates will be needed for the future read request.
[...] The prefetch request is issued in anticipation of another read
request issued by the same user thread on the same file."  The
anticipated block is the same process's next request under the current
I/O mode -- computable without messages only in the deterministic-offset
modes (M_RECORD, M_ASYNC), which is why the prototype lives in M_RECORD.

Extensions (the paper's future work, exercised by the policy bench and
property suites) are knobs on the same pipeline:

- ``depth`` -- how many anticipated requests to keep in flight (0 turns
  prefetching off), with buffer-pressure capping by ``quota_bytes``.
- :class:`StrideDetector` -- infers a fixed stride from a handle's
  demand-offset history, covering non-unit-stride M_ASYNC readers whose
  next offset the mode arithmetic cannot predict.
- :class:`AdaptivePolicy` -- the pipeline plus a per-file depth
  controller driven by the hit/partial/miss rates in
  :class:`~repro.obs.stats.PrefetchStats` and by buffer occupancy.

:func:`make_policy` names the presets (:data:`POLICY_NAMES`) that
:class:`~repro.config.MachineConfig` and scale tenants select by name.

All state lives on the policy objects and every decision is a pure
function of the handle's own demand stream and its own prefetcher's
counters, so policies never perturb same-timestamp tie-break
determinism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prefetcher import Prefetcher
    from repro.pfs.client import PFSFileHandle

#: A planned prefetch: (pfs_offset, length).
PlannedRange = Tuple[int, int]

#: Policy names accepted by :func:`make_policy` (and by
#: :attr:`repro.config.MachineConfig.prefetch_policy`).
POLICY_NAMES = ("none", "one-ahead", "depth-k", "adaptive")


class StrideDetector:
    """Infers a fixed access stride from a handle's demand offsets.

    The detector becomes *confident* once the same non-zero stride has
    repeated :attr:`min_confirmations` times; any deviation resets the
    confirmation count, so an irregular stream never sustains
    confidence.  Warm-up is therefore at most ``min_confirmations + 1``
    observations for a perfectly regular pattern (locked by a Hypothesis
    property in ``tests/test_policy_properties.py``).
    """

    def __init__(self, min_confirmations: int = 2) -> None:
        if min_confirmations < 1:
            raise ValueError("min_confirmations must be >= 1")
        self.min_confirmations = min_confirmations
        self._last_offset: Optional[int] = None
        self._stride: Optional[int] = None
        self._confirmations = 0
        #: Size of the most recent observed request (None before any).
        self.last_nbytes: Optional[int] = None

    @property
    def stride(self) -> Optional[int]:
        """The currently hypothesised stride (None before two samples)."""
        return self._stride

    @property
    def confident(self) -> bool:
        """True once the stride has repeated enough to trust."""
        return self._stride is not None and self._confirmations >= self.min_confirmations

    def observe(self, offset: int, nbytes: Optional[int] = None) -> None:
        """Feed one demand offset (and optionally its request size)."""
        if nbytes is not None:
            self.last_nbytes = nbytes
        if self._last_offset is not None:
            stride = offset - self._last_offset
            if stride != 0 and stride == self._stride:
                self._confirmations += 1
            else:
                self._stride = stride if stride != 0 else None
                self._confirmations = 1
        self._last_offset = offset

    def predict(self, offset: int, k: int = 1) -> Optional[int]:
        """Predicted offset of the demand *k* requests after *offset*."""
        if not self.confident:
            return None
        assert self._stride is not None
        return offset + k * self._stride

    def reset(self) -> None:
        self._last_offset = None
        self._stride = None
        self._confirmations = 0
        self.last_nbytes = None

    def __repr__(self) -> str:
        return (
            f"<StrideDetector stride={self._stride} "
            f"confirmations={self._confirmations}/{self.min_confirmations}>"
        )


def _coalesce(ranges: List[PlannedRange], batch: int) -> List[PlannedRange]:
    """Merge runs of adjacent planned ranges into requests of up to
    *batch* slots each (the tuner's request-size knob)."""
    out: List[Tuple[int, int, int]] = []
    for start, length in ranges:
        if out and out[-1][0] + out[-1][1] == start and out[-1][2] < batch:
            s, ln, n = out.pop()
            out.append((s, ln + length, n + 1))
        else:
            out.append((start, length, 1))
    return [(s, ln) for s, ln, _ in out]


class DepthKAhead:
    """The prefetch pipeline: plan up to *depth* anticipated requests.

    ``DepthKAhead(1)`` -- no detector, no quota, no batching -- is the
    paper's prototype.  ``depth=0`` plans nothing (prefetching off).

    Prediction uses the per-mode arithmetic of the prototype, overridden
    by a confident :class:`StrideDetector` when one is attached -- the
    detector's stride equals the arithmetic stride on regular
    sequential/record streams, and covers lseek-strided M_ASYNC streams
    the arithmetic mispredicts.

    Buffer pressure: a range overlapping an outstanding (live) prefetch
    buffer or an earlier range of the same plan is dropped (never
    re-requested) and counted in the prefetcher's
    ``stats.skipped_duplicate``; planning stops once
    outstanding-plus-planned bytes would exceed *quota_bytes*.  Both
    caps are property-tested: planned ranges never overlap live buffers
    or each other, nor push total prefetch bytes past the quota.

    ``batch > 1`` coalesces adjacent planned ranges into fewer, larger
    requests (the online tuner's request-size knob).
    """

    def __init__(
        self,
        depth: int = 1,
        quota_bytes: Optional[int] = None,
        detector: Optional[StrideDetector] = None,
        batch: int = 1,
    ) -> None:
        self.set_depth(depth)
        self.set_quota(quota_bytes)
        self.set_batch(batch)
        self.detector = detector

    # -- tuner knobs -----------------------------------------------------

    def set_depth(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = depth

    def set_quota(self, quota_bytes: Optional[int]) -> None:
        if quota_bytes is not None and quota_bytes <= 0:
            raise ValueError("quota_bytes must be positive (or None)")
        self.quota_bytes = quota_bytes

    def set_batch(self, batch: int) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = batch

    # -- planning --------------------------------------------------------

    def plan(
        self,
        handle: "PFSFileHandle",
        offset: int,
        nbytes: int,
        prefetcher: Optional["Prefetcher"],
    ) -> List[PlannedRange]:
        """Ranges to prefetch after a demand read of [offset, offset+nbytes).

        The detector observes every demand read, even at depth 0, so a
        paused pipeline restarts from a confident prediction.
        """
        det = self.detector
        if det is not None:
            det.observe(offset, nbytes)
        if self.depth < 1 or nbytes <= 0:
            return []
        if det is not None and det.confident:
            # Run ahead of the observed stride from this demand read.
            first = offset + det.stride
            step = det.stride
        else:
            # The mode arithmetic: the handle's own next offset under the
            # current I/O mode, advancing by the mode's per-request stride.
            first = handle.next_read_offset(nbytes)
            if first is None:
                # Mode without deterministic offsets: nothing to anticipate.
                return []
            from repro.pfs.modes import IOMode

            step = handle.nprocs * nbytes if handle.iomode is IOMode.M_RECORD else nbytes
        # Clamp at EOF; planning stops at the first empty slot.
        size = handle.file.size_bytes
        ranges: List[PlannedRange] = []
        for k in range(self.depth):
            start = first + k * step
            length = min(nbytes, size - start)
            if start < 0 or length <= 0:
                break
            ranges.append((start, length))
        if self.batch > 1:
            ranges = _coalesce(ranges, self.batch)
        return self._cap(ranges, prefetcher)

    def _cap(self, ranges: List[PlannedRange], prefetcher) -> List[PlannedRange]:
        blist = prefetcher._list if prefetcher is not None else None
        quota = self.quota_bytes
        used = blist.live_bytes if quota is not None and blist is not None else 0
        out: List[PlannedRange] = []
        for start, length in ranges:
            end = start + length
            if (blist is not None and blist.overlaps_range(start, length)) or (
                out and any(s < end and start < s + n for s, n in out)
            ):
                # Already in flight, ready, or planned: the pipeline covers it.
                if prefetcher is not None:
                    prefetcher.stats.skipped_duplicate += 1
                continue
            if quota is not None and used + length > quota:
                break
            out.append((start, length))
            used += length
        return out

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} depth={self.depth} quota={self.quota_bytes} "
            f"batch={self.batch} detector={self.detector!r}>"
        )


class AdaptivePolicy(DepthKAhead):
    """The pipeline with a per-file adaptive depth controller.

    Retunes :attr:`depth` from the handle's own
    :class:`~repro.obs.stats.PrefetchStats`.  Every *window* classified
    demand reads (hit + partial + miss deltas since the last evaluation)
    the controller computes the useful fraction
    ``(hits + partials) / classified`` over the window and moves depth
    one step:

    - **down** (never below *min_depth*) when the window was mostly
      misses (useful <= *lower_threshold*) or any prefetch was dropped
      for memory pressure (``skipped_oom`` moved) -- so a forced-miss
      stream drives depth monotonically non-increasing, a property
      locked in ``tests/test_policy_properties.py``;
    - **up** (never above *max_depth*) when the window was almost all
      useful (useful >= *raise_threshold*) **and** partial hits showed
      the pipeline is too shallow (demand catching up to in-flight
      prefetches) **and** occupancy leaves room for a deeper pipeline.
      A window of pure full hits leaves depth alone: the pipeline
      already runs ahead of demand, and deeper would only spend memory
      and issue overhead.  Every depth reduction bumps
      ``stats.throttled``.
    """

    def __init__(
        self,
        min_depth: int = 1,
        max_depth: int = 4,
        initial_depth: int = 1,
        window: int = 8,
        raise_threshold: float = 0.9,
        lower_threshold: float = 0.25,
        quota_bytes: Optional[int] = None,
        detector: Optional[StrideDetector] = None,
        batch: int = 1,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= lower_threshold <= raise_threshold <= 1.0:
            raise ValueError("need 0 <= lower_threshold <= raise_threshold <= 1")
        if not 0 <= min_depth <= initial_depth <= max_depth:
            raise ValueError("need 0 <= min_depth <= initial_depth <= max_depth")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.min_depth = min_depth
        self.max_depth = max_depth
        self.window = window
        self.raise_threshold = raise_threshold
        self.lower_threshold = lower_threshold
        super().__init__(
            depth=initial_depth, quota_bytes=quota_bytes, detector=detector, batch=batch
        )
        #: (hits, partial_hits, misses, skipped_oom) at the last window edge.
        self._snapshot: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def set_depth(self, depth: int) -> None:
        """Manual/tuner override: clamp into [min_depth, max_depth]."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = min(max(depth, self.min_depth), self.max_depth)

    def set_max_depth(self, max_depth: int) -> None:
        """Tuner knob: move the depth envelope, clamping current depth."""
        if max_depth < max(1, self.min_depth):
            raise ValueError("max_depth must be >= max(1, min_depth)")
        self.max_depth = max_depth
        self.depth = min(self.depth, max_depth)

    # -- planning --------------------------------------------------------

    def plan(self, handle, offset, nbytes, prefetcher):
        if prefetcher is not None:
            self._maybe_retune(nbytes, prefetcher)
        return super().plan(handle, offset, nbytes, prefetcher)

    def _maybe_retune(self, nbytes, prefetcher) -> None:
        stats = prefetcher.stats
        current = (stats.hits, stats.partial_hits, stats.misses, stats.skipped_oom)
        dh = current[0] - self._snapshot[0]
        dp = current[1] - self._snapshot[1]
        dm = current[2] - self._snapshot[2]
        doom = current[3] - self._snapshot[3]
        classified = dh + dp + dm
        if classified < self.window:
            return
        self._snapshot = current
        useful = (dh + dp) / classified
        new = self.depth
        if doom > 0 or useful <= self.lower_threshold:
            new = max(self.min_depth, self.depth - 1)
        elif (
            useful >= self.raise_threshold
            and dp > 0
            and self._room_to_grow(nbytes, prefetcher)
        ):
            new = min(self.max_depth, self.depth + 1)
        if new < self.depth:
            stats.throttled += 1
        self.depth = new

    def _room_to_grow(self, nbytes: int, prefetcher) -> bool:
        """Occupancy gate: does a deeper pipeline fit quota and memory?"""
        projected = (self.depth + 1) * nbytes
        if self.quota_bytes is not None and projected > self.quota_bytes:
            return False
        blist = prefetcher._list
        if blist is not None and not blist.can_issue(nbytes):
            return False
        return True


def make_policy(
    name: str = "one-ahead",
    depth: int = 1,
    quota_bytes: Optional[int] = None,
    stride_detect: bool = True,
    batch: int = 1,
    max_depth: Optional[int] = None,
) -> DepthKAhead:
    """The pipeline preset keyed by the
    :class:`~repro.config.MachineConfig` ``prefetch_policy`` name.

    - ``"none"``: ``DepthKAhead(depth=0)``, prefetching off;
    - ``"one-ahead"``: ``DepthKAhead(depth=max(1, depth))`` with no
      detector and no quota -- at ``depth=1`` exactly the paper's
      prototype, so the default configuration stays bit-identical to
      the seed (golden-locked);
    - ``"depth-k"``: the pipeline with *quota_bytes*, *batch* and (with
      *stride_detect*) a :class:`StrideDetector`;
    - ``"adaptive"``: the same knobs under :class:`AdaptivePolicy`,
      whose depth envelope *max_depth* defaults to ``max(4, depth)``.
    """
    if name == "none":
        return DepthKAhead(depth=0)
    if name == "one-ahead":
        return DepthKAhead(depth=max(1, depth))
    detector = StrideDetector() if stride_detect else None
    if name == "depth-k":
        return DepthKAhead(depth=depth, quota_bytes=quota_bytes, detector=detector, batch=batch)
    if name == "adaptive":
        top = max_depth if max_depth is not None else max(4, depth)
        return AdaptivePolicy(
            initial_depth=max(1, depth),
            max_depth=max(top, depth, 1),
            quota_bytes=quota_bytes,
            detector=detector,
            batch=batch,
        )
    raise ValueError(f"unknown prefetch policy {name!r}; known: {', '.join(POLICY_NAMES)}")
