"""Hypothesis properties over the depth-k / adaptive policy family.

Four contracts from the PR-8 policy campaign, each stated as a law over
randomly generated streams rather than a handful of examples:

1. the stride detector recovers any regular (start, stride) pattern
   within its documented warm-up and predicts exactly;
2. ``DepthKAhead(depth=1)`` with no detector/quota/batch plans exactly
   the paper's one-request-ahead arithmetic (written out below as a
   reference oracle), for every mode, geometry, and offset (plus an
   end-to-end golden-fingerprint check on the bench3 grid);
3. the adaptive controller's depth is monotone non-increasing under a
   forced-miss demand stream and never leaves its envelope;
4. capped plans never overlap a live prefetch buffer or each other,
   count every dropped duplicate, and never push live + planned bytes
   past the quota.
"""

import json
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import report_fingerprint
from repro.core import (
    AdaptivePolicy,
    DepthKAhead,
    Prefetcher,
    PrefetchStats,
    StrideDetector,
)
from repro.core.policies import _coalesce
from repro.core.prefetch_buffer import PrefetchBufferList
from repro.experiments.common import KB, run_collective, scaled_file_size
from repro.hardware.memory import MemoryRegion
from repro.pfs import IOMode
from repro.sim import Environment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

MB = 1024 * 1024


class _FakeHandle:
    """Deterministic handle surface for plan() laws."""

    def __init__(self, mode, rank, nprocs, size, next_offset):
        self.iomode = mode
        self.rank = rank
        self.nprocs = nprocs
        self._next = next_offset

        class _File:
            size_bytes = size

        self.file = _File()

    def next_read_offset(self, nbytes):
        return self._next


class _FakePrefetcher:
    """Stub carrying just the buffer list and stats the planner uses."""

    def __init__(self, blist):
        self._list = blist
        self.stats = PrefetchStats()


def _paper_one_ahead(handle, nbytes):
    """The prototype's prediction, written out: the same process's next
    request under the current I/O mode, clamped at EOF; nothing in a
    mode without deterministic offsets."""
    base = handle.next_read_offset(nbytes)
    if base is None:
        return []
    length = min(nbytes, handle.file.size_bytes - base)
    return [(base, length)] if length > 0 else []


class TestStrideDetectorRecovery:
    @given(
        start=st.integers(min_value=0, max_value=2**30),
        stride=st.integers(min_value=-(2**20), max_value=2**20).filter(lambda s: s != 0),
        min_confirmations=st.integers(min_value=1, max_value=5),
        nbytes=st.integers(min_value=1, max_value=1 * MB),
        lookahead=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_regular_pattern_recovered_within_warmup(
        self, start, stride, min_confirmations, nbytes, lookahead
    ):
        """Warm-up is exactly min_confirmations + 1 observations: one
        short of it the detector must not be confident, at it the
        detector must know the stride and predict exactly."""
        det = StrideDetector(min_confirmations=min_confirmations)
        for i in range(min_confirmations):
            det.observe(start + i * stride, nbytes)
            assert not det.confident
        last = start + min_confirmations * stride
        det.observe(last, nbytes)
        assert det.confident
        assert det.stride == stride
        assert det.last_nbytes == nbytes
        assert det.predict(last, lookahead) == last + lookahead * stride

    @given(
        start=st.integers(min_value=0, max_value=2**20),
        stride=st.integers(min_value=1, max_value=2**16),
        deviation=st.integers(min_value=1, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_deviation_breaks_confidence(self, start, stride, deviation):
        det = StrideDetector(min_confirmations=2)
        for i in range(3):
            det.observe(start + i * stride)
        assert det.confident
        # Any off-pattern step (different stride) resets confirmations.
        det.observe(start + 2 * stride + stride + deviation + stride * 2)
        assert not det.confident
        assert det.predict(0) is None

    @given(offsets=st.lists(st.integers(min_value=0, max_value=2**20), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_confidence_implies_a_real_repeated_stride(self, offsets):
        """Whatever the stream, confidence is only ever claimed for a
        non-zero stride that the tail of the stream actually repeated."""
        det = StrideDetector(min_confirmations=2)
        for offset in offsets:
            det.observe(offset)
        if det.confident:
            k = det.min_confirmations
            tail = offsets[-(k + 1):]
            deltas = {b - a for a, b in zip(tail, tail[1:])}
            assert deltas == {det.stride}
            assert det.stride != 0


class TestDepthOneEquivalence:
    @given(
        mode=st.sampled_from([IOMode.M_RECORD, IOMode.M_ASYNC, IOMode.M_UNIX]),
        nprocs=st.integers(min_value=1, max_value=64),
        data=st.data(),
        size_blocks=st.integers(min_value=0, max_value=512),
        next_block=st.integers(min_value=0, max_value=600),
        nbytes=st.integers(min_value=1, max_value=256 * KB),
    )
    @settings(max_examples=300, deadline=None)
    def test_depth_one_plans_exactly_like_one_ahead(
        self, mode, nprocs, data, size_blocks, next_block, nbytes
    ):
        rank = data.draw(st.integers(min_value=0, max_value=nprocs - 1))
        size = size_blocks * 4 * KB
        # None: a mode without deterministic offsets (M_UNIX on a real handle).
        next_offset = data.draw(st.sampled_from([None, next_block * 4 * KB]))
        handle = _FakeHandle(mode, rank, nprocs, size, next_offset)
        bare = DepthKAhead(depth=1)  # no detector, no quota, batch=1
        assert bare.plan(handle, 0, nbytes, None) == _paper_one_ahead(handle, nbytes)

    @given(
        nprocs=st.integers(min_value=1, max_value=16),
        nbytes=st.integers(min_value=1, max_value=128 * KB),
        rounds=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_equivalence_survives_a_sequential_demand_stream(
        self, nprocs, nbytes, rounds
    ):
        """Replaying a whole M_RECORD demand stream keeps the plans
        identical at every step (the depth-1 pipeline never gets ahead
        of the prototype, and EOF clamps agree)."""
        size = nprocs * nbytes * 24
        bare = DepthKAhead(depth=1)
        pf = _FakePrefetcher(None)
        for step in range(rounds):
            offset = step * nprocs * nbytes
            handle = _FakeHandle(
                IOMode.M_RECORD, 0, nprocs, size, offset + nprocs * nbytes
            )
            assert bare.plan(handle, offset, nbytes, pf) == _paper_one_ahead(handle, nbytes)
        assert pf.stats.skipped_duplicate == 0

    def test_depth_k_at_one_matches_the_golden_grid(self):
        """End-to-end: a depth-k pipeline at k=1 (detector off) is
        bit-identical to the committed one-ahead golden fingerprints."""
        with open(GOLDEN_DIR / "bench3_fingerprints.json") as fh:
            golden = json.load(fh)["cells"]
        for size_kb in (64, 256):
            report = run_collective(
                request_size=size_kb * KB,
                file_size=scaled_file_size(size_kb * KB, rounds=4),
                iomode=IOMode.M_RECORD,
                prefetch=True,
                rounds=4,
                prefetch_policy="depth-k",
                prefetch_depth=1,
                prefetch_stride_detect=False,
            )
            key = f"table1:{size_kb}kb:prefetch=True"
            assert report_fingerprint(report) == golden[key]


class TestAdaptiveMonotoneUnderMisses:
    @given(
        initial=st.integers(min_value=1, max_value=6),
        window=st.integers(min_value=1, max_value=8),
        min_depth=st.integers(min_value=0, max_value=1),
        bursts=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_forced_misses_drive_depth_down_monotonically(
        self, initial, window, min_depth, bursts
    ):
        policy = AdaptivePolicy(
            min_depth=min_depth,
            max_depth=max(6, initial),
            initial_depth=max(initial, min_depth),
            window=window,
        )
        pf = Prefetcher(policy)
        handle = _FakeHandle(IOMode.M_ASYNC, 0, 1, 64 * MB, 64 * KB)
        depths = [policy.depth]
        for burst in bursts:
            pf.stats.misses += burst
            policy.plan(handle, 0, 64 * KB, pf)
            depths.append(policy.depth)
        assert depths == sorted(depths, reverse=True)
        assert depths[-1] >= min_depth
        # One step down per evaluated window: enough all-miss windows
        # must floor the controller.
        if all(b >= window for b in bursts) and len(bursts) >= initial - min_depth:
            assert policy.depth == min_depth
        # Every reduction was accounted as a throttle event.
        reductions = sum(1 for a, b in zip(depths, depths[1:]) if b < a)
        assert pf.stats.throttled == reductions

    @given(
        hits=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_pure_full_hits_never_move_depth(self, hits):
        policy = AdaptivePolicy(initial_depth=2, max_depth=6, window=4)
        pf = Prefetcher(policy)
        handle = _FakeHandle(IOMode.M_ASYNC, 0, 1, 64 * MB, 64 * KB)
        for burst in hits:
            pf.stats.hits += burst
            policy.plan(handle, 0, 64 * KB, pf)
            assert policy.depth == 2


class TestPlanSafety:
    @given(
        depth=st.integers(min_value=1, max_value=6),
        nbytes=st.integers(min_value=1, max_value=128 * KB),
        next_block=st.integers(min_value=0, max_value=64),
        quota_blocks=st.one_of(st.none(), st.integers(min_value=1, max_value=32)),
        live=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=96),  # offset in 64KB blocks
                st.integers(min_value=1, max_value=4),  # length in 64KB blocks
            ),
            max_size=6,
        ),
        batch=st.integers(min_value=1, max_value=4),
        stride=st.one_of(st.none(), st.integers(min_value=1, max_value=128 * KB)),
    )
    @settings(max_examples=300, deadline=None)
    def test_capped_plans_respect_buffers_and_quota(
        self, depth, nbytes, next_block, quota_blocks, live, batch, stride
    ):
        env = Environment()
        blist = PrefetchBufferList(env, MemoryRegion(64 * MB))
        for off_blk, len_blk in live:
            blist.issue(off_blk * 64 * KB, len_blk * 64 * KB)
        quota = quota_blocks * 64 * KB if quota_blocks is not None else None
        size = 128 * 64 * KB
        offset = next_block * 64 * KB
        detector = None
        if stride is not None:
            # A confident detector whose stride may be shorter than the
            # request, so ranges within one plan overlap each other.
            detector = StrideDetector()
            detector.observe(offset - 2 * stride)
            detector.observe(offset - stride)
        policy = DepthKAhead(depth=depth, quota_bytes=quota, batch=batch, detector=detector)
        handle = _FakeHandle(IOMode.M_ASYNC, 0, 1, size, offset)
        pf = _FakePrefetcher(blist)
        planned = policy.plan(handle, offset, nbytes, pf)

        planned_bytes = 0
        for start, length in planned:
            assert length > 0
            assert start + length <= handle.file.size_bytes
            assert not blist.overlaps_range(start, length), (start, length)
            planned_bytes += length
        if quota is not None:
            # Live buffers may already exceed a freshly shrunk quota
            # (the planner cannot un-issue them); what it guarantees is
            # that *new* plans never push the total further past it.
            assert planned_bytes <= max(0, quota - blist.live_bytes)
        # Plans never overlap each other either.
        spans = sorted((s, s + n) for s, n in planned)
        for (_, end1), (start2, _) in zip(spans, spans[1:]):
            assert end1 <= start2

        # Reference model: the uncapped candidates (the stride run from
        # the demand offset, or M_ASYNC arithmetic from the handle's next
        # offset), then a greedy walk that drops duplicates and stops at
        # the quota.  Every drop must be counted.
        first, step = (offset + stride, stride) if stride is not None else (offset, nbytes)
        candidates = []
        for k in range(depth):
            start = first + k * step
            length = min(nbytes, size - start)
            if length <= 0:
                break
            candidates.append((start, length))
        kept, dropped, used = [], 0, blist.live_bytes
        for start, length in _coalesce(candidates, batch):
            end = start + length
            if blist.overlaps_range(start, length) or any(
                s < end and start < s + n for s, n in kept
            ):
                dropped += 1
                continue
            if quota is not None and used + length > quota:
                break
            kept.append((start, length))
            used += length
        assert planned == kept
        assert pf.stats.skipped_duplicate == dropped

    @given(
        depth=st.integers(min_value=1, max_value=8),
        nbytes=st.integers(min_value=1, max_value=64 * KB),
        mode=st.sampled_from([IOMode.M_RECORD, IOMode.M_ASYNC]),
        nprocs=st.integers(min_value=1, max_value=8),
        size=st.integers(min_value=0, max_value=4 * MB),
        next_offset=st.integers(min_value=0, max_value=8 * MB),
    )
    @settings(max_examples=200, deadline=None)
    def test_uncapped_plans_stay_inside_the_file(
        self, depth, nbytes, mode, nprocs, size, next_offset
    ):
        policy = DepthKAhead(depth=depth)
        handle = _FakeHandle(mode, 0, nprocs, size, next_offset)
        planned = policy.plan(handle, 0, nbytes, None)
        assert len(planned) <= depth
        for start, length in planned:
            assert 0 < length <= nbytes
            assert start + length <= size
