"""The paper's contribution: client-side prefetching for the PFS.

Paper section 3: after every user read, the client issues an
asynchronous request (through the standard ART machinery) for the block
it anticipates the same process will read next.  Prefetched data lands
in a per-file prefetch buffer list in compute-node memory; the file
pointer is untouched; buffers are freed when the file is closed.  A hit
costs a memory copy from the prefetch buffer into the user's buffer --
the overhead that makes prefetching a wash (or a small loss) when there
is no computation to overlap with.

- :mod:`repro.core.prefetch_buffer` -- buffer structures and the
  per-file buffer list.
- :mod:`repro.core.policies` -- what to prefetch: one depth-k pipeline
  whose depth-1 preset is the paper's one-request-ahead prototype, with
  stride detection, buffer quota and an adaptive depth controller.
- :mod:`repro.core.prefetcher` -- the prefetcher: hit / partial-hit /
  miss service and prefetch issue.
- :mod:`repro.core.tuner` -- online retuning of prefetch depth / buffer
  quota / request size at simulated-time intervals (zero events).

Prefetch statistics (hit ratios, overlap, wasted prefetches) live in
:mod:`repro.obs.stats`.
"""

from repro.core.policies import (
    POLICY_NAMES,
    AdaptivePolicy,
    DepthKAhead,
    StrideDetector,
    make_policy,
)
from repro.core.prefetch_buffer import BufferState, PrefetchBuffer, PrefetchBufferList
from repro.core.prefetcher import Prefetcher
from repro.core.tuner import OnlineTuner, TunerConfig
from repro.obs.stats import PrefetchStats

__all__ = [
    "AdaptivePolicy",
    "BufferState",
    "DepthKAhead",
    "OnlineTuner",
    "POLICY_NAMES",
    "PrefetchBuffer",
    "PrefetchBufferList",
    "PrefetchStats",
    "Prefetcher",
    "StrideDetector",
    "TunerConfig",
    "make_policy",
]
