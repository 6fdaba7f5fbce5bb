"""The repository's benchmark: host speed of the simulator on three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-read --seed 1 --seconds 20 --trace 0

Workloads: ``paper-read``, ``checkpoint-restart``, ``scale-mixed`` (see
``cells.py`` and ``README.md``).  One process runs the workload's cells
one after another: one warm-up pass, then timed passes until
``--seconds`` have elapsed (at least ``MIN_PASSES`` passes).  Every cell
of every pass is checked against the stored references; the workload's
designated cell is re-run under ``tie_break="lifo"`` and must
fingerprint identically.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs untraced
passes for half the time and then one traced pass, and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report with the
provenance of the run.  ``--out PATH`` also writes the full result
(per-cell records, quartiles, provenance) as JSON.

The host's speed is probed before, during and after every untraced cell
(:class:`HostSpeed`).  The end-to-end ``run_per_probe`` is a pass's host
time in units of the probe's time at the same moments, which holds
steady when the host runs fast or slow; ``setup_s`` and the per-layer
``bench.run_s`` and ``*.self_s`` are plain host seconds, and
``bench.host_ref_s`` (the median probe) shows how fast the host ran.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCH9 = os.path.join(ROOT, "BENCH_9.json")

#: Whole passes measured even when ``--seconds`` is shorter.
MIN_PASSES = 3

#: Nearest-rank percentiles tried for a tail, highest first; the tail is
#: the highest one with at least ``TAIL_BEYOND`` samples beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class CheckoutError(Exception):
    """The benchmark is not running from a checkout holding the sources."""


def use_checkout_sources() -> None:
    """Import the simulator from this checkout's ``src/`` and nowhere else."""
    for needed in (os.path.join(SRC, "repro", "__init__.py"), BENCH9):
        if not os.path.isfile(needed):
            raise CheckoutError(f"missing {os.path.relpath(needed, ROOT)}")
    # One compute thread: numpy must not start a BLAS pool beside the run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise CheckoutError(f"imported repro from {repro.__file__}, not from {SRC}")


# -- measuring -------------------------------------------------------------------------


@dataclass
class CellRun:
    """One execution of one cell."""

    key: str
    tie_break: str
    host_s: float
    setup_s: Dict[str, float]
    events: int
    fingerprint: Optional[str]
    problems: List[str]
    observation: Any = None
    #: Prefetch statistics pooled over the cell's handles.
    prefetch: Any = None
    #: Busy and cache-hit totals read off the cell's machines.
    machine_totals: Dict[str, float] = field(default_factory=dict)
    #: Host-speed probe times (:class:`HostSpeed`) from just before,
    #: during and just after the cell.
    speed: List[float] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return self.host_s - sum(self.setup_s.values())

    @property
    def run_per_probe(self) -> float:
        """``run_s`` in units of the probe's time, the probe timed at the
        same moments as the cell ran: each stretch of the cell's host time
        divided by what the probe took then."""
        return self.run_s * statistics.fmean(1.0 / seconds for seconds in self.speed)


class HostSpeed:
    """Samples the host's speed while a cell runs.

    On the shared 2-vCPU VM the benchmark was written on, the host runs
    code either fast or up to 1.7x slower, switching several times a
    second, with slower phases lasting minutes on top; a pass's host time
    moved by up to 2x between runs of the same code.  How much slower
    depends on the code: timed back to back, a tight interpreter loop over
    a few objects slowed 1.7-1.8x, and scattered updates of a large heap or
    buffer 1.2-1.3x, while the cells fall in between, the kernel-heavy ones
    nearer the tight loop.  The probe mixes the two, about three quarters
    of its time in the first: ``STEPS`` kernel-like steps (generator
    processes resumed off a heap, with dict bookkeeping) and ``TOUCHES``
    read-modify-writes of bytes picked at random from a 32 MB buffer.  The
    buffer and the picks are flat arrays, which the garbage collector never
    walks, so the probe does not slow the cells' collections.

    A timer signal interrupts the cell every ``INTERVAL_S`` seconds and times
    one probe, with the garbage collector off so that the cell's live
    objects are not collected on the probe's time.  The probe's own time is
    taken out of the cell's time.
    """

    INTERVAL_S = 0.015
    STEPS = 250
    TOUCHES = 200
    BUFFER_BYTES = 32 << 20

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Host seconds spent in probes taken inside timed regions.
        self.spent = 0.0
        self._heap = []
        for pid in range(64):
            generator = self._process(pid)
            heapq.heappush(self._heap, (next(generator), pid, generator))
        self._buffer = bytearray(range(256)) * (self.BUFFER_BYTES // 256)
        picks = random.Random(0)
        self._picks = array.array(
            "q", (picks.randrange(self.BUFFER_BYTES) for _ in range(1 << 16))
        )
        self._next_pick = 0

    @staticmethod
    def _process(pid):
        tally: Dict[int, int] = {}
        k = 0
        while True:
            k += 1
            tally[k % 8] = tally.get(k % 8, 0) + 1
            yield ((pid * 7 + k * 13) % 17 + 1) * 1e-3

    def _run(self) -> None:
        heap = self._heap
        for _ in range(self.STEPS):
            now, pid, generator = heapq.heappop(heap)
            heapq.heappush(heap, (now + generator.send(None), pid, generator))
        buffer, picks, first = self._buffer, self._picks, self._next_pick
        for j in range(first, first + self.TOUCHES):
            at = picks[j & 0xFFFF]
            buffer[at] = (buffer[at] + j) & 0xFF
        self._next_pick = (first + self.TOUCHES) & 0xFFFF

    def probe(self) -> float:
        """Host seconds for one probe; also kept in ``samples``."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._run()
            seconds = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def _on_timer(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Probe every ``INTERVAL_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Bench:
    """Runs one workload's cells against the references."""

    def __init__(self, workload: str, seed: int, cells_filter=None) -> None:
        import cells

        self.workload = workload
        self.cells = cells.workload_cells(workload, seed)
        if cells_filter:
            unknown = sorted(set(cells_filter) - {c.key for c in self.cells})
            if unknown:
                raise ValueError(f"unknown cells for {workload}: {unknown}")
            self.cells = [c for c in self.cells if c.key in cells_filter]
        self.refs = cells.References(cells.DEFAULT_REFERENCES, BENCH9)
        self.tie_cell = next(
            (c for c in self.cells if c.key == cells.TIE_CHECK_CELL[workload]), self.cells[0]
        )
        self.speed = HostSpeed()

    @property
    def host_ref(self) -> float:
        """The median probe time of the run."""
        return statistics.median(self.speed.samples)

    def run_cell(self, cell, ledger, tie_break="fifo", verify=True,
                 recording=contextlib.nullcontext, sample=True) -> CellRun:
        """Run *cell* once, timing (and, traced, recording) only the cell
        itself; the checks of its result come after.  Unless *sample* is
        false, the host's speed is probed before, during and after it."""
        import cells
        import hooks

        ledger.reset()
        gc.collect()
        speed = self.speed
        first = len(speed.samples)
        speed.probe()
        sampling = speed.sampling if sample else contextlib.nullcontext
        spent = speed.spent  # probe time inside the timed region comes off
        start = time.perf_counter()
        try:
            with recording(), sampling():
                result = cell.run(tie_break)
        except Exception:  # a cell that raises is a failed cell, not a crash
            traceback.print_exc(file=sys.stderr)
            return CellRun(
                cell.key, tie_break, time.perf_counter() - start, dict(ledger.setup_s),
                ledger.events, None, [f"raised {sys.exc_info()[0].__name__}"],
            )
        host_s = time.perf_counter() - start - (speed.spent - spent)
        speed.probe()
        samples = speed.samples[first:]
        problems = self.refs.problems(self.workload, cell, result)
        if verify:
            for machine in ledger.machines:
                problems += machine.verify()
        return CellRun(
            cell.key, tie_break, host_s, dict(ledger.setup_s), ledger.events,
            cells.fingerprint(result), problems, cells.observe(result, ledger.handles),
            ledger.prefetch_stats(), hooks.machine_totals(ledger.machines), samples,
        )

    def run_pass(self, ledger, **kwargs) -> List[CellRun]:
        """Every cell once."""
        return [self.run_cell(cell, ledger, **kwargs) for cell in self.cells]

    def measure(self, ledger, seconds: float, min_passes: int) -> List[List[CellRun]]:
        """Untraced passes until *seconds* have elapsed (at least *min_passes*)."""
        passes: List[List[CellRun]] = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(ledger))
        return passes

    def tie_check(self, ledger, reference: CellRun) -> CellRun:
        """The designated cell under lifo; a fingerprint differing from
        its fifo run is a failure."""
        lifo = self.run_cell(self.tie_cell, ledger, tie_break="lifo")
        if lifo.fingerprint != reference.fingerprint:
            lifo.problems.append("fingerprint differs between fifo and lifo")
        return lifo


def flag_differences(first: List[CellRun], later: List[CellRun], why: str) -> None:
    """Mark each run of *later* whose events or fingerprint differ from
    the same cell's run in *first*."""
    for expected, run in zip(first, later):
        if (run.events, run.fingerprint) != (expected.events, expected.fingerprint):
            run.problems.append(why)


# -- statistics ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(percentile, value, sample count): the highest percentile of
    :data:`TAIL_PERCENTILES` with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return percentile, ordered[rank - 1], n
    return 100.0, ordered[-1], n


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_cell_best(passes: List[List[CellRun]], value) -> float:
    """Sum over cells of each cell's smallest value across passes.

    Every pass does exactly the same work (events and fingerprints are
    checked equal), and interference from the host only ever adds time:
    passes of one run differ by 20-60% when the host is busy."""
    return sum(min(value(runs[i]) for runs in passes) for i in range(len(passes[0])))


def per_cell_median(passes: List[List[CellRun]], value) -> float:
    """Sum over cells of each cell's median value across passes."""
    return sum(statistics.median(value(runs[i]) for runs in passes)
               for i in range(len(passes[0])))


# -- metrics ----------------------------------------------------------------------------


def end_to_end(passes: List[List[CellRun]]):
    """(the end-to-end metrics of BENCHMARK.json, workload-specific extras)."""
    obs = [run.observation for run in passes[0] if run.observation is not None]
    durations = [d for o in obs for d in o.read_durations]
    tail_p, tail_v, tail_n = tail(durations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def host_time(per_cell, value_of, unit):
        """One pass's host time, from *per_cell* values across passes, with
        the median and quartiles of the pass totals beside."""
        totals = [sum(value_of(run) for run in runs) for runs in passes]
        q1, median, q3 = quartiles(totals)
        return {"value": per_cell(passes, value_of), "unit": unit, "median": median,
                "q1": q1, "q3": q3, "passes": len(totals)}

    metrics = {
        "run_per_probe": host_time(per_cell_median, lambda r: r.run_per_probe, "probes"),
        "setup_s": host_time(per_cell_best, lambda r: sum(r.setup_s.values()), "s"),
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "events": {"value": sum(run.events for run in passes[0]), "unit": "count"},
        "sim_read_mbps": {"value": geomean([o.read_mbps for o in obs]), "unit": "MB/s",
                          "cells": len(obs)},
        "sim_read_p50_ms": {"value": 1e3 * statistics.median(durations), "unit": "sim_ms",
                            "n": len(durations)},
        "sim_read_tail_ms": {"value": 1e3 * tail_v, "unit": "sim_ms",
                             "percentile": tail_p, "n": tail_n},
    }
    extras: Dict[str, dict] = {"run_s": host_time(per_cell_best, lambda r: r.run_s, "s")}
    writes = [o.write_mbps for o in obs if o.write_mbps is not None]
    if writes:
        extras["sim_write_mbps"] = {"value": geomean(writes), "unit": "MB/s",
                                    "cells": len(writes)}
    jobs = [t for o in obs for t in o.job_turnarounds]
    if jobs:
        job_p, job_v, job_n = tail(jobs)
        extras["sim_job_tail_s"] = {"value": job_v, "unit": "sim_s", "percentile": job_p,
                                    "n": job_n}
    jains = [o.jain for o in obs if o.jain is not None]
    if jains:
        extras["jain_min"] = {"value": min(jains), "unit": "ratio", "cells": len(jains)}
    return metrics, extras


def per_layer(bench: Bench, ledger, untraced: List[List[CellRun]]):
    """One traced pass: (per-layer metrics, the pass's cell runs)."""
    import cProfile
    import pstats

    import hooks
    from repro.obs.stats import PrefetchStats

    profiler = cProfile.Profile()
    with hooks.LayerTrace() as trace:

        @contextlib.contextmanager
        def recording():
            with trace.recording():
                profiler.enable()
                try:
                    yield
                finally:
                    profiler.disable()

        traced = bench.run_pass(ledger, verify=False, recording=recording, sample=False)
    stats = pstats.Stats(profiler)
    folded = hooks.fold_self_time(stats)
    totals: Dict[str, float] = {}
    prefetch = PrefetchStats()
    for run in traced:
        for name, value in run.machine_totals.items():
            totals[name] = totals.get(name, 0.0) + value
        if run.prefetch is not None:
            prefetch = prefetch.merge(run.prefetch)
    untraced_run_s = per_cell_best(untraced, lambda r: r.run_s)
    events = sum(run.events for run in untraced[0])

    def ratio(num, den):
        return num / den if den else 0.0

    counts = trace.counts
    metrics: Dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in hooks.LAYERS:
        put(f"{layer}.self_s", folded[layer], "s")
    for name, unit in hooks.TRACE_COUNTS:
        put(name, counts.get(name, 0), unit)
    put("sim.resumes", hooks.call_count(stats, "_resume", "sim/process.py"), "count")
    put("sim.settles", hooks.call_count(stats, "_settle"), "count")
    put("sim.host_us_per_event", 1e6 * ratio(untraced_run_s, events), "us")
    put("hardware.mesh.advances", hooks.call_count(stats, "advance", "hardware/mesh.py"),
        "count")
    put("hardware.raid.busy_frac",
        ratio(totals.get("raid_busy", 0.0), totals.get("raid_count", 0.0)), "ratio")
    put("paragonos.bcache_hit_ratio",
        ratio(totals.get("bcache_hits", 0.0), totals.get("bcache_lookups", 0.0)), "ratio")
    put("core.prefetch_issued", prefetch.issued, "count")
    put("core.prefetch_coverage", prefetch.coverage, "ratio")
    put("core.prefetch_overlap", prefetch.mean_overlap_fraction, "ratio")
    put("core.prefetch_waste", prefetch.waste_ratio, "ratio")
    for part in ("build", "mount", "create_file"):
        put(f"machine.{part}_s",
            per_cell_best(untraced, lambda r, p=part: r.setup_s[p]), "s")
    traced_run_s = sum(run.run_s for run in traced)
    put("bench.trace_overhead", ratio(traced_run_s, untraced_run_s), "ratio")
    put("bench.run_s", untraced_run_s, "s")
    return metrics, traced


# -- provenance and output ------------------------------------------------------------------


def git_state() -> Dict[str, Any]:
    """Revision and dirty flag of the checkout (None outside a git work tree)."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return {"git_rev": None, "git_dirty": None}
        rev = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return {"git_rev": None, "git_dirty": None}
    return {"git_rev": rev, "git_dirty": dirty}


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def provenance(args, bench: Bench) -> Dict[str, Any]:
    return {
        **git_state(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tie_break": "fifo",
        "tie_check": f"{bench.tie_cell.key} under lifo",
        "references": {
            "path": os.path.relpath(bench.refs.path, ROOT),
            "sha256": bench.refs.sha256,
            "bench9_sha256": sha256_of(BENCH9),
        },
        "bench.host_ref_s": bench.host_ref,
        "host_ref_probes": len(bench.speed.samples),
    }


def render(prov: Dict[str, Any], metrics: Dict[str, dict], extras: Dict[str, dict],
           runs: List[CellRun]) -> str:
    lines = [f"perfbench {prov['workload']} seed={prov['seed']} trace={prov['trace']}"]
    lines += [f"  {key}: {json.dumps(value)}" for key, value in prov.items()]
    for name, entry in {**metrics, **extras}.items():
        detail = ", ".join(f"{k}={v}" for k, v in entry.items() if k not in ("value", "unit"))
        lines.append(f"  {name:<32} {entry['value']!r:>24} {entry['unit']:<8} {detail}")
    failed = [run for run in runs if run.problems]
    lines.append(f"  {'failed_frac':<32} {len(failed) / len(runs)!r:>24} ratio    "
                 f"failed={len(failed)}, attempted={len(runs)}")
    for run in failed:
        lines.append(f"  FAILED {run.key} ({run.tie_break}): {'; '.join(run.problems)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cells", nargs="+", default=None, metavar="KEY",
                        help="run only these cells of the workload")
    parser.add_argument("--out", default=None, help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import hooks

    bench = Bench(args.workload, args.seed, args.cells)
    with hooks.Ledger() as ledger:
        # The first pass of a process pays one-time costs (lazy imports,
        # heap growth): up to twice a later pass's time for some cells.
        # It is checked like every pass and its times are not used.
        warmup = bench.run_pass(ledger)
        if args.trace:
            passes = bench.measure(ledger, args.seconds / 2, min_passes=1)
            metrics, extra_runs = per_layer(bench, ledger, passes)
            flag_differences(warmup, extra_runs, "tracing changed events or fingerprint")
        else:
            passes = bench.measure(ledger, args.seconds, MIN_PASSES)
            extra_runs = [bench.tie_check(ledger, warmup[bench.cells.index(bench.tie_cell)])]
    for later in passes:
        flag_differences(warmup, later, "events or fingerprint differ between passes")
    runs = warmup + [run for runs in passes for run in runs] + extra_runs
    if args.trace:
        extras: Dict[str, dict] = {}
        metrics["bench.host_ref_s"] = {"value": bench.host_ref, "unit": "s"}
    else:
        metrics, extras = end_to_end(passes)
    prov = provenance(args, bench)
    failed = sum(1 for run in runs if run.problems)
    print(render(prov, metrics, extras, runs))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "provenance": prov,
                "metrics": metrics,
                "extras": extras,
                "failed_frac": failed / len(runs),
                "cells": [
                    {"key": run.key, "tie_break": run.tie_break, "run_s": run.run_s,
                     "speed": run.speed,
                     "setup_s": run.setup_s, "events": run.events,
                     "fingerprint": run.fingerprint, "problems": run.problems}
                    for run in runs
                ],
            }, fh, indent=2)
            fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
