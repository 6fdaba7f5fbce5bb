"""Merge per-PR benchmark artifacts into one performance trajectory.

Every PR commits a ``BENCH_<n>.json`` snapshot at the repo root (see
``benchmarks/run_bench.py``).  The schema has grown over time -- early
snapshots carry only Table 1 bandwidth cells, later ones add degraded /
rebuild metrics, a ``speed`` block (wall time, cells/s) and the ablation
observatory summary.  This
aggregator walks all of them and emits a single table, one row per PR,
so a regression in any headline number is visible as a kink in the
trajectory rather than buried in a diff between two JSON blobs.

Usage::

    python benchmarks/trajectory.py                  # table + BENCH_trajectory.json
    python benchmarks/trajectory.py --output out.json

The output is deliberately tolerant: missing blocks become ``None``
columns, never errors, because old snapshots are immutable history.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Any, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_trajectory.json"

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def discover_snapshots(root: pathlib.Path = REPO_ROOT) -> List[pathlib.Path]:
    """Return BENCH_<n>.json paths at *root*, sorted by PR number."""
    found = []
    for path in root.iterdir():
        m = _BENCH_RE.match(path.name)
        if m:
            found.append((int(m.group(1)), path))
    return [path for _, path in sorted(found)]


def _table1_rows(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = snapshot.get("table1")
    return rows if isinstance(rows, list) else []


def _bandwidth_summary(rows: List[Dict[str, Any]]) -> Dict[str, Optional[float]]:
    """Headline bandwidth figures from the Table 1 cells."""
    peak = None
    cell_64_on = None
    cell_64_off = None
    for row in rows:
        bw = row.get("collective_bandwidth_mbps")
        if bw is None:
            continue
        if peak is None or bw > peak:
            peak = bw
        if row.get("request_kb") == 64:
            if row.get("prefetch"):
                cell_64_on = bw
            else:
                cell_64_off = bw
    return {
        "peak_bandwidth_mbps": peak,
        "bandwidth_64kb_prefetch_mbps": cell_64_on,
        "bandwidth_64kb_noprefetch_mbps": cell_64_off,
    }


def _speed_summary(snapshot: Dict[str, Any], rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Wall time / throughput, preferring the dedicated ``speed`` block.

    Snapshots before the fast-kernel PR have no ``speed`` block but may
    carry per-row ``wall_time_s``; sum those as a fallback so the
    trajectory is not blank for the middle of history.
    """
    speed = snapshot.get("speed")
    if isinstance(speed, dict):
        return {
            "wall_time_s": speed.get("total_wall_time_s"),
            "cells_per_s": speed.get("cells_per_s"),
            "speed_source": "speed-block",
        }
    row_times = [r["wall_time_s"] for r in rows if r.get("wall_time_s") is not None]
    if row_times:
        total = sum(row_times)
        return {
            "wall_time_s": round(total, 4),
            "cells_per_s": round(len(row_times) / total, 2) if total else None,
            "speed_source": "table1-rows",
        }
    return {"wall_time_s": None, "cells_per_s": None, "speed_source": None}


def _ablation_summary(snapshot: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    ablation = snapshot.get("ablation")
    if not isinstance(ablation, dict):
        return None
    ranking = ablation.get("ranking") or []
    if not ranking:
        return None
    top = ranking[0]
    tripwire = ablation.get("tripwire")
    return {
        "top_mechanism": top.get("mechanism"),
        "top_importance": top.get("importance"),
        "tripwire_ok": None if tripwire is None else tripwire.get("ok"),
    }


def summarize_snapshot(path: pathlib.Path) -> Dict[str, Any]:
    """One trajectory row for a single BENCH_<n>.json."""
    snapshot = json.loads(path.read_text())
    rows = _table1_rows(snapshot)
    pr = int(_BENCH_RE.match(path.name).group(1))
    row: Dict[str, Any] = {
        "pr": pr,
        "file": path.name,
        "bench": snapshot.get("bench"),
        "table1_cells": len(rows),
        "has_degraded": "degraded_metric" in snapshot,
        "has_rebuild": "rebuild_metric" in snapshot,
    }
    row.update(_bandwidth_summary(rows))
    row.update(_speed_summary(snapshot, rows))
    row["ablation"] = _ablation_summary(snapshot)
    return row


def build_trajectory(paths: Optional[List[pathlib.Path]] = None) -> Dict[str, Any]:
    if paths is None:
        paths = discover_snapshots()
    rows = [summarize_snapshot(p) for p in paths]
    return {
        "bench": "perf-trajectory",
        "schema": 1,
        "metric": (
            "per-PR headline numbers merged from committed BENCH_<n>.json "
            "snapshots; bandwidth in MB/s, wall time in seconds"
        ),
        "snapshots": len(rows),
        "rows": rows,
    }


def _fmt(value: Any, spec: str = "") -> str:
    if value is None:
        return "-"
    if spec:
        return format(value, spec)
    return str(value)


def render_ascii(trajectory: Dict[str, Any]) -> str:
    header = [
        "PR",
        "bench",
        "peak MB/s",
        "64KB+pf MB/s",
        "wall s",
        "cells/s",
        "top mechanism",
    ]
    table = [header]
    for row in trajectory["rows"]:
        ablation = row.get("ablation") or {}
        top = ablation.get("top_mechanism")
        if top is not None and ablation.get("top_importance") is not None:
            top = f"{top} ({ablation['top_importance']:+.1%})"
        table.append(
            [
                str(row["pr"]),
                _fmt(row.get("bench")),
                _fmt(row.get("peak_bandwidth_mbps"), ".2f"),
                _fmt(row.get("bandwidth_64kb_prefetch_mbps"), ".2f"),
                _fmt(row.get("wall_time_s"), ".2f"),
                _fmt(row.get("cells_per_s"), ".1f"),
                _fmt(top),
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, row_cells in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row_cells, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(DEFAULT_OUTPUT),
        help="where to write the merged trajectory JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the ASCII table on stdout"
    )
    args = parser.parse_args(argv)

    paths = discover_snapshots()
    if not paths:
        print("no BENCH_<n>.json snapshots found at repo root", file=sys.stderr)
        return 1
    trajectory = build_trajectory(paths)
    out = pathlib.Path(args.output)
    out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        print(render_ascii(trajectory))
        print(f"\nwrote {out} ({trajectory['snapshots']} snapshots)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
