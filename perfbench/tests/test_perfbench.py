"""Self-tests of the benchmark.  Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` in a fresh process on a few small
cells per workload, so the class-level wrappers never leak between tests.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

#: Small cells per workload; the first of each is also the lifo-checked cell
#: when the workload's designated cell is not among them.
SMALL_CELLS = {
    "paper-read": ["table1:64kb:prefetch=True", "figure2:64kb:M_SYNC"],
    "checkpoint-restart": ["ckpt:64kb:degraded"],
    "scale-mixed": ["scaleout:2048n-128t"],
}

DETERMINISTIC = ("events", "sim_read_mbps", "sim_read_p50_ms", "sim_read_tail_ms")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload, *extra, trace=0, seed=1, cwd=ROOT, script=RUN, tmp_path=None):
    """Run the benchmark; returns (exit code, last-line JSON or None, full result)."""
    out = None
    args = [sys.executable, script, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--cells", *SMALL_CELLS[workload], *extra]
    if tmp_path is not None:
        out = str(tmp_path / f"{workload}-{trace}-{seed}.json")
        args += ["--out", out]
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = None
    if lines:
        try:
            last = json.loads(lines[-1])
        except json.JSONDecodeError:
            last = None
    full = None
    if out is not None and os.path.exists(out):
        with open(out) as fh:
            full = json.load(fh)
    return proc.returncode, last, full


def test_metric_names_are_well_formed():
    data = spec()
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    names += [w["name"] for w in data["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("workload", sorted(SMALL_CELLS))
def test_runs_report_exactly_the_declared_metrics(workload, tmp_path):
    data = spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, last, _full = bench(workload, trace=trace)
        assert code == 0 and last is not None
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in data[section]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


@pytest.mark.parametrize("workload", sorted(SMALL_CELLS))
def test_deterministic_metrics_repeat_and_survive_tracing(workload, tmp_path):
    _code, first, full_first = bench(workload, seed=1, tmp_path=tmp_path)
    _code, second, _full = bench(workload, seed=2, tmp_path=tmp_path)
    _code, traced, full_traced = bench(workload, trace=1, seed=1, tmp_path=tmp_path)
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    # The traced run compares its traced pass with its own untraced pass;
    # check it also agrees with a separate untraced process, cell by cell.
    assert traced["correct"]

    def ledger(full):
        return {(c["key"], c["tie_break"]): (c["events"], c["fingerprint"])
                for c in full["cells"]}

    plain, with_trace = ledger(full_first), ledger(full_traced)
    for key in with_trace:
        if key in plain:
            assert with_trace[key] == plain[key], key


def test_host_speed_is_probed_around_every_cell(tmp_path):
    _code, last, full = bench("checkpoint-restart", tmp_path=tmp_path)
    for cell in full["cells"]:
        assert len(cell["speed"]) >= 2 and min(cell["speed"]) > 0, cell["key"]
    assert last["metrics"]["run_per_probe"]["value"] > 0


def copy_bench(root):
    """A copy of perfbench/ under *root*, beside BENCHMARK.json."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return str(root / "perfbench" / "run.py")


def test_corrupted_reference_shows_up_as_failures(tmp_path):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    script = copy_bench(checkout)
    for name in ("src", "BENCH_9.json"):
        os.symlink(os.path.join(ROOT, name), checkout / name)
    references = checkout / "perfbench" / "references.json"
    refs = json.loads(references.read_text())
    key = "paper-read/" + SMALL_CELLS["paper-read"][1]
    refs["fingerprints"][key] = "0" * 64
    references.write_text(json.dumps(refs))
    code, last, full = bench("paper-read", cwd=str(checkout), script=script, tmp_path=tmp_path)
    assert code == 0
    assert not last["correct"]
    failed_runs = [c for c in full["cells"] if c["problems"]]
    assert failed_runs and all(c["key"] == SMALL_CELLS["paper-read"][1] for c in failed_runs)
    assert last["failed"] == len(failed_runs) > 0
    assert full["failed_frac"] == last["failed"] / last["attempted"]


def test_fails_without_the_sources(tmp_path):
    script = copy_bench(tmp_path)
    code, last, _full = bench("paper-read", cwd=str(tmp_path), script=script)
    assert code != 0
    assert last is None
