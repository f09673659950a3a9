"""Smoke test of the benchmark itself: every workload, tiny, both modes.

Run from the root of the checkout::

    python3 -m pytest perfbench -q

It checks the output contract, not timings: each workload's untraced
run emits every end-to-end metric of ``BENCHMARK.json`` with its unit,
the traced run emits every per-layer metric, the layer split each
workload was chosen for shows up, and no run leaves a process behind.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def session_processes(sid: int) -> list[str]:
    """Processes (zombies included) whose session id is ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # session is field 6 of stat(5); the first field after ")" is field 3
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            found.append(stat)
    return found


def run(workload: str, trace: int) -> dict:
    proc = subprocess.Popen(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stderr[-3000:]
    # every process the run started has ended and been waited for
    assert session_processes(proc.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, 0)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in metrics.items()} == declared
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = run(workload, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in metrics.items()} == declared
    value = {n: m["value"] for n, m in metrics.items()}
    fleet_only = [
        n for n in value if n.startswith(("query.", "fleet.", "olap.rollup_"))
    ]
    if workload == "fleet-dashboard":
        # a one-second window ends before the first in-window maintenance
        crossed = [n for n in fleet_only if n != "olap.rollup_cuboids_built"]
        assert all(value[n] > 0 for n in crossed)
    else:
        assert not any(value[n] for n in fleet_only)
        assert value["olap.aggregate_us"] > 0
        assert (value["obs.hook_us_per_query"] > 0) == (workload == "observed-batched")


def test_no_program_no_result(tmp_path):
    """Without ``src/`` the benchmark fails and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
