"""The committed benchmark still runs against the package: each short run
must check out correct with no failed operation. replay-month takes about
16 s even at --seconds 1, so it runs one round of one simulated day in
process instead; that round still reads the simulator's fleet report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spans import TARGETS
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["http-demo", "ingest-dense"])
def test_short_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_one_day_replay_round_is_correct(tmp_path):
    cfg = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    workload = WORKLOADS["replay-month"](
        "replay-month", {**cfg["workloads"]["replay-month"], "days": 1, "reads_per_round": 20},
        ROOT / cfg["rules"], ROOT, 7)
    workload.prepare(tmp_path)
    result = workload.run_round(tmp_path / "data")
    assert result.problems == []
    assert result.accepted == 360  # 5 stations, one frame each 20 minutes


def test_every_traced_target_is_in_the_package():
    # a traced run patches each of these by name; one renamed away in the
    # package would leave its span, and its per-layer metric, empty
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
