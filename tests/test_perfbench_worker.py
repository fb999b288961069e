"""Every benchmark workload runs end to end at the tiny scale, so a change to
the API the benchmark calls fails here and not first in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["desk-train", "paper-attack", "paper-transfer"])
def test_worker_tiny_scale_stages_and_checks_pass(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--scale", "tiny", "--check", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    failed = [s["name"] + "\n" + s["error"] for s in result["stages"] if not s["ok"]]
    assert not failed, failed
    assert result["checks"], "no output checks ran"
    bad = [c for c in result["checks"] if not c["ok"]]
    assert not bad, bad
