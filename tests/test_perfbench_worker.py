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


# The from-scratch references that the acceptance gate imports; the pipeline
# itself steps an AttackEnv and calls none of them.
REFERENCE_ONLY = {"cascade.damage", "cascade.power", "cascade.sigma", "cascade.gcc"}


def test_every_traced_name_but_the_references_is_called(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    called = set()
    for workload in ("desk-train", "paper-attack", "paper-transfer"):
        out = tmp_path / workload
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
             "--seed", "0", "--scale", "tiny", "--trace", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        calls = {name: st["calls"]
                 for name, st in tracer.span_stats(tracer.read_spans(out / "spans.csv")).items()}
        called |= {name for name, n in calls.items() if n > 0}
        assert calls["cascade.RewardWeights.normalized"] > 0, workload
        if workload != "paper-attack":
            assert calls["agent.q_values"] > 0, workload
    assert set(tracer.TRACED_NAMES) - called == REFERENCE_ONLY
