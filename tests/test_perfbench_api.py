"""The benchmark wraps infranet functions by name (perfbench/tracer.py);
a rename must fail here, not in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    return importlib.import_module("tracer")


def test_every_traced_name_resolves(tracer):
    missing = []
    for mod_name, attr in tracer.TRACED:
        owner = importlib.import_module(f"infranet.{mod_name}")
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{mod_name}.{attr}")
            continue
        assert callable(owner), f"{mod_name}.{attr}"
    assert not missing, f"traced names missing from infranet: {missing}"


def test_tracer_installs_and_restores(tracer):
    from infranet import cascade

    original = cascade.power
    t = tracer.Tracer()
    t.install()
    try:
        assert cascade.power is not original
    finally:
        t.uninstall()
    assert cascade.power is original
