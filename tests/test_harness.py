import csv
import json

import pytest

from infranet.cascade import RewardWeights, replay_attack
from infranet.harness import (
    ExperimentPlan,
    PlanError,
    emit_curves,
    run_plan,
)
from infranet.netgen import GenConfig, generate


@pytest.fixture(scope="module")
def small_graph_file(tmp_path_factory):
    g = generate(GenConfig(seed=11, road_nodes=30, coupling_fraction=0.6))
    path = tmp_path_factory.mktemp("graphs") / "g.json"
    g.save(path)
    return str(path)


def small_plan(graph_file, **kw):
    doc = {
        "graph": {"file": graph_file},
        "methods": ["de", "ci", "random"],
        "budget": 4,
        "seeds": [0, 1],
    }
    doc.update(kw)
    return ExperimentPlan.from_json(json.dumps(doc))


def test_plan_from_json_fields(small_graph_file):
    plan = small_plan(small_graph_file,
                      weights={"a_e": 1.0, "a_r": 2.0},
                      embed={"d": 8, "epochs": 5},
                      agent={"episodes": 3},
                      gdm={"sample_count": 10},
                      ci_radius=2)
    assert plan.budget == 4
    assert plan.seeds == (0, 1)
    assert plan.weights == RewardWeights(a_e=1.0, a_r=2.0)
    assert plan.embed_config.d == 8 and plan.embed_config.epochs == 5
    assert plan.agent_config.episodes == 3
    assert plan.agent_config.budget == 4  # inherited from plan budget
    assert plan.gdm_config.sample_count == 10
    assert plan.ci_radius == 2


def test_plan_validation_errors(small_graph_file):
    with pytest.raises(PlanError, match="unknown method"):
        small_plan(small_graph_file, methods=["teleport"])
    with pytest.raises(PlanError, match="preset or file"):
        ExperimentPlan.from_json(json.dumps({"methods": ["de"]}))
    with pytest.raises(PlanError, match="at least one"):
        small_plan(small_graph_file, seeds=[])


def test_run_plan_outputs(tmp_path, small_graph_file):
    plan = small_plan(small_graph_file)
    reports = run_plan(plan, tmp_path)
    assert set(reports) == {(m, s) for m in ("de", "ci", "random")
                            for s in (0, 1)}
    for (m, s) in reports:
        cell = tmp_path / f"{m}_seed{s}.csv"
        assert cell.exists()
        rows = list(csv.reader(cell.open()))
        assert rows[0][0] == "step"
        assert len(rows) == plan.budget + 2  # header + intact row + steps
    summary = list(csv.reader((tmp_path / "summary.csv").open()))
    assert summary[0] == ["method", "cum_reward_mean", "cum_reward_std",
                          "final_power_frac_mean", "final_anc_mean"]
    assert [r[0] for r in summary[1:]] == ["ci", "de", "random"]


def test_csv_cells_are_plain_numbers(tmp_path, small_graph_file):
    plan = small_plan(small_graph_file)
    reports = run_plan(plan, tmp_path)
    emit_curves(reports.values(), tmp_path, svg=False)
    paths = sorted(tmp_path.glob("*.csv"))
    assert {p.name for p in paths} >= {"summary.csv", "curves.csv", "de_seed0.csv"}
    for path in paths:
        with open(path, newline="") as f:
            for row in csv.reader(f):
                assert not any("np." in cell for cell in row), (path.name, row)


def test_run_plan_deterministic_bytes(tmp_path, small_graph_file):
    plan = small_plan(small_graph_file)
    run_plan(plan, tmp_path / "a")
    run_plan(plan, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name


def test_run_plan_parallel_matches_serial(tmp_path, small_graph_file, monkeypatch):
    plan = small_plan(small_graph_file)
    monkeypatch.setenv("INFRA_THREADS", "1")
    run_plan(plan, tmp_path / "serial")
    monkeypatch.setenv("INFRA_THREADS", "4")
    run_plan(plan, tmp_path / "par")
    for f in sorted((tmp_path / "serial").iterdir()):
        assert f.read_bytes() == (tmp_path / "par" / f.name).read_bytes(), f.name


def test_run_plan_agent_and_gdm_cells(tmp_path, small_graph_file):
    plan = small_plan(
        small_graph_file,
        methods=["agent", "agent-random-embedding", "gdm"],
        seeds=[0],
        embed={"d": 6, "epochs": 3},
        agent={"episodes": 2, "batch_size": 4, "buffer_size": 16},
        gdm={"sample_count": 20, "epochs": 20},
    )
    reports = run_plan(plan, tmp_path)
    for key, rep in reports.items():
        assert rep.budget == 4
        assert rep.method == key[0]


def test_emit_curves_layout(tmp_path, small_graph_file):
    plan = small_plan(small_graph_file, seeds=[0])
    reports = run_plan(plan, tmp_path / "run")
    path = emit_curves(reports.values(), tmp_path / "plots")
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["method", "step", "metric", "value"]
    # 3 methods x 6 metrics x (budget+1) steps
    assert len(rows) - 1 == 3 * 6 * 5
    for metric in ("power", "sigma", "gcc", "anc", "reward", "cum_reward"):
        svg = tmp_path / "plots" / f"{metric}.svg"
        text = svg.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == 3


def test_emit_curves_no_svg(tmp_path, small_graph_file):
    plan = small_plan(small_graph_file, seeds=[0], methods=["de"])
    reports = run_plan(plan, tmp_path / "run")
    emit_curves(reports.values(), tmp_path / "plots", svg=False)
    assert not list((tmp_path / "plots").glob("*.svg"))


def test_emit_curves_guards(tmp_path, small_graph_file):
    with pytest.raises(PlanError, match="no reports"):
        emit_curves([], tmp_path)
    from infranet.graph import CoupledGraph

    g = CoupledGraph.from_file(small_graph_file)
    w = RewardWeights.normalized(g)
    a = replay_attack(g, [0], w)
    b = replay_attack(g, [0, 1], w)
    with pytest.raises(PlanError, match="disagree on budget"):
        emit_curves([a, b], tmp_path)
