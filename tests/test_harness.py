import csv
import json
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from infranet import agent, baselines, embed
from infranet.cascade import RewardWeights, replay_attack
from infranet.harness import (
    METHODS,
    ExperimentPlan,
    PlanError,
    _render_svg,
    emit_curves,
    run_plan,
    write_summary,
)
from infranet.netgen import PRESETS, GenConfig, generate, preset_config

from conftest import JSON_VALUES


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


@pytest.mark.parametrize("methods, seeds, message", [
    (["de", "de"], [0, 0], "plan key 'methods' repeats 'de'; list each once"),
    (["de", "ci", "random"], [3, 1, 3], "plan key 'seeds' repeats 3; list each once"),
    (["random", "ci", "random"], [0], "plan key 'methods' repeats 'random'; list each once"),
])
def test_plan_refuses_a_repeated_method_or_seed(tmp_path, methods, seeds, message):
    # run_plan keys its cells by (method, seed), so a repeat would run fewer cells
    doc = {"graph": {"preset": "desk"}, "methods": methods, "seeds": seeds, "budget": 3}
    with pytest.raises(PlanError, match=f"^{message}$"):
        ExperimentPlan.from_json(json.dumps(doc))
    plan = ExperimentPlan(graph_preset="desk", methods=tuple(methods), seeds=tuple(seeds),
                          budget=3)
    with pytest.raises(PlanError, match=f"^{message}$"):
        run_plan(plan, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, key", [
    ("embed", "dim"),
    ("agent", "episdoes"),
    ("gdm", "samples"),
    ("weights", "ae"),
])
def test_plan_unknown_block_key(small_graph_file, block, key):
    with pytest.raises(PlanError, match=f"unknown key '{key}' in plan block '{block}'"):
        small_plan(small_graph_file, **{block: {key: 1}})


# Infinity in every numeric field of the config blocks
INFINITY_CASES = [
    ({block: {f.name: float("inf")}},
     "plan block 'weights': weights must be nonnegative and finite" if block == "weights"
     else f"plan block '{block}': {f.name} must be ")
    for block, cls in (("embed", embed.EmbedConfig), ("agent", agent.AgentConfig),
                       ("gdm", baselines.GdmConfig), ("weights", RewardWeights))
    for f in fields(cls) if type(f.default) in (int, float)
]


@pytest.mark.parametrize("change, message", [
    ({"budget": "ten"}, r"plan key 'budget' must be an integer >= 1, got 'ten'"),
    ({"budget": 0}, r"plan key 'budget' must be an integer >= 1, got 0"),
    ({"budget": 2.5}, r"plan key 'budget' must be an integer >= 1"),
    ({"budget": True}, r"plan key 'budget' must be an integer >= 1, got True"),
    ({"ci_radius": 0}, r"plan key 'ci_radius' must be an integer >= 1, got 0"),
    ({"ci_radius": "2"}, r"plan key 'ci_radius' must be an integer >= 1"),
    ({"seeds": 3}, r"plan key 'seeds' must be a list of integers, got 3"),
    ({"seeds": [0, "1"]}, r"plan key 'seeds' must be a list of integers"),
    ({"agent": 3}, r"plan block 'agent' must be a JSON object, got 3"),
    ({"embed": [1]}, r"plan block 'embed' must be a JSON object"),
    ({"gdm": "x"}, r"plan block 'gdm' must be a JSON object"),
    ({"weights": 1.0}, r"plan block 'weights' must be a JSON object"),
    ({"graph": "desk"}, r"plan block 'graph' must be a JSON object"),
    ({"agent": {"episodes": -5, "lr": -1.0}},
     r"plan block 'agent': episodes must be >= 0, got -5"),
    ({"agent": {"lr": -1.0}}, r"plan block 'agent': lr must be > 0, got -1.0"),
    ({"agent": {"lr": 0}}, r"plan block 'agent': lr must be > 0, got 0"),
    ({"agent": {"batch_size": 0}}, r"plan block 'agent': batch_size must be >= 1"),
    ({"agent": {"target_sync": 0}}, r"plan block 'agent': target_sync must be >= 1"),
    ({"agent": {"eps_decay_steps": -1}}, r"plan block 'agent': eps_decay_steps must be >= 0"),
    ({"agent": {"eps_start": 1.5}}, r"plan block 'agent': eps_start must be in \[0,1\], got 1.5"),
    ({"agent": {"eps_end": -0.1}}, r"plan block 'agent': eps_end must be in \[0,1\]"),
    ({"agent": {"episodes": "five"}},
     r"plan block 'agent': episodes must be an integer, got 'five'"),
    ({"agent": {"episodes": 2.5}}, r"plan block 'agent': episodes must be an integer"),
    ({"agent": {"lr": "fast"}}, r"plan block 'agent': lr must be a number, got 'fast'"),
    ({"embed": {"lr": -1}}, r"plan block 'embed': lr must be > 0, got -1"),
    ({"embed": {"d": None}}, r"plan block 'embed': d must be an integer, got None"),
    ({"gdm": {"positive_quantile": 2}},
     r"plan block 'gdm': positive_quantile must be in \(0,1\), got 2"),
    ({"gdm": {"lr": 0.0}}, r"plan block 'gdm': lr must be > 0"),
    ({"gdm": {"epochs": -1}}, r"plan block 'gdm': epochs must be >= 0"),
    ({"gdm": {"hidden": -1}}, r"plan block 'gdm': hidden must be >= 0"),
    ({"gdm": {"lr": True}}, r"plan block 'gdm': lr must be a number, got True"),
    ({"weights": {"a_e": "x"}}, r"plan block 'weights': a_e must be a number, got 'x'"),
    ({"weights": {"a_e": -1.0}}, r"plan block 'weights': weights must be nonnegative"),
    ({"budget": 5, "agent": {"budget": 3}},
     r"plan block 'agent': budget 3 differs from the plan's budget 5"),
    ({"agent": {"budget": 5}}, r"plan block 'agent': budget 5 differs from the plan's budget 4"),
    ({"embed": {"edge_type_weights": {"elec": 2.0}}},
     r"plan block 'embed': edge_type_weights must be a dict with exactly the keys "
     r"\['elec', 'road', 'dep'\], got \{'elec': 2.0\}"),
    ({"embed": {"edge_type_weights": {"elec": 1, "road": 1, "dep": 1, "rail": 1}}},
     r"plan block 'embed': edge_type_weights must be a dict with exactly the keys"),
    ({"embed": {"edge_type_weights": [1, 1, 1]}},
     r"plan block 'embed': edge_type_weights must be a dict"),
    ({"embed": {"edge_type_weights": {"elec": 1, "road": -0.5, "dep": 1}}},
     r"plan block 'embed': edge_type_weights\['road'\] must be a finite number >= 0, got -0.5"),
    ({"embed": {"edge_type_weights": {"elec": 1, "road": 1, "dep": "x"}}},
     r"plan block 'embed': edge_type_weights\['dep'\] must be a finite number >= 0, got 'x'"),
    ({"embed": {"edge_type_weights": {"elec": True, "road": 1, "dep": 1}}},
     r"plan block 'embed': edge_type_weights\['elec'\] must be a finite number >= 0"),
    ({"embed": {"edge_type_weights": {"elec": float("inf"), "road": 1, "dep": 1}}},
     r"plan block 'embed': edge_type_weights\['elec'\] must be a finite number >= 0, got inf"),
    ({"embed": {"edge_type_weights": {"elec": float("nan"), "road": 1, "dep": 1}}},
     r"plan block 'embed': edge_type_weights\['elec'\] must be a finite number >= 0, got nan"),
    ({"graph": {"preset": "city"}}, r"unknown graph preset 'city'; choose from \['desk', 'paper'\]"),
    ({"graph": {"preset": ["desk"]}}, r"unknown graph preset \['desk'\]"),
    ({"graph": {"file": 3}}, r"graph file must be a path, got 3"),
    ({"graph": {"file": "g.json", "seed": "1"}}, r"graph seed must be an integer, got '1'"),
    ({"methods": "de"}, r"plan key 'methods' must be a list of names, got 'de'"),
    ({"methods": [["de"]]}, r"unknown method \['de'\]"),
    ({"budgte": 3}, r"unknown plan key 'budgte'; choose from \['graph', 'methods'"),
    ({"graph": {"file": "g.json", "sede": 1}},
     r"unknown key 'sede' in plan block 'graph'; choose from \['preset', 'seed', 'file'\]"),
    ({"seeds": [0, -1]}, r"plan key 'seeds' must be a list of integers >= 0, got \[0, -1\]"),
    ({"graph": {"file": "g.json", "seed": -1}}, r"graph seed must be >= 0, got -1"),
    ({"embed": {"seed": -1}}, r"plan block 'embed': seed must be >= 0, got -1"),
    ({"agent": {"seed": -2}},
     r"plan block 'agent': seed must be left out; each cell takes the plan's seeds"),
    ({"gdm": {"seed": -3}},
     r"plan block 'gdm': seed must be left out; each cell takes the plan's seeds"),
    ({"graph": {"preset": "paper", "file": "desk.json", "seed": 5}},
     r"plan names both a graph preset and a graph file; give one"),
    ({"graph": {"preset": "desk", "file": "g.json"}},
     r"plan names both a graph preset and a graph file; give one"),
    ({"graph": {"file": "g.json", "seed": 5}},
     r"plan block 'graph': a seed applies to a preset, not to a file"),
    ({"graph": {"file": "g.json", "seed": 0}},
     r"plan block 'graph': a seed applies to a preset, not to a file"),
    ({"budget": 0, "agent": {}}, r"plan key 'budget' must be an integer >= 1, got 0"),
] + INFINITY_CASES)
def test_plan_bad_values_fail_at_load(small_graph_file, change, message):
    with pytest.raises(PlanError, match=message):
        small_plan(small_graph_file, **change)


@pytest.mark.parametrize("block, key, value, source", [
    ("agent", "seed", 7, "seeds"),
    ("agent", "weights", "junk", "weights"),
    ("agent", "weights", {"a_e": 1.0, "a_r": 1.0}, "weights"),
    ("gdm", "seed", 3, "seeds"),
])
def test_plan_refuses_keys_every_cell_sets(small_graph_file, block, key, value, source):
    # each cell sets these itself, so a value here would be silently ignored
    with pytest.raises(PlanError, match=f"^plan block '{block}': {key} must be left out; "
                                        f"each cell takes the plan's {source}$"):
        small_plan(small_graph_file, **{block: {key: value}})


def test_plan_accepts_matching_agent_budget_and_layer_weights(small_graph_file):
    weights = {"elec": 2, "road": 0.0, "dep": 0.5}
    plan = small_plan(small_graph_file, agent={"budget": 4},
                      embed={"edge_type_weights": weights})
    assert plan.agent_config.budget == plan.budget == 4
    assert plan.embed_config.edge_type_weights == weights


def test_plan_accepts_zero_episodes_and_integer_floats(small_graph_file):
    plan = small_plan(small_graph_file, agent={"episodes": 0, "lr": 1},
                      embed={"lr": 1}, gdm={"epochs": 0, "hidden": 0})
    assert plan.agent_config.episodes == 0 and plan.agent_config.lr == 1
    assert plan.gdm_config.epochs == 0


@pytest.mark.parametrize("text, message", [
    ("[]", "must be a JSON object"),
    ('{"budget": 3', "not valid JSON"),
    (b'{"budget": "\xff"}', "not valid JSON"),
    ("[" * 100_000, "not valid JSON"),
])
def test_plan_document_must_be_json_object(text, message):
    with pytest.raises(PlanError, match=message):
        ExperimentPlan.from_json(text)


def test_run_plan_outputs(tmp_path, small_graph_file):
    plan = small_plan(small_graph_file)
    reports = run_plan(plan, tmp_path)
    assert set(reports) == {(m, s) for m in ("de", "ci", "random")
                            for s in (0, 1)}
    for (m, s) in reports:
        cell = tmp_path / f"{m}_seed{s}.csv"
        assert cell.exists()
        with cell.open() as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "step"
        assert len(rows) == plan.budget + 2  # header + intact row + steps
    with (tmp_path / "summary.csv").open() as f:
        summary = list(csv.reader(f))
    assert summary[0] == ["method", "cum_reward_mean", "cum_reward_std",
                          "final_power_frac_mean", "final_anc_mean"]
    assert [r[0] for r in summary[1:]] == ["ci", "de", "random"]


def test_preset_plan_matches_the_same_graph_read_from_a_file(tmp_path):
    # a preset plan generates its graph; the default graph seed is 0
    path = tmp_path / "desk.json"
    generate(preset_config("desk", seed=0)).save(path)
    doc = {"methods": ["de", "random"], "budget": 3, "seeds": [0, 1]}
    for name, graph in (("preset", {"preset": "desk"}), ("file", {"file": str(path)})):
        run_plan(ExperimentPlan.from_json(json.dumps({**doc, "graph": graph})), tmp_path / name)
    names = sorted(p.name for p in (tmp_path / "preset").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
    assert "random_seed1.csv" in names
    for name in names:
        assert (tmp_path / "preset" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


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


# embedding, agent and GDM configs small enough for a unit test
TINY_LEARNING = dict(
    embed={"d": 6, "epochs": 3},
    agent={"episodes": 2, "batch_size": 4, "buffer_size": 16},
    gdm={"sample_count": 20, "epochs": 20},
)


def test_run_plan_parallel_matches_serial(tmp_path, small_graph_file, monkeypatch):
    # every thread count writes the same files, and each seed-free method
    # (DE, CI) is simulated once however many seeds the plan has
    calls = []
    for name in ("de_attack", "ci_attack"):
        def spy(*args, real=getattr(baselines, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(baselines, name, spy)
    plans = {
        "baselines": small_plan(small_graph_file, seeds=[0, 1, 2]),
        "learned": small_plan(small_graph_file,
                              methods=["agent", "agent-random-embedding", "gdm"],
                              **TINY_LEARNING),
    }
    for name, plan in plans.items():
        for threads in ("1", "", "4"):      # empty is one thread
            calls.clear()
            monkeypatch.setenv("INFRA_THREADS", threads)
            run_plan(plan, tmp_path / name / f"t{threads}")
            assert sorted(calls) == sorted(f"{m}_attack" for m in plan.methods
                                           if m in ("de", "ci")), (name, threads)
        serial = tmp_path / name / "t1"
        for threads in ("", "4"):
            for f in sorted(serial.iterdir()):
                assert f.read_bytes() == (tmp_path / name / f"t{threads}" / f.name).read_bytes(), \
                    (name, threads, f.name)


def test_run_plan_matches_seeds_run_one_at_a_time(tmp_path, small_graph_file):
    # a seed-free method's report is copied to every seed: the files equal
    # those of one plan per seed, and each seed's report is its own object
    seeds = [2, 0, 1]
    plan = small_plan(small_graph_file, seeds=seeds)
    reports = run_plan(plan, tmp_path / "all")
    assert list(reports) == [(m, s) for m in plan.methods for s in seeds]
    alone = {}
    for s in seeds:
        alone.update(run_plan(small_plan(small_graph_file, seeds=[s]), tmp_path / f"seed{s}"))
        for m in plan.methods:
            name = f"{m}_seed{s}.csv"
            assert (tmp_path / "all" / name).read_bytes() == \
                (tmp_path / f"seed{s}" / name).read_bytes(), name
    write_summary(alone, tmp_path / "summary.csv")
    assert (tmp_path / "all" / "summary.csv").read_bytes() == \
        (tmp_path / "summary.csv").read_bytes()
    for m in ("de", "ci"):
        assert reports[(m, 0)].wall_seconds == reports[(m, 2)].wall_seconds
        rep = reports[(m, 0)]
        rep.nodes.append(-1)
        rep.power[0] = rep.cum_reward[-1] = -1.0
        for s in (1, 2):
            kept = reports[(m, s)]
            assert kept.nodes == alone[(m, s)].nodes
            assert kept.power == alone[(m, s)].power
            assert kept.cum_reward == alone[(m, s)].cum_reward


def test_run_plan_agent_and_gdm_cells(tmp_path, small_graph_file):
    plan = small_plan(
        small_graph_file,
        methods=["agent", "agent-random-embedding", "gdm"],
        seeds=[0],
        **TINY_LEARNING,
    )
    reports = run_plan(plan, tmp_path)
    for key, rep in reports.items():
        assert rep.budget == 4
        assert rep.method == key[0]


def test_emit_curves_layout(tmp_path, small_graph_file):
    plan = small_plan(small_graph_file, seeds=[0])
    reports = run_plan(plan, tmp_path / "run")
    path = emit_curves(reports.values(), tmp_path / "plots")
    with path.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["method", "seed", "step", "metric", "value"]
    # 3 methods x 6 metrics x (budget+1) steps
    assert len(rows) - 1 == 3 * 6 * 5
    for metric in ("power", "sigma", "gcc", "anc", "reward", "cum_reward"):
        svg = tmp_path / "plots" / f"{metric}.svg"
        text = svg.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == 3


def test_emit_curves_tells_seeds_apart(tmp_path, small_graph_file):
    # DE ignores the seed, so its three reports hold the same series
    plan = small_plan(small_graph_file, seeds=[0, 1, 2], methods=["de", "random"])
    reports = run_plan(plan, tmp_path / "run")
    assert [(r.method, r.seed) for r in reports.values()] == list(reports)
    path = emit_curves(reports.values(), tmp_path / "plots")
    with path.open() as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == len({tuple(row[:4]) for row in rows}) == 6 * 6 * 5
    assert ["de", "2", "1", "power"] == rows[2 * 6 * 5 + 1][:4]
    text = (tmp_path / "plots" / "power.svg").read_text()
    for label in [f"{m} seed {s}" for m in ("de", "random") for s in (0, 1, 2)]:
        assert text.count(f">{label}</text>") == 1, label
    # a report from outside a plan has no seed
    one = emit_curves([replay_attack(plan.load_graph(), [0])], tmp_path / "one", svg=False)
    assert one.read_text().splitlines()[1].startswith("attack,,0,power,")


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


def test_svg_draws_a_flat_series_on_the_x_axis(tmp_path):
    # a series with one value has no y range to scale by
    _render_svg([SimpleNamespace(method="flat", seed=None, power=[2.0, 2.0, 2.0])], "power",
                tmp_path / "power.svg")
    assert ('<polyline points="40.0,280.0 240.0,280.0 440.0,280.0"'
            in (tmp_path / "power.svg").read_text())


# -- fuzzing: from_json raises nothing but PlanError ----------------------------

def _read_plan(text):
    try:
        return ExperimentPlan.from_json(text)
    except PlanError:
        return None


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200) | st.text(max_size=200)
       | JSON_VALUES.map(json.dumps))
def test_fuzz_plan_from_json_arbitrary_input(data):
    _read_plan(data)


PLAN_FIELDS = [
    ("graph",), ("graph", "preset"), ("graph", "file"), ("graph", "seed"), ("graph", "x"),
    ("methods",), ("methods", 0), ("budget",), ("seeds",), ("seeds", 0), ("ci_radius",),
    ("weights",), ("weights", "a_e"), ("embed",), ("embed", "d"), ("embed", "aggregator"),
    ("embed", "edge_type_weights"), ("embed", "lr"), ("agent",), ("agent", "episodes"),
    ("agent", "gamma"), ("gdm",), ("gdm", "positive_quantile"), ("gdm", "hidden"),
    ("x",), ("embed", "seed"),
]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PLAN_FIELDS),
       value=JSON_VALUES | st.sampled_from(["desk", "paper", "agent", 2.0, True, 2**70,
                                            ["de", "de"], float("inf")]))
def test_fuzz_plan_from_json_fields(path, value):
    # one field of a valid plan replaced: the reader rejects the plan, or every
    # field it read has the type and range the runner needs
    doc = {"graph": {"preset": "desk", "seed": 1}, "methods": ["de", "agent"],
           "budget": 3, "seeds": [0, 2], "ci_radius": 1, "weights": {"a_e": 1.0},
           "embed": {"d": 4}, "agent": {"episodes": 2}, "gdm": {"epochs": 1}}
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    parent[last] = value
    plan = _read_plan(json.dumps(doc))
    if plan is None:
        return
    assert plan.graph_preset is None or (type(plan.graph_preset) is str
                                         and plan.graph_preset in PRESETS)
    assert plan.graph_file is None or type(plan.graph_file) is str
    assert type(plan.graph_seed) is int and plan.graph_seed >= 0
    assert all(type(m) is str and m in METHODS for m in plan.methods)
    assert all(type(s) is int and s >= 0 for s in plan.seeds)
    assert type(plan.embed_config.seed) is int and plan.embed_config.seed >= 0
    assert path[0] != "x" and path[-1] != "x"
