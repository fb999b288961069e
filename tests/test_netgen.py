import hashlib
import re

import numpy as np
import pytest

from infranet.graph import GraphError, JUNCTION, STATION
from infranet.netgen import (
    GenConfig,
    PRESETS,
    RANDOM_ROAD_CHORD_FRACTION,
    generate,
    preset_config,
)

from conftest import assert_same_document, oracle_generate


def test_fanout_arithmetic():
    cfg = GenConfig(seed=0, n_220=1, fanout_110=(2, 2), fanout_10=(3, 3),
                    road_nodes=4, coupling_fraction=0.0)
    g = generate(cfg)
    assert len(g.station_ids()) == 1 + 2 + 6
    assert len(g.elec_edges) == 8


def test_grid_example_3x3():
    cfg = GenConfig(seed=0, road_nodes=9, road_model="grid",
                    coupling_fraction=0.0)
    g = generate(cfg)
    assert len(g.road_edges) == 12


def test_same_config_byte_identical():
    cfg = GenConfig(seed=42, road_nodes=30, coupling_fraction=0.5)
    assert_same_document(generate(cfg).to_json(), generate(cfg).to_json())


def test_different_seeds_differ():
    a = generate(GenConfig(seed=1, road_nodes=30, coupling_fraction=0.5))
    b = generate(GenConfig(seed=2, road_nodes=30, coupling_fraction=0.5))
    assert a.to_json() != b.to_json()


def test_coupling_fraction_extremes():
    cfg0 = GenConfig(seed=0, road_nodes=20, coupling_fraction=0.0)
    assert generate(cfg0).dep_edges.tolist() == []
    cfg1 = GenConfig(seed=0, road_nodes=20, coupling_fraction=1.0)
    g = generate(cfg1)
    assert set(g.dep_edges[:, 1].tolist()) == set(g.junction_ids().tolist())


def test_impossible_coupling_errors():
    cfg = GenConfig(seed=0, n_220=1, fanout_110=(0, 0), fanout_10=(0, 0),
                    road_nodes=5, coupling_fraction=1.0)
    with pytest.raises(GraphError, match="no 10kV"):
        generate(cfg)


def test_bad_config_rejected():
    with pytest.raises(GraphError):
        GenConfig(road_nodes=0)
    with pytest.raises(GraphError):
        GenConfig(fanout_110=(5, 2))
    with pytest.raises(GraphError):
        GenConfig(coupling_fraction=1.5)
    with pytest.raises(GraphError):
        GenConfig(road_model="hex")
    with pytest.raises(GraphError, match="seed must be >= 0, got -1"):
        GenConfig(seed=-1)
    for name in ("fanout_110", "fanout_10", "load_range"):
        with pytest.raises(GraphError, match=f"{name} must satisfy 0 <= low <= high"):
            GenConfig(**{name: (0, 2**63 - 1)})
        GenConfig(**{name: (0, 2**63 - 2)})


@pytest.mark.parametrize("name, value", [
    ("load_range", (1.5, 3.5)),
    ("fanout_110", (1, 2, 3)),
    ("fanout_10", ("1", "2")),
])
def test_range_field_must_be_a_pair_of_integers(name, value):
    with pytest.raises(GraphError, match=rf"^{name} must be a pair of integers, "
                                         rf"got {re.escape(repr(value))}$"):
        GenConfig(**{name: value})


def test_forest_invariant_many_seeds():
    # constructor validation covers the forest/typing invariants
    for seed in range(1000):
        g = generate(GenConfig(seed=seed, n_220=2, fanout_110=(1, 3),
                               fanout_10=(1, 4), road_nodes=12,
                               coupling_fraction=0.5))
        parents = [c for _, c in g.elec_edges]
        assert len(parents) == len(set(parents))


@pytest.mark.parametrize("model,nodes", [("grid", 400), ("random", 400)])
def test_road_edge_ratio_near_nominal(model, nodes):
    g = generate(GenConfig(seed=7, road_nodes=nodes, road_model=model,
                           coupling_fraction=0.0))
    ratio = len(g.road_edges) / nodes
    if model == "grid":
        side = int(np.sqrt(nodes))
        nominal = 2 * side * (side - 1) / nodes
    else:
        nominal = 1.0 + RANDOM_ROAD_CHORD_FRACTION
    assert abs(ratio - nominal) / nominal < 0.10


def test_presets_scale():
    g = generate(preset_config("desk", seed=0))
    assert 1200 <= g.n <= 1800
    assert set(PRESETS) == {"desk", "paper"}


def test_preset_unknown():
    with pytest.raises(GraphError, match="unknown preset"):
        preset_config("city")


def test_loads_in_range():
    g = generate(GenConfig(seed=3, road_nodes=10, coupling_fraction=0.2,
                           load_range=(50, 150)))
    leaves = g.station_ids(level=10)
    assert np.all(g.load[leaves] >= 50) and np.all(g.load[leaves] <= 150)
    others = np.setdiff1d(np.arange(g.n), leaves)
    assert np.all(g.load[others] == 0)


def _outcome(gen, cfg):
    try:
        return gen(cfg).to_json()
    except GraphError as e:
        return f"GraphError: {e}"


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", range(4))
def test_presets_match_record_loop_oracle(preset, seed):
    cfg = preset_config(preset, seed=seed)
    assert_same_document(generate(cfg).to_json(), oracle_generate(cfg).to_json())


def test_random_configs_match_record_loop_oracle():
    # both road models, fanout lows of 0, 1-3 road nodes, coupling 0 and 1;
    # configs without 10kV stations raise the same GraphError
    rng = np.random.default_rng(2024)
    errors = models = 0
    for _ in range(300):
        lo_110, lo_10, lo_load = (int(rng.integers(0, k)) for k in (3, 4, 100))
        model = ("grid", "random")[int(rng.integers(0, 2))]
        cfg = GenConfig(
            seed=int(rng.integers(0, 2**31)),
            n_220=int(rng.integers(1, 5)),
            fanout_110=(lo_110, lo_110 + int(rng.integers(0, 4))),
            fanout_10=(lo_10, lo_10 + int(rng.integers(0, 5))),
            road_nodes=int(rng.integers(1, 4) if rng.random() < 0.2 else rng.integers(4, 300)),
            road_model=model,
            coupling_fraction=float((0.0, 1.0, rng.random())[int(rng.integers(0, 3))]),
            load_range=(lo_load, lo_load + int(rng.integers(0, 200))),
        )
        got = _outcome(generate, cfg)
        assert got == _outcome(oracle_generate, cfg), cfg
        errors += got.startswith("GraphError")
        models += model == "random"
    assert errors > 0 and 0 < models < 300


@pytest.mark.parametrize("preset, digest", [
    ("desk", "06f904cbce2afb202736b7a2eeb3c02e78866b48ce621639d85d230ac243a958"),
    ("paper", "0e0b869745dec3a0ae40d813e9465d05cdc682844a2f67c566642eda51461956"),
])
def test_preset_graph_bytes_are_pinned(preset, digest):
    text = generate(preset_config(preset, seed=0)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
