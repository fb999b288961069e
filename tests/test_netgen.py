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
    assert generate(cfg).to_json() == generate(cfg).to_json()


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
        GenConfig(road_nodes=0).validate()
    with pytest.raises(GraphError):
        GenConfig(fanout_110=(5, 2)).validate()
    with pytest.raises(GraphError):
        GenConfig(coupling_fraction=1.5).validate()
    with pytest.raises(GraphError):
        GenConfig(road_model="hex").validate()
    with pytest.raises(GraphError, match="seed must be >= 0, got -1"):
        GenConfig(seed=-1).validate()


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
