import pytest

from infranet.graph import (
    DAMAGED,
    INVALID,
    JUNCTION,
    NORMAL,
    STATION,
    CoupledGraph,
    GraphError,
)


def test_degree_path():
    g = CoupledGraph(kind=[JUNCTION] * 3, level=[0] * 3, load=[0.0] * 3,
                     elec_edges=[], road_edges=[(0, 1), (1, 2)], dep_edges=[])
    assert g.degrees()[1] == 2
    assert g.degrees()[0] == 1


def test_degree_station_with_lights():
    # 10kV station with one parent and four dependent lights -> degree 5
    kind = [STATION, STATION] + [JUNCTION] * 4
    g = CoupledGraph(
        kind=kind, level=[110, 10, 0, 0, 0, 0], load=[0, 50.0, 0, 0, 0, 0],
        elec_edges=[(0, 1)], road_edges=[],
        dep_edges=[(1, 2), (1, 3), (1, 4), (1, 5)],
    )
    assert g.degrees()[1] == 5


def test_degree_isolated():
    g = CoupledGraph(kind=[JUNCTION], level=[0], load=[0.0],
                     elec_edges=[], road_edges=[], dep_edges=[])
    assert g.degrees()[0] == 0


def test_forest_invariant_rejected():
    with pytest.raises(GraphError, match="two electricity parents"):
        CoupledGraph(kind=[STATION] * 3, level=[220, 220, 110],
                     load=[0.0] * 3, elec_edges=[(0, 2), (1, 2)],
                     road_edges=[], dep_edges=[])


def test_level_descent_rejected():
    with pytest.raises(GraphError, match="descend"):
        CoupledGraph(kind=[STATION] * 2, level=[220, 10], load=[0.0] * 2,
                     elec_edges=[(0, 1)], road_edges=[], dep_edges=[])


def test_dep_typing_rejected():
    with pytest.raises(GraphError, match="not a 10kV station"):
        CoupledGraph(kind=[STATION, JUNCTION], level=[110, 0], load=[0.0] * 2,
                     elec_edges=[], road_edges=[], dep_edges=[(0, 1)])
    with pytest.raises(GraphError, match="two suppliers"):
        CoupledGraph(kind=[STATION, STATION, JUNCTION], level=[10, 10, 0],
                     load=[5.0, 5.0, 0.0], elec_edges=[], road_edges=[],
                     dep_edges=[(0, 2), (1, 2)])


def test_load_only_on_10kv():
    with pytest.raises(GraphError, match="load"):
        CoupledGraph(kind=[STATION], level=[220], load=[5.0],
                     elec_edges=[], road_edges=[], dep_edges=[])


def test_load_conserved_under_state_changes(toy_chain):
    total = toy_chain.load.sum()
    toy_chain.state[0] = DAMAGED
    toy_chain.state[2] = INVALID
    assert toy_chain.load.sum() == total


def test_json_roundtrip_byte_stable(toy_chain):
    text = toy_chain.to_json()
    g2 = CoupledGraph.from_json(text)
    assert g2.to_json() == text
    assert g2.n == toy_chain.n
    assert g2.elec_edges == toy_chain.elec_edges
    assert g2.dep_edges == toy_chain.dep_edges


def test_json_version_check(toy_chain):
    import json

    doc = json.loads(toy_chain.to_json())
    doc["version"] = 99
    with pytest.raises(GraphError, match="version"):
        CoupledGraph.from_json(json.dumps(doc))


def test_fork_isolates_state(toy_chain):
    f = toy_chain.fork()
    f.state[0] = DAMAGED
    assert toy_chain.state[0] == NORMAL
    assert f.elec_edges is toy_chain.elec_edges
