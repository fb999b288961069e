import functools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infranet
from infranet.graph import (
    DAMAGED,
    INVALID,
    JUNCTION,
    NORMAL,
    STATION,
    CoupledGraph,
    GraphError,
    adjacency,
    member,
    neighbors,
    unique_keys,
)
from infranet.netgen import generate, preset_config

from conftest import (
    JSON_VALUES,
    assert_same_document,
    make_toy_chain,
    oracle_degree,
    random_coupled,
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


@pytest.mark.parametrize("kind, level, load, message", [
    ([STATION, JUNCTION], [10], [5.0, 0.0], "node attribute arrays disagree on length"),
    ([STATION, JUNCTION], [10, 0], [5.0], "node attribute arrays disagree on length"),
    ([STATION, 7], [10, 0], [5.0, 0.0], "unknown node kind"),
])
def test_node_attributes_rejected(kind, level, load, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        CoupledGraph(kind=kind, level=level, load=load, elec_edges=[], road_edges=[],
                     dep_edges=[])


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
    assert_same_document(g2.to_json(), text)
    assert g2.n == toy_chain.n
    assert np.array_equal(g2.elec_edges, toy_chain.elec_edges)
    assert np.array_equal(g2.dep_edges, toy_chain.dep_edges)


def dict_writer_to_json(g):
    """The per-node dict writer of graph format version 1, kept as its oracle."""
    nodes = []
    for v in range(g.n):
        rec = {"id": v, "kind": "station" if g.kind[v] == STATION else "junction"}
        if g.kind[v] == STATION:
            rec["level"] = int(g.level[v])
            if g.level[v] == 10:
                rec["load"] = float(g.load[v])
        nodes.append(rec)
    doc = {
        "version": 1,
        "nodes": nodes,
        "elec_edges": g.elec_edges.tolist(),
        "road_edges": g.road_edges.tolist(),
        "dep_edges": g.dep_edges.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def dict_writer_v2_to_json(g):
    """A per-node dict writer of graph format version 2, the oracle of `to_json`."""
    doc = {
        "version": 2,
        "kind": ["station" if g.kind[v] == STATION else "junction" for v in range(g.n)],
        "level": [int(x) for x in g.level],
        "load": [float(x) for x in g.load],
    }
    for key in ("elec_edges", "road_edges", "dep_edges"):
        doc[key] = [int(x) for pair in getattr(g, key) for x in pair]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def assert_same_graph(a, b):
    for key in ("kind", "level", "load", "elec_edges", "road_edges", "dep_edges"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.dtype == y.dtype and np.array_equal(x, y), key


def odd_loads_graph():
    loads = [0.1, 2.5, 0.0, 1e300, 5e-324, 1234567.0]
    k = len(loads)
    return CoupledGraph(
        kind=[STATION, STATION] + [STATION] * k + [JUNCTION] * 2,
        level=[220, 110] + [10] * k + [0, 0],
        load=[0.0, 0.0] + loads + [0.0, 0.0],
        elec_edges=[(0, 1)] + [(1, 2 + i) for i in range(k)],
        road_edges=[],
        dep_edges=[(2, k + 2), (3, k + 3)],
    )


WRITER_GRAPHS = [
    lambda: generate(preset_config("desk", seed=0)),
    lambda: generate(preset_config("paper", seed=0)),
    odd_loads_graph,
    make_toy_chain,
    lambda: CoupledGraph(kind=[JUNCTION], level=[0], load=[0.0],
                         elec_edges=[], road_edges=[], dep_edges=[]),
] + [lambda seed=seed: random_coupled(seed) for seed in range(12)]


@pytest.mark.parametrize("make", WRITER_GRAPHS)
def test_to_json_matches_dict_writer(make):
    g = make()
    assert_same_document(g.to_json(), dict_writer_v2_to_json(g))


@pytest.mark.parametrize("make", WRITER_GRAPHS)
def test_from_json_reads_version_1(make):
    # a version-1 document reads to the same graph as the version-2 one
    g = make()
    assert_same_graph(CoupledGraph.from_json(dict_writer_to_json(g)), g)
    assert_same_graph(CoupledGraph.from_json(g.to_json()), g)


# the toy chain as the version-1 writer wrote it
TOY_CHAIN_V1 = (
    '{"dep_edges":[[2,3]],"elec_edges":[[0,1],[1,2]],"nodes":[{"id":0,"kind":"station",'
    '"level":220},{"id":1,"kind":"station","level":110},{"id":2,"kind":"station",'
    '"level":10,"load":100.0},{"id":3,"kind":"junction"},{"id":4,"kind":"junction"},'
    '{"id":5,"kind":"junction"}],"road_edges":[[3,4],[4,5]],"version":1}\n')


def test_version_1_file_reads_and_rewrites_as_version_2(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(TOY_CHAIN_V1)
    g = CoupledGraph.from_file(path)
    assert_same_graph(g, make_toy_chain())
    assert dict_writer_to_json(g) == TOY_CHAIN_V1
    assert_same_document(g.to_json(),
        '{"dep_edges":[2,3],"elec_edges":[0,1,1,2],'
        '"kind":["station","station","station","junction","junction","junction"],'
        '"level":[220,110,10,0,0,0],"load":[0.0,0.0,100.0,0.0,0.0,0.0],'
        '"road_edges":[3,4,4,5],"version":2}\n')


def test_from_file_runs_no_full_collection(tmp_path):
    # a version-2 document parses into a handful of lists, so reading the
    # paper preset in a fresh interpreter triggers no gen-2 collection
    path = tmp_path / "paper.json"
    generate(preset_config("paper", seed=0)).save(path)
    code = ("import gc, sys; import infranet.cli; from infranet.graph import CoupledGraph; "
            "full = []; gc.callbacks.append(lambda phase, info: full.append(1) "
            "if phase == 'start' and info['generation'] == 2 else None); "
            "g = CoupledGraph.from_file(sys.argv[1]); print(g.n, len(full))")
    src = str(Path(infranet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["15774", "0"]


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
    assert not f.elec_edges.flags.writeable     # shared topology stays frozen


def test_degrees_match_edge_count_oracle():
    for seed in range(10):
        g = random_coupled(seed)
        assert g.degrees().tolist() == [oracle_degree(g, v) for v in range(g.n)]


def test_edge_arrays_follow_layer_order():
    g = random_coupled(4)
    pairs = g.elec_edges.tolist() + g.road_edges.tolist() + g.dep_edges.tolist()
    assert g.edge_u.dtype == g.edge_v.dtype == np.int64
    assert list(map(list, zip(g.edge_u.tolist(), g.edge_v.tolist()))) == pairs
    assert g.fork().edge_u is g.edge_u


def test_edge_lists_sorted_and_road_pairs_ordered():
    g = CoupledGraph(kind=[JUNCTION] * 4, level=[0] * 4, load=[0.0] * 4,
                     elec_edges=[], road_edges=[(3, 1), (2, 0), (0, 1)],
                     dep_edges=[])
    assert g.road_edges.tolist() == [[0, 1], [0, 2], [1, 3]]


DELETE = object()

# one valid base graph: 220 -> 110 -> 10 (load 5) -> lights 3 and 4, road 3-4
BASE = dict(kind=[STATION, STATION, STATION, JUNCTION, JUNCTION],
            level=[220, 110, 10, 0, 0], load=[0.0, 0.0, 5.0, 0.0, 0.0],
            elec_edges=[(0, 1), (1, 2)], road_edges=[(3, 4)],
            dep_edges=[(2, 3), (2, 4)])


@pytest.mark.parametrize("change, message", [
    ({"elec_edges": [(0, 1), (1, 5)]}, r"node id 5 out of range \[0,5\)"),
    ({"elec_edges": [(0, 1), (-1, 2)]}, r"node id -1 out of range"),
    ({"road_edges": [(3, 7)]}, r"node id 7 out of range \[0,5\)"),
    ({"dep_edges": [(2, 3), (9, 4)]}, r"node id 9 out of range \[0,5\)"),
    ({"elec_edges": [(0, 1), (1, 2), (2, 3)]}, r"elec edge \(2,3\) touches a junction"),
    ({"elec_edges": [(0, 2)]}, r"elec edge \(0,2\) does not descend one level"),
    ({"elec_edges": [(0, 1), (1, 2), (0, 2)]}, r"elec edge \(0,2\) does not descend"),
    ({"elec_edges": [(0, 1), (1, 2), (1, 2)]}, r"node 2 has two electricity parents"),
    ({"road_edges": [(3, 3)]}, r"road self-loop at node 3"),
    ({"road_edges": [(2, 3)]}, r"road edge \(2,3\) touches a station"),
    ({"road_edges": [(3, 4), (3, 4)]}, r"duplicate road edge \(3,4\)"),
    ({"road_edges": [(3, 4), (4, 3)]}, r"duplicate road edge \(3,4\)"),
    ({"dep_edges": [(1, 3)]}, r"dep edge source 1 is not a 10kV station"),
    ({"dep_edges": [(2, 3), (2, 1)]}, r"dep edge target 1 is not a junction"),
    ({"dep_edges": [(2, 3), (2, 3)]}, r"junction 3 has two suppliers"),
    ({"road_edges": [(3, 4, 0)]}, r"road_edges must be a list of \(u, v\) integer pairs"),
    ({"dep_edges": [(2, 3), (2,)]}, r"dep_edges must be a list of \(u, v\) integer pairs"),
    ({"elec_edges": [(0, None)]}, r"elec_edges must be a list of \(u, v\) integer pairs"),
])
def test_validation_rule_names_offender(change, message):
    CoupledGraph(**BASE)
    with pytest.raises(GraphError, match=message):
        CoupledGraph(**{**BASE, **change})


@pytest.mark.parametrize("change, column", [
    ({"level": [220, 110.7, 10, 0, 0]}, "level"),             # rounds to 110
    ({"kind": [0.6, STATION, STATION, JUNCTION, JUNCTION]}, "kind"),    # rounds to a station
    ({"elec_edges": [(0, 1.9), (1, 2)]}, "elec_edges"),       # rounds to (0, 1)
    ({"level": np.array([220, 65_646, 10, 0, 0])}, "level"),  # wraps to 110
    ({"kind": np.array([256, 0, 0, 1, 1])}, "kind"),          # wraps to a station
    ({"level": [220, 70_000, 10, 0, 0]}, "level"),
    ({"kind": [300, 0, 0, 1, 1]}, "kind"),
    ({"load": [0.0, 0.0, "x", 0.0, 0.0]}, "load"),
])
def test_constructor_refuses_values_it_would_round_or_wrap(change, column):
    CoupledGraph(**BASE)
    with pytest.raises(GraphError, match=rf"{column}'? must (hold|be a list of)"):
        CoupledGraph(**{**BASE, **change})


def graph_doc(**change):
    """The version-1 document of the base graph, with `change` applied."""
    doc = json.loads(dict_writer_to_json(CoupledGraph(**BASE)))
    doc.update(change)
    return doc


def node_without(key):
    doc = graph_doc()
    del doc["nodes"][1][key]
    return doc


def without(key):
    doc = graph_doc()
    del doc[key]
    return doc


@pytest.mark.parametrize("doc, message", [
    (graph_doc(nodes=[{"id": 0, "kind": "tower"}]), r"node 0: unknown kind 'tower'"),
    (graph_doc(nodes=[{"id": 0, "kind": ["station"]}]), r"unknown kind \['station'\]"),
    (node_without("kind"), r"has no field 'kind'"),
    (node_without("id"), r"has no field 'id'"),
    (graph_doc(nodes=[{"id": "0", "kind": "junction"}]), r"node field 'id' must be an integer"),
    (graph_doc(nodes=[7]), r"node record 7 has no field 'id'"),
    (without("nodes"), r"graph field 'nodes' is missing"),
    (without("elec_edges"), r"graph field 'elec_edges' is missing"),
    (without("road_edges"), r"graph field 'road_edges' is missing"),
    (without("dep_edges"), r"graph field 'dep_edges' is missing"),
    (graph_doc(road_edges={"3": 4}), r"graph field 'road_edges' is missing or not a list"),
    ([1, 2], r"graph document must be a JSON object"),
    (graph_doc(nodes=[{"id": 0, "kind": "station", "level": "high"}]),
     r"node field 'level' or 'load' is not a number"),
    (graph_doc(nodes=[{"id": 0, "kind": "station", "level": 10, "load": "much"}]),
     r"node field 'level' or 'load' is not a number"),
    (graph_doc(nodes=[{"id": 0, "kind": "station", "level": 10, "load": None}]),
     r"non-finite load"),
    (graph_doc(road_edges=[[3, 4], [4, 3]]), r"duplicate road edge \(3,4\)"),
    (graph_doc(nodes=[{"id": 0, "kind": "station", "level": 220.5}]),
     r"node field 'level' or 'load' is not a number: level 220.5 is not a JSON integer"),
    (graph_doc(nodes=[{"id": 0, "kind": "station", "level": 10, "load": True}]),
     r"load True is not a JSON number"),
    (graph_doc(road_edges=[[3, "4"]]), r"graph field 'road_edges' must be a list of \[u, v\] integer"),
    (graph_doc(dep_edges=[[2, 3.0]]), r"graph field 'dep_edges' must be a list of \[u, v\] integer"),
    (graph_doc(elec_edges=[[0, 1, 2]]), r"graph field 'elec_edges' must be a list of \[u, v\] integer"),
    (graph_doc(version=True), r"unsupported graph format version True"),
    (graph_doc(nodes=[{"id": 0, "kind": "junction"}, {"id": 2, "kind": "junction"}]),
     r"node ids must be dense 0..n-1"),
    (graph_doc(nodes=[{"id": 0, "kind": "junction"}, {"id": 0, "kind": "junction"}]),
     r"node ids must be dense 0..n-1"),
])
def test_from_json_rejects_malformed_document(doc, message):
    with pytest.raises(GraphError, match=message):
        CoupledGraph.from_json(json.dumps(doc))


def columns_doc(**change):
    """The version-2 document of the base graph, with `change` applied."""
    doc = json.loads(CoupledGraph(**BASE).to_json())
    for key, value in change.items():
        if value is DELETE:
            del doc[key]
        else:
            doc[key] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (columns_doc(kind=DELETE), r"graph field 'kind' is missing or not a list"),
    (columns_doc(load=DELETE), r"graph field 'load' is missing or not a list"),
    (columns_doc(dep_edges=DELETE), r"graph field 'dep_edges' is missing or not a list"),
    (columns_doc(level={"0": 220}), r"graph field 'level' is missing or not a list"),
    (columns_doc(level=[220, 110, 10, 0]),
     r"node columns disagree on length: 5 kinds, 4 levels, 5 loads"),
    (columns_doc(kind=["station"] * 3 + ["junction", "tower"]), r"node 4: unknown kind 'tower'"),
    (columns_doc(kind=["station"] * 3 + [1, "junction"]), r"node 3: unknown kind 1"),
    (columns_doc(level=[220, 110, 10.0, 0, 0]), r"level 10.0 is not a JSON integer"),
    (columns_doc(level=[220, 110, True, 0, 0]), r"level True is not a JSON integer"),
    (columns_doc(load=[0, 0, "5", 0, 0]), r"load '5' is not a JSON number"),
    (columns_doc(load=[0, 0, None, 0, 0]), r"non-finite load"),
    (columns_doc(level=[2**70, 110, 10, 0, 0]), r"graph number out of range"),
    (columns_doc(load=[0, 0, 10**400, 0, 0]), r"graph number out of range"),
    (columns_doc(road_edges=[3, 4, 4]),
     r"graph field 'road_edges' must be a flat list of integers \[u0, v0, u1, v1, ...\]"),
    (columns_doc(elec_edges=[0, 1, 1, 2.0]), r"graph field 'elec_edges' must be a flat list"),
    (columns_doc(dep_edges=[2, 3, 2, True]), r"graph field 'dep_edges' must be a flat list"),
    (columns_doc(dep_edges=[[2, 3], [2, 4]]), r"graph field 'dep_edges' must be a flat list"),
    (columns_doc(road_edges=[3, 2**70]), r"graph number out of range"),
    (columns_doc(road_edges=[3, 4, 4, 3]), r"duplicate road edge \(3,4\)"),
    (columns_doc(dep_edges=[2, 5]), r"node id 5 out of range \[0,5\)"),
    (columns_doc(version=3), r"unsupported graph format version 3"),
    (columns_doc(version=2.0), r"unsupported graph format version 2.0"),
    (columns_doc(version=DELETE), r"unsupported graph format version None"),
])
def test_from_json_rejects_malformed_columns(doc, message):
    with pytest.raises(GraphError, match=message):
        CoupledGraph.from_json(json.dumps(doc))


def test_from_json_rejects_invalid_json():
    with pytest.raises(GraphError, match="not valid JSON"):
        CoupledGraph.from_json('{"version": 1,')


# -- fuzzing: from_json raises nothing but GraphError, and never misreads ----

def _read_graph(text):
    try:
        return CoupledGraph.from_json(text)
    except GraphError:
        return None


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200) | st.text(max_size=200)
       | JSON_VALUES.map(json.dumps))
def test_fuzz_from_json_arbitrary_input(data):
    _read_graph(data)


def test_from_json_rejects_deep_nesting_and_bad_encoding():
    for text in ("[" * 100_000, b'{"version": 1, "nodes": "\xff"}'):
        with pytest.raises(GraphError, match="not valid JSON"):
            CoupledGraph.from_json(text)


GRAPH_FIELDS = [
    ("version",), ("nodes",), ("elec_edges",), ("road_edges",), ("dep_edges",),
    ("nodes", 0), ("nodes", 1, "id"), ("nodes", 2, "kind"), ("nodes", 1, "level"),
    ("nodes", 2, "level"), ("nodes", 2, "load"), ("nodes", 4, "level"), ("nodes", 4, "load"),
    ("elec_edges", 0), ("elec_edges", 1, 0), ("road_edges", 0, 1), ("road_edges", 1),
    ("dep_edges", 0), ("dep_edges", 0, 0), ("dep_edges", 0, 1),
]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(GRAPH_FIELDS),
       value=JSON_VALUES | st.sampled_from([DELETE, True, 1.0, 220.0, 2.5, "1", [1, 2],
                                            65756, 2**70, float("nan")]))
def test_fuzz_from_json_fields(path, value):
    # one field of a valid version-1 document replaced or deleted: the reader
    # rejects the document, or the graph holds exactly the document's values
    doc = json.loads(dict_writer_to_json(make_toy_chain()))
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        parent.pop(last) if isinstance(parent, list) else parent.pop(last, None)
    else:
        parent[last] = value
    g = _read_graph(json.dumps(doc))
    if g is None:
        return
    assert type(doc["version"]) is int and doc["version"] == 1
    nodes = sorted(doc["nodes"], key=lambda r: r["id"])
    assert [r["id"] for r in nodes] == list(range(g.n))
    levels = [r.get("level", 0) for r in nodes]
    loads = [r.get("load", 0.0) for r in nodes]
    assert all(type(x) is int for x in levels) and g.level.tolist() == levels
    assert all(type(x) in (int, float) for x in loads) and g.load.tolist() == loads
    for key in ("elec_edges", "road_edges", "dep_edges"):
        pairs = [tuple(e) for e in doc[key]]
        assert all(type(x) is int for e in pairs for x in e)
        if key == "road_edges":
            pairs = [(min(e), max(e)) for e in pairs]
        assert sorted(pairs) == sorted(map(tuple, getattr(g, key).tolist()))


COLUMN_FIELDS = [
    ("version",), ("kind",), ("level",), ("load",), ("elec_edges",), ("road_edges",),
    ("dep_edges",), ("kind", 0), ("kind", 3), ("level", 1), ("level", 4), ("load", 2),
    ("load", 0), ("elec_edges", 0), ("elec_edges", 3), ("road_edges", 1),
    ("road_edges", 2), ("dep_edges", 0), ("dep_edges", 1),
]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(COLUMN_FIELDS),
       value=JSON_VALUES | st.sampled_from([DELETE, True, False, 1.0, 2.0, 220.0, 2.5, "1",
                                            "station", "junction", [1, 2], -1, 0, 1, 3, 5,
                                            6, 10, 110, 220, 65756, 2**70, float("nan")]))
def test_fuzz_from_json_columns(path, value):
    # one column, one column element or one flat-edge entry of a valid
    # version-2 document replaced or deleted: the reader rejects the
    # document, or the graph holds exactly the document's values
    doc = json.loads(make_toy_chain().to_json())
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        parent.pop(last) if isinstance(parent, list) else parent.pop(last, None)
    else:
        parent[last] = value
    g = _read_graph(json.dumps(doc))
    if g is None:
        return
    assert type(doc["version"]) is int and doc["version"] == 2
    assert [("station", "junction")[k] for k in g.kind.tolist()] == doc["kind"]
    assert all(type(x) is int for x in doc["level"]) and g.level.tolist() == doc["level"]
    assert all(type(x) in (int, float) for x in doc["load"]) and g.load.tolist() == doc["load"]
    for key in ("elec_edges", "road_edges", "dep_edges"):
        flat = doc[key]
        assert len(flat) % 2 == 0 and all(type(x) is int for x in flat)
        pairs = list(zip(flat[::2], flat[1::2]))
        if key == "road_edges":
            pairs = [(min(e), max(e)) for e in pairs]
        assert sorted(pairs) == sorted(map(tuple, getattr(g, key).tolist()))


# -- the sorted-key toolkit against numpy's own set routines ----------------

def _key_arrays():
    rng = np.random.default_rng(5)
    yield np.empty(0, dtype=np.int64)
    yield np.array([7], dtype=np.int64)
    for size, high in [(10, 3), (200, 50), (1000, 10**12), (3000, 2**62)]:
        yield rng.integers(-high, high, size=size)


@pytest.mark.parametrize("keys", _key_arrays())
def test_unique_keys_equals_numpys_unique(keys):
    got = unique_keys(keys)
    assert got.dtype == keys.dtype and got.tobytes() == np.unique(keys).tobytes()


@pytest.mark.parametrize("keys", _key_arrays())
def test_member_equals_numpys_isin(keys):
    rng = np.random.default_rng(len(keys))
    sorted_keys = np.unique(keys)
    # repeated queries: draws from the keys, the keys' neighbours and the keys
    queries = np.concatenate([rng.choice(keys, size=2 * len(keys)) if len(keys) else keys,
                              keys + 1, keys - 1, keys, [0, -1, 2**62]]).astype(np.int64)
    got = member(sorted_keys, queries)
    assert got.dtype == bool and got.tobytes() == np.isin(queries, sorted_keys).tobytes()
    assert member(sorted_keys, np.empty(0, dtype=np.int64)).shape == (0,)


def _edge_lists():
    rng = np.random.default_rng(9)
    yield 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    yield 1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    for seed in range(4):
        g = random_coupled(seed)
        yield g.n, g.edge_u, g.edge_v
    g = generate(preset_config("desk", seed=0))
    yield g.n, g.edge_u, g.edge_v
    # isolated nodes, repeated edges, and the ends of an edge in either order
    u, v = rng.integers(0, 40, size=(2, 60))
    keep = u != v
    yield 50, u[keep], v[keep]


@pytest.mark.parametrize("n, u, v", _edge_lists())
def test_adjacency_and_neighbors_equal_per_node_sorted_lists(n, u, v):
    lists = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        lists[a].append(b)
        lists[b].append(a)
    lists = [sorted(x) for x in lists]
    start, nbr = adjacency(n, u, v)
    assert start.dtype == nbr.dtype == np.int64 and start.tolist()[0] == 0
    assert [nbr[start[x]:start[x + 1]].tolist() for x in range(n)] == lists
    rng = np.random.default_rng(n)
    for nodes in (np.arange(n), rng.integers(0, n, size=3 * n), np.empty(0, dtype=np.int64)):
        got, count = neighbors(start, nbr, nodes)
        assert count.tolist() == [len(lists[x]) for x in nodes.tolist()]
        assert got.tolist() == [y for x in nodes.tolist() for y in lists[x]]


def test_no_pipeline_stage_imports_numpy_ma():
    # numpy's unique (and its quantile, which calls it) imports numpy.ma on
    # its first call, 8-17 ms in a fresh interpreter. A subprocess, since
    # pytest's own imports may already have loaded it here.
    code = """
import sys
from infranet import agent, baselines, embed, transfer
from infranet.netgen import generate, preset_config

loaded = []
def stage(name):
    if "numpy.ma" in sys.modules and not loaded:
        loaded.append(name)

g = generate(preset_config("paper", seed=0, n_220=2, fanout_110=(2, 3), fanout_10=(3, 5),
                           road_nodes=64)); stage("generate")
emb = embed.train_coupled(g, embed.EmbedConfig(d=8, epochs=2))[0]; stage("train_coupled")
params, _ = agent.train(g, emb, agent.AgentConfig(episodes=3, budget=3, batch_size=4))
stage("agent.train")
agent.greedy_attack(g, emb, params, 3); stage("greedy_attack")
baselines.gdm_attack(g, emb, 3, baselines.GdmConfig(sample_count=20, epochs=5))
stage("gdm_attack")
baselines.ci_attack(g, 2, radius=3); stage("ci_attack")
g_mask = transfer.mask_graph(g, transfer.MaskSpec()); stage("mask_graph")
new_emb, _ = transfer.retrain(g_mask, emb, transfer.RetrainConfig(epochs=2)); stage("retrain")
transfer.transfer_attack(g_mask, new_emb, params, 3); stage("transfer_attack")
print(loaded[0] if loaded else "none", "numpy.ma" in sys.modules)
"""
    src = str(Path(infranet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["none", "False"]
