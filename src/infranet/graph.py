"""Coupled electricity-road graph: typed nodes, layered edges, mutable node states.

Topology is frozen after construction; the per-node state array is the only
mutable piece and is episode-local (use :meth:`CoupledGraph.fork` to get an
independent copy sharing the same topology).

Each layer is stored once, as a read-only (m, 2) int64 array sorted by
(first, second). Validation and every topology question run on these arrays
and on the index arrays built from them, which forks share: `elec_parent`
and `elec_grandparent` (-1 where none; levels run 220 -> 110 -> 10, so no
supply chain is longer than three nodes), `edge_u`/`edge_v` over all
layers, `road_u`/`road_v` and `feeds`.

The road view's nodes, `junctions`, are kept in breadth-first rank: each
component's smallest junction first, then the junctions one road edge away,
and so on, by level and then by id. `road_u`/`road_v` hold the ends of each
road edge as ranks, positions in `junctions`. Every reached junction other
than a component's first then has a road neighbour of lower rank, so on the
intact view one hooking round of `_component_labels` joins each component
and only pointer jumps remain; after junction deaths on the paper view it
takes about two rounds, against five in id order. The search stops after
`RANK_LEVELS` levels, and the junctions it has not reached follow in id
order. `road_sizes` holds the intact view's component sizes, from the
labelling that found each component's first junction.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

# node kinds
STATION = 0
JUNCTION = 1
NODE_KINDS = {"station": STATION, "junction": JUNCTION}     # JSON names
KIND_NAMES = tuple(NODE_KINDS)                             # by kind code

# station levels (kV); junctions carry level 0
LEVELS = (220, 110, 10)

# node states
NORMAL = 0
DAMAGED = 1
INVALID = 2

GRAPH_FORMAT_VERSION = 2

# The breadth-first search that ranks a road view stops after this many
# levels. Each level is one frontier step of 10-20 us (2-core x86 host), so
# a deep view costs at most 128 of them: an unbounded search of a shuffled
# 20,000-junction path runs 15,570 levels and takes about 0.2 s. The preset
# views need 63 levels (desk, a 32 x 32 grid) and 57-82 (paper, a ring with
# chords, generator seeds 0-11), so 128 ranks them whole. At 48 the paper
# view (seed 0, 68 levels) still takes 4 hooking rounds after ten junction
# deaths, near the 5 of the id order, against 2 from 64 levels up.
RANK_LEVELS = 128

# the fields of a version-2 graph document besides "version"
NODE_COLUMNS = ("kind", "level", "load")
EDGE_FIELDS = ("elec_edges", "road_edges", "dep_edges")


class GraphError(ValueError):
    pass


def _int_array(values, dtype, error: str) -> np.ndarray:
    """`values` as a `dtype` array, nothing rounded or wrapped: GraphError
    `error` unless every value is an integer that fits `dtype`."""
    try:
        a, info = np.asarray(values), np.iinfo(dtype)
    except ValueError:                  # a ragged list
        raise GraphError(error) from None
    if a.size and (a.dtype.kind not in "iu" or a.min() < info.min or a.max() > info.max):
        raise GraphError(f"{error} that fit {info.dtype}")
    return a.astype(dtype, copy=False)


def _edge_array(name: str, edges, undirected: bool = False) -> np.ndarray:
    """An edge list as an (m, 2) int64 array sorted by (first, second);
    undirected pairs are put in (min, max) order first."""
    pairs = _int_array(edges, np.int64, f"{name} must be a list of (u, v) integer pairs")
    if pairs.ndim == 1 and pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError(f"{name} must be a list of (u, v) integer pairs")
    if undirected:
        pairs = np.sort(pairs, axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# -- sorted integer keys: the package's one dedup, membership test and CSR --
def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys, without numpy's unique (slow here; imports numpy.ma)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Bool mask: which of keys occur in the sorted array sorted_keys."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    i = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[i] == keys


def adjacency(n: int, u: np.ndarray, v: np.ndarray):
    """(start, nbr): the edges u-v in both directions as a CSR over nodes
    0..n-1, node x's neighbours nbr[start[x]:start[x + 1]] in ascending order."""
    rows, nbr = np.divmod(np.sort(np.concatenate([u, v]) * n + np.concatenate([v, u])), n)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=start[1:])
    return start, nbr


def neighbors(start: np.ndarray, nbr: np.ndarray, nodes: np.ndarray):
    """The neighbour lists of `nodes` in an `adjacency` CSR, joined, and their lengths."""
    count = start[nodes + 1] - start[nodes]
    at = np.repeat(start[nodes] - np.cumsum(count) + count, count)
    return nbr[at + np.arange(len(at))], count


def _component_labels(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Connected-component labels of nodes 0..n-1 over the given edges.

    Every node is labelled with the smallest id in its component. Min-label
    hooking (each root adopts the smallest label across its edges) alternates
    with pointer jumping until no edge joins two labels. Labels only ever
    decrease, so the loop terminates.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[edge_u], label[edge_v]
        cross = lu != lv
        if not cross.any():
            return label
        lu, lv = lu[cross], lv[cross]
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _breadth_first_order(n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                         roots: np.ndarray) -> np.ndarray:
    """Nodes 0..n-1 in breadth-first order from `roots` over the undirected
    edges, level by level and by id within a level; the nodes not reached
    within `RANK_LEVELS` levels follow in id order."""
    start, nbr = adjacency(n, edge_u, edge_v)
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    front, levels = roots, [roots]
    for _ in range(RANK_LEVELS - 1):
        reach = neighbors(start, nbr, front)[0]
        front = unique_keys(reach[~seen[reach]])
        if len(front) == 0:
            break
        seen[front] = True
        levels.append(front)
    levels.append(np.flatnonzero(~seen))
    return np.concatenate(levels)


def _v1_columns(doc: dict) -> dict:
    """The node columns and flat edge lists of a version-1 document, which
    holds one record per node and one [u, v] list per edge."""
    for r in doc["nodes"]:
        for key in ("id", "kind"):
            if not isinstance(r, dict) or key not in r:
                raise GraphError(f"node record {r!r} has no field {key!r}")
        if type(r["id"]) is not int:
            raise GraphError(f"node field 'id' must be an integer, got {r['id']!r}")
    nodes = sorted(doc["nodes"], key=lambda r: r["id"])
    if [r["id"] for r in nodes] != list(range(len(nodes))):
        raise GraphError("node ids must be dense 0..n-1")
    cols = {"kind": [r["kind"] for r in nodes],
            "level": [r.get("level", 0) for r in nodes],
            "load": [r.get("load", 0.0) for r in nodes]}
    for key in EDGE_FIELDS:
        pairs = doc[key]
        if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
            raise GraphError(f"graph field {key!r} must be a list of [u, v] integer pairs")
        cols[key] = list(itertools.chain.from_iterable(pairs))
    return cols


def _first(values: np.ndarray, bad: np.ndarray) -> int:
    """The value at the first True of `bad` (row-major for 2-D arrays)."""
    return int(values.reshape(-1)[np.argmax(bad.reshape(-1))])


def _first_edge(pairs: np.ndarray, bad: np.ndarray) -> str:
    return "({},{})".format(*pairs[np.argmax(bad)])


@dataclass
class CoupledGraph:
    """Heterogeneous coupled graph over dense node ids 0..n-1.

    Electricity edges are directed parent->child and form a forest whose
    levels strictly descend (220 -> 110 -> 10). Road edges are undirected
    between junctions. Dependency edges point from 10kV stations to the
    junctions (traffic lights) they supply; a junction has at most one
    supplier. Edge fields take any sequence of integer pairs.
    """

    kind: np.ndarray          # int8, STATION/JUNCTION
    level: np.ndarray         # int16, 220/110/10 for stations, 0 otherwise
    load: np.ndarray          # float64, nonzero only for 10kV stations
    elec_edges: np.ndarray    # (m, 2) int64 (parent, child)
    road_edges: np.ndarray    # (m, 2) int64 (u, v) with u < v
    dep_edges: np.ndarray     # (m, 2) int64 (station, junction)
    state: np.ndarray = field(init=False)     # uint8, all Normal at construction

    def __post_init__(self):
        self.kind = _int_array(self.kind, np.int8, "node column 'kind' must hold integers")
        self.level = _int_array(self.level, np.int16, "node column 'level' must hold integers")
        try:
            self.load = np.asarray(self.load, dtype=np.float64)
        except (TypeError, ValueError):
            raise GraphError("node column 'load' must hold numbers") from None
        elec = self.elec_edges = _edge_array("elec_edges", self.elec_edges)
        road = self.road_edges = _edge_array("road_edges", self.road_edges, undirected=True)
        dep = self.dep_edges = _edge_array("dep_edges", self.dep_edges)
        for pairs in (elec, road, dep):
            pairs.flags.writeable = False
        self.state = np.zeros(self.n, dtype=np.uint8)
        self._validate(elec, road, dep)
        self._build_adjacency(elec, road, dep)

    # -- construction / validation -------------------------------------

    @property
    def n(self) -> int:
        return len(self.kind)

    def _validate(self, elec, road, dep):
        """Every rule runs over whole edge arrays; a failure names the first
        offending edge or node in sorted edge order."""
        n = self.n
        if not (len(self.level) == len(self.load) == n):
            raise GraphError("node attribute arrays disagree on length")
        if np.any((self.kind != STATION) & (self.kind != JUNCTION)):
            raise GraphError("unknown node kind")
        stations = self.kind == STATION
        if np.any(~np.isin(self.level[stations], LEVELS)):
            raise GraphError("station level must be one of 220/110/10")
        if np.any(self.level[~stations] != 0):
            raise GraphError("junctions carry no voltage level")
        if not np.all(np.isfinite(self.load)):
            raise GraphError("non-finite load")
        if np.any(self.load < 0):
            raise GraphError("negative load")
        if np.any(self.load[~((self.level == 10) & stations)] != 0):
            raise GraphError("only 10kV stations carry load")

        for pairs in (elec, road, dep):
            bad = (pairs < 0) | (pairs >= n)
            if bad.any():
                raise GraphError(f"node id {_first(pairs, bad)} out of range [0,{n})")

        p, c = elec[:, 0], elec[:, 1]
        bad = (self.kind[p] != STATION) | (self.kind[c] != STATION)
        if bad.any():
            raise GraphError(f"elec edge {_first_edge(elec, bad)} touches a junction")
        lp, lc = self.level[p], self.level[c]
        bad = ~(((lp == 220) & (lc == 110)) | ((lp == 110) & (lc == 10)))
        if bad.any():
            raise GraphError(f"elec edge {_first_edge(elec, bad)} does not descend one level")
        bad = np.bincount(c, minlength=n) > 1
        if bad.any():
            raise GraphError(f"node {np.argmax(bad)} has two electricity parents")

        u, v = road[:, 0], road[:, 1]
        bad = u == v
        if bad.any():
            raise GraphError(f"road self-loop at node {_first(u, bad)}")
        bad = (self.kind[u] != JUNCTION) | (self.kind[v] != JUNCTION)
        if bad.any():
            raise GraphError(f"road edge {_first_edge(road, bad)} touches a station")
        bad = np.all(road[1:] == road[:-1], axis=1)     # road is sorted
        if bad.any():
            raise GraphError(f"duplicate road edge {_first_edge(road[1:], bad)}")

        s, j = dep[:, 0], dep[:, 1]
        bad = (self.kind[s] != STATION) | (self.level[s] != 10)
        if bad.any():
            raise GraphError(f"dep edge source {_first(s, bad)} is not a 10kV station")
        bad = self.kind[j] != JUNCTION
        if bad.any():
            raise GraphError(f"dep edge target {_first(j, bad)} is not a junction")
        bad = np.bincount(j, minlength=n) > 1
        if bad.any():
            raise GraphError(f"junction {np.argmax(bad)} has two suppliers")

    def _build_adjacency(self, elec, road, dep):
        n = self.n
        # every layer's edges, undirected, in the order elec, road, dep
        self.edge_u = np.concatenate([elec[:, 0], road[:, 0], dep[:, 0]])
        self.edge_v = np.concatenate([elec[:, 1], road[:, 1], dep[:, 1]])
        parent = np.full(n, -1, dtype=np.int64)
        parent[elec[:, 1]] = elec[:, 0]
        grandparent = np.full(n, -1, dtype=np.int64)
        grandparent[elec[:, 1]] = parent[elec[:, 0]]
        self.elec_parent, self.elec_grandparent = parent, grandparent
        # array caches of the cascade metrics, built here so that forks share
        # them and no reader ever writes one lazily. Road edges are stored as
        # positions in `junctions`, the node list of the road view, in
        # breadth-first rank from each component's smallest junction.
        junctions = np.flatnonzero(self.kind == JUNCTION)
        position = np.full(n, -1, dtype=np.int64)
        position[junctions] = np.arange(len(junctions))
        u, v = position[road[:, 0]], position[road[:, 1]]
        label = _component_labels(len(junctions), u, v)
        roots = np.flatnonzero(label == np.arange(len(junctions)))
        self.road_sizes = np.bincount(label)[roots]
        self.junctions = junctions[_breadth_first_order(len(junctions), u, v, roots)]
        position[self.junctions] = np.arange(len(junctions))
        self.road_u = position[road[:, 0]]
        self.road_v = position[road[:, 1]]
        top = np.where(grandparent >= 0, grandparent,
                       np.where(parent >= 0, parent, np.arange(n)))
        # load a 10kV station delivers while its supply chain is Normal
        self.feeds = np.where(self.level[top] == 220, self.load, 0.0)

    # -- derived node sets ----------------------------------------------

    def station_ids(self, level=None) -> np.ndarray:
        mask = self.kind == STATION
        if level is not None:
            mask &= self.level == level
        return np.flatnonzero(mask)

    def junction_ids(self) -> np.ndarray:
        return np.flatnonzero(self.kind == JUNCTION)

    # -- topology queries -------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Incident edge count of every node over all layers, directions ignored."""
        ends = np.concatenate([self.edge_u, self.edge_v])
        return np.bincount(ends, minlength=self.n).astype(np.int64)

    # -- episode state -----------------------------------------------------

    def fork(self) -> "CoupledGraph":
        """Copy sharing topology with an independent all-Normal state array."""
        g = object.__new__(CoupledGraph)
        g.__dict__.update(self.__dict__)
        g.state = np.zeros(self.n, dtype=np.uint8)
        return g

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """A version-2 document: one list per node column and one flat
        `[u0, v0, u1, v1, ...]` list per edge layer, as `json.dumps(doc,
        sort_keys=True, separators=(",", ":"))` writes it plus a newline."""
        doc = {
            "version": GRAPH_FORMAT_VERSION,
            "kind": list(map(KIND_NAMES.__getitem__, self.kind.tolist())),
            "level": self.level.tolist(),
            "load": self.load.tolist(),
        }
        for key in EDGE_FIELDS:
            doc[key] = getattr(self, key).ravel().tolist()
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text) -> "CoupledGraph":
        """The graph a document (str, or bytes in a JSON encoding) describes.

        Version 2 holds the columns `to_json` writes; version 1 holds one
        record per node and one `[u, v]` list per edge, and is read by
        turning it into the same columns. Levels and edge endpoints must be
        JSON integers and loads JSON numbers; anything else is a GraphError,
        not a conversion."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:     # bad syntax, encoding or depth
            raise GraphError(f"graph document is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise GraphError("graph document must be a JSON object")
        version = doc.get("version")
        if type(version) is not int or version not in (1, GRAPH_FORMAT_VERSION):
            raise GraphError(f"unsupported graph format version {version!r}")
        for key in (("nodes",) if version == 1 else NODE_COLUMNS) + EDGE_FIELDS:
            if not isinstance(doc.get(key), list):
                raise GraphError(f"graph field {key!r} is missing or not a list")
        if version == 1:
            return cls._from_columns(_v1_columns(doc), "a list of [u, v] integer pairs")
        return cls._from_columns(doc, "a flat list of integers [u0, v0, u1, v1, ...]")

    @classmethod
    def _from_columns(cls, cols, edge_form: str) -> "CoupledGraph":
        """The graph of JSON node columns and flat edge lists, each checked
        whole; the constructor then checks every graph rule."""
        kinds, levels, loads = (cols[key] for key in NODE_COLUMNS)
        if not len(kinds) == len(levels) == len(loads):
            raise GraphError(f"node columns disagree on length: {len(kinds)} kinds, "
                             f"{len(levels)} levels, {len(loads)} loads")
        if not (set(map(type, kinds)) <= {str} and set(kinds) <= NODE_KINDS.keys()):
            v, bad = next((v, k) for v, k in enumerate(kinds)
                          if not isinstance(k, str) or k not in NODE_KINDS)
            raise GraphError(f"node {v}: unknown kind {bad!r}; choose from {tuple(NODE_KINDS)}")
        # a null load reads as NaN, which the graph rejects as non-finite
        for name, values, types in (("level", levels, {int}),
                                    ("load", loads, {int, float, type(None)})):
            if not set(map(type, values)) <= types:
                bad = next(x for x in values if type(x) not in types)
                raise GraphError(f"node field 'level' or 'load' is not a number: "
                                 f"{name} {bad!r} is not a JSON "
                                 f"{'integer' if name == 'level' else 'number'}")
        for key in EDGE_FIELDS:
            if len(cols[key]) % 2 or not set(map(type, cols[key])) <= {int}:
                raise GraphError(f"graph field {key!r} must be {edge_form}")
        try:
            level = np.array(levels, dtype=np.int16)
            load = np.array(loads, dtype=np.float64)
            edges = {key: np.array(cols[key], dtype=np.int64).reshape(-1, 2)
                     for key in EDGE_FIELDS}
        except OverflowError as e:
            raise GraphError(f"graph number out of range: {e}") from None
        kind = np.fromiter(map(NODE_KINDS.__getitem__, kinds), dtype=np.int8, count=len(kinds))
        return cls(kind=kind, level=level, load=load, **edges)

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def from_file(cls, path) -> "CoupledGraph":
        with open(path, "rb") as f:
            return cls.from_json(f.read())
