"""Coupled electricity-road graph: typed nodes, layered edges, mutable node states.

Topology is frozen after construction; the per-node state array is the only
mutable piece and is episode-local (use :meth:`CoupledGraph.fork` to get an
independent copy sharing the same topology).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# node kinds
STATION = 0
JUNCTION = 1

# station levels (kV); junctions carry level 0
LEVELS = (220, 110, 10)

# node states
NORMAL = 0
DAMAGED = 1
INVALID = 2

GRAPH_FORMAT_VERSION = 1


class GraphError(ValueError):
    pass


@dataclass
class CoupledGraph:
    """Heterogeneous coupled graph over dense node ids 0..n-1.

    Electricity edges are directed parent->child and form a forest whose
    levels strictly descend (220 -> 110 -> 10). Road edges are undirected
    between junctions. Dependency edges point from 10kV stations to the
    junctions (traffic lights) they supply; a junction has at most one
    supplier.
    """

    kind: np.ndarray          # int8, STATION/JUNCTION
    level: np.ndarray         # int16, 220/110/10 for stations, 0 otherwise
    load: np.ndarray          # float64, nonzero only for 10kV stations
    elec_edges: list          # [(parent, child)]
    road_edges: list          # [(u, v)] with u < v
    dep_edges: list           # [(station, junction)]
    state: np.ndarray = field(default=None)

    def __post_init__(self):
        self.kind = np.asarray(self.kind, dtype=np.int8)
        self.level = np.asarray(self.level, dtype=np.int16)
        self.load = np.asarray(self.load, dtype=np.float64)
        self.elec_edges = sorted((int(a), int(b)) for a, b in self.elec_edges)
        self.road_edges = sorted(
            (min(int(a), int(b)), max(int(a), int(b))) for a, b in self.road_edges
        )
        self.dep_edges = sorted((int(a), int(b)) for a, b in self.dep_edges)
        if self.state is None:
            self.state = np.zeros(self.n, dtype=np.uint8)
        else:
            self.state = np.asarray(self.state, dtype=np.uint8)
        self._validate()
        self._build_adjacency()

    # -- construction / validation -------------------------------------

    @property
    def n(self) -> int:
        return len(self.kind)

    def _validate(self):
        n = self.n
        if not (len(self.level) == len(self.load) == len(self.state) == n):
            raise GraphError("node attribute arrays disagree on length")
        if np.any((self.kind != STATION) & (self.kind != JUNCTION)):
            raise GraphError("unknown node kind")
        stations = self.kind == STATION
        if np.any(~np.isin(self.level[stations], LEVELS)):
            raise GraphError("station level must be one of 220/110/10")
        if np.any(self.level[~stations] != 0):
            raise GraphError("junctions carry no voltage level")
        if np.any(self.load < 0):
            raise GraphError("negative load")
        if np.any(self.load[~((self.level == 10) & stations)] != 0):
            raise GraphError("only 10kV stations carry load")

        parent_seen = np.full(n, -1, dtype=np.int64)
        for p, c in self.elec_edges:
            self._check_id(p)
            self._check_id(c)
            if self.kind[p] != STATION or self.kind[c] != STATION:
                raise GraphError(f"elec edge ({p},{c}) touches a junction")
            ok = (self.level[p], self.level[c]) in {(220, 110), (110, 10)}
            if not ok:
                raise GraphError(f"elec edge ({p},{c}) does not descend one level")
            if parent_seen[c] != -1:
                raise GraphError(f"node {c} has two electricity parents")
            parent_seen[c] = p
        for u, v in self.road_edges:
            self._check_id(u)
            self._check_id(v)
            if u == v:
                raise GraphError("road self-loop")
            if self.kind[u] != JUNCTION or self.kind[v] != JUNCTION:
                raise GraphError(f"road edge ({u},{v}) touches a station")
        supplier_seen = np.full(n, -1, dtype=np.int64)
        for s, j in self.dep_edges:
            self._check_id(s)
            self._check_id(j)
            if self.kind[s] != STATION or self.level[s] != 10:
                raise GraphError(f"dep edge source {s} is not a 10kV station")
            if self.kind[j] != JUNCTION:
                raise GraphError(f"dep edge target {j} is not a junction")
            if supplier_seen[j] != -1:
                raise GraphError(f"junction {j} has two suppliers")
            supplier_seen[j] = s

    def _check_id(self, v):
        if not 0 <= v < self.n:
            raise GraphError(f"node id {v} out of range [0,{self.n})")

    def _build_adjacency(self):
        n = self.n
        self.elec_parent = np.full(n, -1, dtype=np.int64)
        elec_children = [[] for _ in range(n)]
        for p, c in self.elec_edges:
            self.elec_parent[c] = p
            elec_children[p].append(c)
        self.elec_children = [np.array(sorted(cs), dtype=np.int64) for cs in elec_children]
        self.dep_supplier = np.full(n, -1, dtype=np.int64)
        dep_lights = [[] for _ in range(n)]
        for s, j in self.dep_edges:
            self.dep_supplier[j] = s
            dep_lights[s].append(j)
        self.dep_lights = [np.array(sorted(ls), dtype=np.int64) for ls in dep_lights]
        # array caches of the cascade metrics, built here so that forks share
        # them and no reader ever writes one lazily. Road edges are stored as
        # positions in `junctions`, the node list of the road view.
        self.junctions = np.flatnonzero(self.kind == JUNCTION)
        position = np.full(n, -1, dtype=np.int64)
        position[self.junctions] = np.arange(len(self.junctions))
        road = np.array(self.road_edges, dtype=np.int64).reshape(-1, 2)
        self.road_u = position[road[:, 0]]
        self.road_v = position[road[:, 1]]
        top = np.arange(n)
        for _ in LEVELS:    # each hop climbs one level
            up = self.elec_parent[top]
            top = np.where(up == -1, top, up)
        # load a 10kV station delivers while its supply path is Normal
        self.feeds = np.where(self.level[top] == 220, self.load, 0.0)

    # -- derived node sets ----------------------------------------------

    def station_ids(self, level=None) -> np.ndarray:
        mask = self.kind == STATION
        if level is not None:
            mask &= self.level == level
        return np.flatnonzero(mask)

    def junction_ids(self) -> np.ndarray:
        return np.flatnonzero(self.kind == JUNCTION)

    def elec_roots(self) -> np.ndarray:
        """Parentless 220kV stations: the supply sources of the grid."""
        mask = (self.kind == STATION) & (self.level == 220) & (self.elec_parent == -1)
        return np.flatnonzero(mask)

    # -- topology queries -------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Incident edge count of every node over all layers, directions ignored."""
        ends = [np.asarray(e, dtype=np.int64).reshape(-1)
                for e in (self.elec_edges, self.road_edges, self.dep_edges)]
        return np.bincount(np.concatenate(ends), minlength=self.n).astype(np.int64)

    def all_edges(self) -> list:
        """Every edge as an undirected (u, v) pair with its layer tag."""
        out = [(u, v, "elec") for u, v in self.elec_edges]
        out += [(u, v, "road") for u, v in self.road_edges]
        out += [(u, v, "dep") for u, v in self.dep_edges]
        return out

    # -- episode state -----------------------------------------------------

    def fork(self) -> "CoupledGraph":
        """Copy sharing topology with an independent all-Normal state array."""
        g = object.__new__(CoupledGraph)
        g.__dict__.update(self.__dict__)
        g.state = np.zeros(self.n, dtype=np.uint8)
        return g

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        nodes = []
        for v in range(self.n):
            rec = {"id": v, "kind": "station" if self.kind[v] == STATION else "junction"}
            if self.kind[v] == STATION:
                rec["level"] = int(self.level[v])
                if self.level[v] == 10:
                    rec["load"] = float(self.load[v])
            nodes.append(rec)
        doc = {
            "version": GRAPH_FORMAT_VERSION,
            "nodes": nodes,
            "elec_edges": [list(e) for e in self.elec_edges],
            "road_edges": [list(e) for e in self.road_edges],
            "dep_edges": [list(e) for e in self.dep_edges],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CoupledGraph":
        doc = json.loads(text)
        if doc.get("version") != GRAPH_FORMAT_VERSION:
            raise GraphError(f"unsupported graph format version {doc.get('version')!r}")
        nodes = sorted(doc["nodes"], key=lambda r: r["id"])
        if [r["id"] for r in nodes] != list(range(len(nodes))):
            raise GraphError("node ids must be dense 0..n-1")
        kind = np.array(
            [STATION if r["kind"] == "station" else JUNCTION for r in nodes], dtype=np.int8
        )
        level = np.array([r.get("level", 0) for r in nodes], dtype=np.int16)
        load = np.array([r.get("load", 0.0) for r in nodes], dtype=np.float64)
        return cls(
            kind=kind,
            level=level,
            load=load,
            elec_edges=[tuple(e) for e in doc["elec_edges"]],
            road_edges=[tuple(e) for e in doc["road_edges"]],
            dep_edges=[tuple(e) for e in doc["dep_edges"]],
        )

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def from_file(cls, path) -> "CoupledGraph":
        with open(path) as f:
            return cls.from_json(f.read())
