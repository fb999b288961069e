"""Seeded synthetic coupled-graph generator.

The electricity layer is a three-level forest (220kV roots, 110kV branches,
10kV leaves). The road layer is either a square-ish lattice ('grid') or a
degree-homogeneous ring-with-chords ('random', edge/node ratio ~1.05, close
to real tertiary-road statistics). Dependency edges attach a random 10kV
station to a configurable fraction of junctions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import JUNCTION, STATION, CoupledGraph, GraphError

ROAD_GRID = "grid"
ROAD_RANDOM = "random"

# extra-chord fraction of the ring model; nominal edge/node ratio = 1 + this
RANDOM_ROAD_CHORD_FRACTION = 0.05


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_220: int = 4
    fanout_110: tuple = (3, 5)     # inclusive range of 110kV children per 220kV root
    fanout_10: tuple = (3, 6)      # inclusive range of 10kV children per 110kV station
    road_nodes: int = 100
    road_model: str = ROAD_GRID
    coupling_fraction: float = 0.5
    load_range: tuple = (50, 150)  # inclusive integer load of each 10kV station

    def validate(self):
        if self.seed < 0:
            raise GraphError(f"seed must be >= 0, got {self.seed!r}")
        if self.n_220 <= 0 or self.road_nodes <= 0:
            raise GraphError("counts must be positive")
        for lo, hi in (self.fanout_110, self.fanout_10):
            if lo > hi or lo < 0:
                raise GraphError("empty fanout range")
        if not 0.0 <= self.coupling_fraction <= 1.0:
            raise GraphError("coupling_fraction outside [0,1]")
        if self.road_model not in (ROAD_GRID, ROAD_RANDOM):
            raise GraphError(f"unknown road model {self.road_model!r}")
        if self.load_range[0] > self.load_range[1] or self.load_range[0] < 0:
            raise GraphError("bad load range")


# named configurations; 'paper' approximates the published network sizes,
# 'desk' is a ~1,500-node instance that trains in minutes
PRESETS = {
    "desk": GenConfig(
        n_220=8,
        fanout_110=(5, 8),
        fanout_10=(6, 10),
        road_nodes=1024,
        road_model=ROAD_GRID,
        coupling_fraction=0.7,
    ),
    "paper": GenConfig(
        n_220=25,
        fanout_110=(8, 12),
        fanout_10=(38, 46),
        road_nodes=4825,
        road_model=ROAD_RANDOM,
        coupling_fraction=0.9,
    ),
}


def preset_config(name: str, seed: int = 0, **overrides) -> GenConfig:
    if name not in PRESETS:
        raise GraphError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(PRESETS[name], seed=seed, **overrides)


def _grid_edges(n: int, offset: int) -> np.ndarray:
    rows = max(1, int(np.floor(np.sqrt(n))))
    cols = int(np.ceil(n / rows))
    i = np.arange(n)
    right = i[(i % cols < cols - 1) & (i < n - 1)]
    down = i[i < n - cols]
    return offset + np.stack([np.concatenate([right, down]),
                              np.concatenate([right + 1, down + cols])], axis=1)


def _ring_chord_edges(n: int, offset: int, rng: np.random.Generator):
    if n < 3:
        return [(offset + i, offset + i + 1) for i in range(n - 1)]
    order = rng.permutation(n)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, np.roll(order, -1))}
    want = len(edges) + int(np.floor(RANDOM_ROAD_CHORD_FRACTION * n))
    while len(edges) < want:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return [(offset + u, offset + v) for u, v in sorted(edges)]


def generate(cfg: GenConfig) -> CoupledGraph:
    """Build a coupled graph; identical configs give identical graphs."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    kinds, levels, loads = [], [], []
    elec_edges = []

    def add_station(level, load=0.0):
        kinds.append(STATION)
        levels.append(level)
        loads.append(load)
        return len(kinds) - 1

    roots = [add_station(220) for _ in range(cfg.n_220)]
    mids = []
    for r in roots:
        k = int(rng.integers(cfg.fanout_110[0], cfg.fanout_110[1] + 1))
        for _ in range(k):
            m = add_station(110)
            elec_edges.append((r, m))
            mids.append(m)
    leaves = []
    for m in mids:
        k = int(rng.integers(cfg.fanout_10[0], cfg.fanout_10[1] + 1))
        for _ in range(k):
            lo, hi = cfg.load_range
            s = add_station(10, load=float(rng.integers(lo, hi + 1)))
            elec_edges.append((m, s))
            leaves.append(s)

    offset = len(kinds)
    kinds += [JUNCTION] * cfg.road_nodes
    levels += [0] * cfg.road_nodes
    loads += [0.0] * cfg.road_nodes
    if cfg.road_model == ROAD_GRID:
        road_edges = _grid_edges(cfg.road_nodes, offset)
    else:
        road_edges = _ring_chord_edges(cfg.road_nodes, offset, rng)

    n_coupled = int(round(cfg.coupling_fraction * cfg.road_nodes))
    dep_edges = []
    if n_coupled > 0:
        if not leaves:
            raise GraphError("coupling requested but the grid has no 10kV stations")
        picked = rng.permutation(cfg.road_nodes)[:n_coupled] + offset
        suppliers = rng.integers(0, len(leaves), size=n_coupled)
        dep_edges = [(leaves[s], int(j)) for s, j in zip(suppliers, picked)]

    return CoupledGraph(
        kind=np.array(kinds),
        level=np.array(levels),
        load=np.array(loads),
        elec_edges=elec_edges,
        road_edges=road_edges,
        dep_edges=dep_edges,
    )
