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

from .cascade import check_fields, is_int
from .embed import draw_new_pairs
from .graph import JUNCTION, STATION, CoupledGraph, GraphError

ROAD_GRID = "grid"
ROAD_RANDOM = "random"
ROAD_MODELS = (ROAD_GRID, ROAD_RANDOM)

# extra-chord fraction of the ring model; nominal edge/node ratio = 1 + this
RANDOM_ROAD_CHORD_FRACTION = 0.05

# the largest inclusive upper bound of a drawn range: each range is drawn
# as rng.integers(low, high + 1), and numpy draws int64
_MAX_HIGH = 2**63 - 2


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

    def __post_init__(self):
        ranges = {name: getattr(self, name) for name in ("fanout_110", "fanout_10", "load_range")}
        pairs = {name: isinstance(r, (tuple, list)) and len(r) == 2 and all(map(is_int, r))
                 for name, r in ranges.items()}
        check_fields(self, GraphError, lambda: (
            ("seed", self.seed >= 0, "be >= 0"),
            ("n_220", self.n_220 >= 1, "be >= 1"),
            ("road_nodes", self.road_nodes >= 1, "be >= 1"),
            *((name, pairs[name], "be a pair of integers") for name in ranges),
            *((name, 0 <= r[0] <= r[1] <= _MAX_HIGH, f"satisfy 0 <= low <= high <= {_MAX_HIGH}")
              for name, r in ranges.items() if pairs[name]),
            ("coupling_fraction", 0.0 <= self.coupling_fraction <= 1.0, "be in [0,1]"),
            ("road_model", self.road_model in ROAD_MODELS,
             f"be {' or '.join(map(repr, ROAD_MODELS))}"),
        ))


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


def _ring_chord_edges(n: int, offset: int, rng: np.random.Generator) -> np.ndarray:
    if n < 3:
        return offset + np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    order = rng.permutation(n)
    ring = np.stack([order, np.roll(order, -1)], axis=1)
    chords = draw_new_pairs(rng, np.arange(n), int(np.floor(RANDOM_ROAD_CHORD_FRACTION * n)),
                            n, ring)
    return offset + np.concatenate([ring, chords])


def generate(cfg: GenConfig) -> CoupledGraph:
    """Build a coupled graph; identical configs give identical graphs.

    Stations are numbered roots first, then the 110kV stations in root order,
    then the 10kV leaves in 110kV order; junctions follow. The draws are the
    110kV counts, then per 110kV station its leaf count and its leaves' loads,
    then the road layer and the dependency edges.
    """
    rng = np.random.default_rng(cfg.seed)
    (lo_110, hi_110), (lo_10, hi_10), (lo, hi) = cfg.fanout_110, cfg.fanout_10, cfg.load_range

    mids_per_root = rng.integers(lo_110, hi_110 + 1, size=cfg.n_220)
    leaves_per_mid, loads = np.empty(int(mids_per_root.sum()), dtype=np.int64), []
    for i in range(len(leaves_per_mid)):
        leaves_per_mid[i] = rng.integers(lo_10, hi_10 + 1)
        loads.append(rng.integers(lo, hi + 1, size=leaves_per_mid[i]))
    # node counts per level: 220kV, 110kV, 10kV, junctions
    sizes = [cfg.n_220, len(leaves_per_mid), int(leaves_per_mid.sum()), cfg.road_nodes]
    first_leaf = cfg.n_220 + sizes[1]
    offset = first_leaf + sizes[2]      # the first junction
    parents = np.concatenate([np.repeat(np.arange(cfg.n_220), mids_per_root),
                              np.repeat(np.arange(cfg.n_220, first_leaf), leaves_per_mid)])

    if cfg.road_model == ROAD_GRID:
        road_edges = _grid_edges(cfg.road_nodes, offset)
    else:
        road_edges = _ring_chord_edges(cfg.road_nodes, offset, rng)

    n_coupled = int(round(cfg.coupling_fraction * cfg.road_nodes))
    if n_coupled > 0 and sizes[2] == 0:
        raise GraphError("coupling requested but the grid has no 10kV stations")
    picked = rng.permutation(cfg.road_nodes)[:n_coupled] + offset
    suppliers = first_leaf + rng.integers(0, sizes[2], size=n_coupled)

    return CoupledGraph(
        kind=np.repeat([STATION, JUNCTION], [offset, cfg.road_nodes]),
        level=np.repeat([220, 110, 10, 0], sizes),
        load=np.concatenate([np.zeros(first_leaf), *loads, np.zeros(cfg.road_nodes)]),
        elec_edges=np.stack([parents, np.arange(cfg.n_220, offset)], axis=1),
        road_edges=road_edges,
        dep_edges=np.stack([suppliers, picked], axis=1),
    )
