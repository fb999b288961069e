"""Mask-graph perturbation and embedding retraining for transfer evaluation.

A mask graph keeps the node set but deletes and adds a fraction of edges per
layer while preserving layer typing (forest for electricity, supplier
uniqueness for dependencies). Retraining is `embed.train` on the mask graph
with the original embeddings as the fixed input and a pull-back term
(`pull`) that keeps the new embeddings near them, so a frozen value network
stays usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import agent as agent_mod
from . import embed as embed_mod
from .cascade import AttackReport, RewardWeights, check_fields
from .graph import CoupledGraph


class TransferError(ValueError):
    pass


@dataclass(frozen=True)
class MaskSpec:
    delete_fraction: float = 0.1
    add_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(self, TransferError, lambda: (
            ("delete_fraction", 0.0 <= self.delete_fraction <= 1.0, "be in [0,1]"),
            ("add_fraction", 0.0 <= self.add_fraction <= 1.0, "be in [0,1]"),
            ("seed", self.seed >= 0, "be >= 0"),
        ))


@dataclass(frozen=True)
class RetrainConfig:
    epochs: int = 50
    distance_weight: float = 1.0
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_fields(self, TransferError, lambda: (
            ("epochs", self.epochs >= 1, "be >= 1"),
            ("distance_weight", self.distance_weight >= 0, "be >= 0"),
            ("distance_weight", self.distance_weight < np.inf, "be finite"),
            ("lr", self.lr > 0, "be > 0"),
            ("lr", self.lr < np.inf, "be finite"),
            ("seed", self.seed >= 0, "be >= 0"),
        ))


def _sample_keep(edges, fraction, rng):
    k = int(round(fraction * len(edges)))
    return np.delete(edges, rng.permutation(len(edges))[:k], axis=0)


def mask_graph(g: CoupledGraph, spec: MaskSpec) -> CoupledGraph:
    """Edge-perturbed copy of g with an identical node set."""
    rng = np.random.default_rng(spec.seed)

    elec = _sample_keep(g.elec_edges, spec.delete_fraction, rng)
    road = _sample_keep(g.road_edges, spec.delete_fraction, rng)
    dep = _sample_keep(g.dep_edges, spec.delete_fraction, rng)

    # electricity additions: re-parent orphaned stations one level down a
    # valid parent; availability is bounded by the current orphan count
    add_elec = int(round(spec.add_fraction * len(g.elec_edges)))
    orphans = np.setdiff1d(np.flatnonzero(np.isin(g.level, (110, 10))), elec[:, 1])
    if add_elec > len(orphans):
        raise TransferError(
            f"cannot add {add_elec} electricity edges while keeping the forest: "
            f"only {len(orphans)} parentless stations available"
        )
    picked = orphans[rng.permutation(len(orphans))[:add_elec]]
    roots, mids = g.station_ids(level=220), g.station_ids(level=110)
    under_root = g.level[picked] == 110
    sizes = np.where(under_root, len(roots), len(mids))
    if np.any(sizes == 0):
        v = picked[np.argmax(sizes == 0)]
        raise TransferError(f"no valid parent level for station {v}")
    # one draw per orphan among its level's candidates: roots, then mids
    start = np.where(under_root, 0, len(roots))
    parents = np.concatenate([roots, mids])[start + rng.integers(0, sizes)]

    # road additions: uniform new junction pairs, keyed min*n+max; a pair is
    # kept if it is no kept edge and the first draw of its key
    add_road = int(round(spec.add_fraction * len(g.road_edges)))
    junctions = g.junction_ids()
    free_pairs = len(junctions) * (len(junctions) - 1) // 2 - len(road)
    if add_road > free_pairs:
        raise TransferError(
            f"cannot add {add_road} road edges: only {free_pairs} junction "
            f"pair(s) are not edges"
        )
    new_road = embed_mod.draw_new_pairs(rng, junctions, add_road, g.n,
                                        road[:, 0] * g.n + road[:, 1])

    # dependency additions: unsupplied junctions get a random 10kV station
    add_dep = int(round(spec.add_fraction * len(g.dep_edges)))
    free = np.setdiff1d(junctions, dep[:, 1])
    if add_dep > len(free):
        raise TransferError(
            f"cannot add {add_dep} dependency edges: only {len(free)} "
            f"unsupplied junctions remain"
        )
    supplied = free[rng.permutation(len(free))[:add_dep]]
    leaves = g.station_ids(level=10)
    suppliers = leaves[rng.integers(0, len(leaves), size=add_dep)]

    return CoupledGraph(
        kind=g.kind.copy(),
        level=g.level.copy(),
        load=g.load.copy(),
        elec_edges=np.concatenate([elec, np.stack([parents, picked], axis=1)]),
        road_edges=np.concatenate([road, new_road]),
        dep_edges=np.concatenate([dep, np.stack([suppliers, supplied], axis=1)]),
    )


def retrain(g_mask: CoupledGraph, old_emb, cfg: RetrainConfig):
    """Re-fit GNN weights on the mask graph; returns (embeddings, losses).

    The forward input is fixed at the original embeddings. The loss per
    epoch is the margin link-prediction loss on the mask graph plus
    distance_weight times the mean squared deviation from the originals.
    """
    F = old_emb.Z
    if F.shape[1] != g_mask.n:
        raise TransferError("embedding column count does not match the graph")
    ecfg = embed_mod.EmbedConfig(d=F.shape[0], lr=cfg.lr, epochs=cfg.epochs, seed=cfg.seed)
    emb, _, losses = embed_mod.train(embed_mod.problem_for(g_mask, "coupled", ecfg), ecfg,
                                     F=F, pull=cfg.distance_weight)
    return emb, losses


def transfer_attack(g_mask: CoupledGraph, new_emb, frozen_params, budget: int,
                    weights: RewardWeights = None) -> AttackReport:
    """Greedy attack on the mask graph with frozen Q-network parameters."""
    before = frozen_params.checksum()
    rep = agent_mod.greedy_attack(g_mask, new_emb, frozen_params, budget,
                                  weights=weights, method="transfer")
    if frozen_params.checksum() != before:
        raise TransferError("value network parameters changed during transfer")
    return rep
