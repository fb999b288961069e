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
from .cascade import AttackReport, RewardWeights
from .graph import CoupledGraph


class TransferError(ValueError):
    pass


@dataclass(frozen=True)
class MaskSpec:
    delete_fraction: float = 0.1
    add_fraction: float = 0.1
    seed: int = 0

    def validate(self):
        for f in (self.delete_fraction, self.add_fraction):
            if not 0.0 <= f <= 1.0:
                raise TransferError("fractions must lie in [0,1]")
        if self.seed < 0:
            raise TransferError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class RetrainConfig:
    epochs: int = 50
    distance_weight: float = 1.0
    lr: float = 1e-3
    seed: int = 0

    def validate(self):
        for key, ok, rule in (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("distance_weight", self.distance_weight >= 0, ">= 0"),
            ("lr", self.lr > 0, "> 0"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise TransferError(f"{key} must be {rule}, got {getattr(self, key)!r}")


def _sample_keep(edges, fraction, rng):
    k = int(round(fraction * len(edges)))
    return np.delete(edges, rng.permutation(len(edges))[:k], axis=0)


def _with_added(pairs, new):
    return np.concatenate([pairs, np.array(new, dtype=np.int64).reshape(-1, 2)])


def mask_graph(g: CoupledGraph, spec: MaskSpec) -> CoupledGraph:
    """Edge-perturbed copy of g with an identical node set."""
    spec.validate()
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
    parents = {110: g.station_ids(level=220), 10: g.station_ids(level=110)}
    new_elec = []
    for v in orphans[rng.permutation(len(orphans))[:add_elec]]:
        cand = parents[int(g.level[v])]
        if len(cand) == 0:
            raise TransferError(f"no valid parent level for station {v}")
        new_elec.append((cand[rng.integers(0, len(cand))], v))

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
    existing = road[:, 0] * g.n + road[:, 1]

    def new_pair(u, v):
        key = np.minimum(u, v) * g.n + np.maximum(u, v)
        first = np.zeros(len(key), dtype=bool)
        first[np.unique(key, return_index=True)[1]] = True
        return (u != v) & first & ~np.isin(key, existing)

    new_road = embed_mod.draw_pairs(rng, junctions, add_road, new_pair)

    # dependency additions: unsupplied junctions get a random 10kV station
    add_dep = int(round(spec.add_fraction * len(g.dep_edges)))
    free = np.setdiff1d(junctions, dep[:, 1])
    if add_dep > len(free):
        raise TransferError(
            f"cannot add {add_dep} dependency edges: only {len(free)} "
            f"unsupplied junctions remain"
        )
    leaves = g.station_ids(level=10)
    if add_dep > 0 and len(leaves) == 0:
        raise TransferError("no 10kV stations to act as suppliers")
    new_dep = [(leaves[rng.integers(0, len(leaves))], j)
               for j in free[rng.permutation(len(free))[:add_dep]]]

    return CoupledGraph(
        kind=g.kind.copy(),
        level=g.level.copy(),
        load=g.load.copy(),
        elec_edges=_with_added(elec, new_elec),
        road_edges=_with_added(road, new_road),
        dep_edges=_with_added(dep, new_dep),
    )


def retrain(g_mask: CoupledGraph, old_emb, cfg: RetrainConfig):
    """Re-fit GNN weights on the mask graph; returns (embeddings, losses).

    The forward input is fixed at the original embeddings. The loss per
    epoch is the margin link-prediction loss on the mask graph plus
    distance_weight times the mean squared deviation from the originals.
    """
    cfg.validate()
    F = old_emb.Z if hasattr(old_emb, "Z") else np.asarray(old_emb)
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
