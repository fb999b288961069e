"""Interdependent electricity-road network vulnerability toolkit."""

from .graph import CoupledGraph, NORMAL, DAMAGED, INVALID, STATION, JUNCTION
from .netgen import GenConfig, PRESETS, generate, preset_config
from .cascade import (
    AttackReport,
    CascadeOutcome,
    RewardWeights,
    anc,
    damage,
    gcc,
    power,
    sigma,
)
from .embed import EmbedConfig, EmbeddingMatrix, random_embeddings, train_coupled
from .agent import AgentConfig, QNetParams, greedy_attack
from .transfer import MaskSpec, RetrainConfig, mask_graph, retrain, transfer_attack
from .harness import ExperimentPlan, emit_curves, run_plan

__version__ = "0.1.0"
