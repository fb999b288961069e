"""AttackEnv and the component labelling, checked against the from-scratch
path: the BFS oracles, damage() on a parallel fork, and the old episode loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infranet import agent, baselines, cascade, transfer
from infranet.agent import AgentConfig, QNetParams
from infranet.cascade import (
    AttackEnv,
    CascadeError,
    RewardWeights,
    _component_labels,
    damage,
    gcc,
    power,
    sigma,
)
from infranet.embed import random_embeddings
from infranet.graph import DAMAGED, INVALID, JUNCTION, NORMAL, STATION, CoupledGraph
from infranet.netgen import generate, preset_config

from conftest import (
    make_toy_chain,
    oracle_gcc,
    oracle_power,
    oracle_propagate,
    oracle_sigma,
    random_coupled,
    reference_run_attack,
    reward_from_outcome,
)


def road_graph(n, edges):
    return CoupledGraph(kind=[JUNCTION] * n, level=[0] * n, load=[0.0] * n,
                        elec_edges=[], road_edges=edges, dep_edges=[])


def toy_forest():
    """Two 220kV trees, one with a parentless 110kV subtree, lights on a ring."""
    kind = [STATION] * 9 + [JUNCTION] * 6
    level = [220, 110, 10, 10, 220, 110, 10, 110, 10] + [0] * 6
    load = [0, 0, 30.0, 70.0, 0, 0, 50.0, 0, 90.0] + [0.0] * 6
    ring = [(9 + i, 9 + (i + 1) % 6) for i in range(6)] + [(9, 12)]
    return CoupledGraph(kind=kind, level=level, load=load,
                        elec_edges=[(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (7, 8)],
                        road_edges=ring,
                        dep_edges=[(2, 9), (3, 11), (6, 13)])


TOYS = (
    make_toy_chain,
    toy_forest,
    lambda: road_graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
                           (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)]),
)
RANDOM_GRAPHS = 50


def graph_for(index):
    if index < RANDOM_GRAPHS:
        return random_coupled(index)
    return TOYS[index - RANDOM_GRAPHS]()


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, RANDOM_GRAPHS + len(TOYS) - 1),
       seed=st.integers(0, 10_000),
       a_e=st.floats(0.0, 2.0), a_r=st.floats(0.01, 2.0))
def test_env_matches_oracles_and_damage(index, seed, a_e, a_r):
    g = graph_for(index)
    w = RewardWeights(a_e=a_e, a_r=a_r)
    env = AttackEnv(g, w)
    rng = np.random.default_rng(seed)
    for _ in range(2):      # the second episode runs after a reset
        env.reset()
        ref = g.fork()
        assert (env.power, env.sigma, env.gcc) == (
            oracle_power(ref), oracle_sigma(ref), oracle_gcc(ref))
        for v in rng.permutation(g.n)[:12]:
            if env.state[v] != NORMAL:
                continue
            r = env.step(v)
            out = damage(ref, int(v))
            np.testing.assert_array_equal(env.state, ref.state)
            assert env.power == oracle_power(env.graph)
            assert env.sigma == oracle_sigma(env.graph)
            assert env.gcc == oracle_gcc(env.graph)
            assert r == reward_from_outcome(out, ref, w)
    np.testing.assert_array_equal(g.state, np.zeros(g.n, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, RANDOM_GRAPHS + len(TOYS) - 1),
       seed=st.integers(0, 10_000),
       normal=st.floats(0.3, 0.95))
def test_power_and_damage_match_oracles_in_any_state(index, seed, normal):
    """States no cascade reaches: a Normal node below a lost one, a Normal
    light of a lost station. Power and the cascade rules still hold."""
    g = graph_for(index)
    rng = np.random.default_rng(seed)
    lost = (1.0 - normal) / 2
    g.state[:] = rng.choice([NORMAL, DAMAGED, INVALID], size=g.n, p=[normal, lost, lost])
    assert power(g) == oracle_power(g)
    for _ in range(3):
        candidates = np.flatnonzero(g.state == NORMAL)
        if len(candidates) == 0:
            break
        v = int(rng.choice(candidates))
        ref = g.fork()
        ref.state[:] = g.state
        out = damage(g, v)
        assert out.newly_invalid == oracle_propagate(ref, v)
        np.testing.assert_array_equal(g.state, ref.state)
        assert out.power_after == power(g) == oracle_power(g)


def test_env_labels_only_when_a_junction_dies(monkeypatch):
    g = toy_forest()
    env = AttackEnv(g, RewardWeights())
    intact = (env.power, env.sigma, env.gcc)
    labellings = []
    real = cascade._road_metrics
    monkeypatch.setattr(cascade, "_road_metrics",
                        lambda graph: labellings.append(1) or real(graph))
    env.step(4)             # its subtree feeds one light
    env.step(7)             # station 8 below it feeds no light
    assert len(labellings) == 1
    env.step(10)
    assert len(labellings) == 2
    env.reset()
    assert (env.power, env.sigma, env.gcc) == intact
    assert np.all(env.state == NORMAL) and len(labellings) == 2


def test_env_step_errors():
    env = AttackEnv(make_toy_chain(), RewardWeights())
    with pytest.raises(CascadeError, match="out of range"):
        env.step(6)
    env.step(1)
    with pytest.raises(CascadeError, match="not Normal"):
        env.step(2)


def test_env_power_drop_is_fed_load():
    g = toy_forest()
    env = AttackEnv(g, RewardWeights(a_e=1.0, a_r=0.0))
    assert env.power == 30.0 + 70.0 + 50.0     # station 8 hangs off a 110kV root
    r = env.step(8)
    assert r == 0.0 and env.power == 150.0
    r = env.step(1)
    assert r == 100.0 and set(np.flatnonzero(env.state == INVALID)) == {2, 3, 9, 11}


# -- labelling cases --------------------------------------------------------

def label_oracle(n, edges):
    """Smallest id of each node's component, by repeated relaxation."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(label[u], label[v])
            for x in (u, v):
                if label[x] != low:
                    label[x], changed = low, True
    return label


@pytest.mark.parametrize("n,edges", [
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    (5, [(3, 4), (2, 3), (1, 2), (0, 1)]),
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]),
    (7, [(5, 6), (1, 5), (0, 2), (3, 4)]),
    (1, []),
    (0, []),
])
def test_component_labels_are_component_minima(n, edges):
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    assert _component_labels(n, u, v).tolist() == label_oracle(n, edges)


def test_labels_path():
    g = road_graph(5, [(i, i + 1) for i in range(4)])
    assert (sigma(g), gcc(g)) == (10.0, 5)
    g.state[2] = DAMAGED
    assert (sigma(g), gcc(g)) == (2.0, 2)


def test_labels_ring_with_chord():
    g = road_graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    assert (sigma(g), gcc(g)) == (15.0, 6)
    g.state[[1, 4]] = DAMAGED        # the chord keeps 0, 2, 3, 5 together
    assert (sigma(g), gcc(g)) == (6.0, 4)
    g.state[:] = NORMAL
    g.state[[0, 3]] = DAMAGED        # the chord's ends split the ring in two
    assert (sigma(g), gcc(g)) == (2.0, 2)


def test_labels_star_hub_killed():
    g = road_graph(6, [(0, i) for i in range(1, 6)])
    assert (sigma(g), gcc(g)) == (15.0, 6)
    g.state[0] = DAMAGED
    assert (sigma(g), gcc(g)) == (0.0, 1)


def test_labels_empty_view():
    g = CoupledGraph(kind=[STATION, STATION], level=[220, 110], load=[0.0, 0.0],
                     elec_edges=[(0, 1)], road_edges=[], dep_edges=[])
    assert (sigma(g), gcc(g)) == (0.0, 0)
    env = AttackEnv(g, RewardWeights())
    assert env.step(0) == 0.0
    assert env.state.tolist() == [DAMAGED, INVALID]
    assert (env.sigma, env.gcc) == (0.0, 0)


def test_labels_all_dead_view():
    g = road_graph(4, [(0, 1), (1, 2), (2, 3)])
    g.state[:] = DAMAGED
    assert (sigma(g), gcc(g)) == (0.0, 0)
    env = AttackEnv(g, RewardWeights())
    for v in range(4):
        env.step(v)
    assert (env.sigma, env.gcc) == (0.0, 0)


# -- the env-based attack loop against the from-scratch one -----------------

@pytest.fixture(scope="module")
def desk():
    g = generate(preset_config("desk", seed=0))
    return g, RewardWeights.normalized(g)


def greedy(g, w):
    Z = random_embeddings(g, 8, 0)
    params = QNetParams.init(8, np.random.default_rng(0))
    return agent.greedy_attack(g, Z, params, 10, w)


@pytest.mark.parametrize("method", [
    lambda g, w: baselines.de_attack(g, 10, w),
    lambda g, w: baselines.ci_attack(g, 10, weights=w),
    lambda g, w: baselines.random_attack(g, 20, seed=3, weights=w),
    greedy,
], ids=["de", "ci", "random", "greedy"])
def test_reports_equal_reference_loop(method, desk, monkeypatch):
    g, w = desk
    new = method(g, w)
    monkeypatch.setattr(cascade, "run_attack", reference_run_attack)
    ref = method(g, w)
    for name in ("nodes", "power", "sigma", "gcc", "anc", "reward", "cum_reward"):
        assert getattr(new, name) == getattr(ref, name), name
    assert list(new.rows()) == list(ref.rows())


# -- the default weights, resolved only in AttackEnv --------------------------

@pytest.mark.parametrize("seed", range(10))
def test_normalized_weights_are_the_env_default(seed):
    g = random_coupled(seed)
    p0, s0 = oracle_power(g), oracle_sigma(g)
    w = RewardWeights(a_e=1.0 / p0 if p0 > 0 else 0.0, a_r=1.0 / s0 if s0 > 0 else 1.0)
    assert RewardWeights.normalized(g) == AttackEnv(g).weights == w
    # the attack runs on an all-Normal fork, so a damaged graph keeps its weights
    damage(g, int(np.flatnonzero(g.kind == JUNCTION)[0]))
    assert RewardWeights.normalized(g) == AttackEnv(g).weights == w


def test_default_weights_cost_one_normalized_call_and_one_fork(desk, monkeypatch):
    g, w = desk
    calls = {"normalized": 0, "fork": 0}
    normalized, fork = RewardWeights.normalized.__func__, CoupledGraph.fork

    def count_normalized(cls, graph):
        calls["normalized"] += 1
        return normalized(cls, graph)

    def count_fork(graph):
        calls["fork"] += 1
        return fork(graph)

    monkeypatch.setattr(RewardWeights, "normalized", classmethod(count_normalized))
    monkeypatch.setattr(CoupledGraph, "fork", count_fork)
    assert AttackEnv(g).weights == w
    assert calls == {"normalized": 1, "fork": 1}
    assert RewardWeights.normalized(g) == w
    assert calls == {"normalized": 2, "fork": 1}
    AttackEnv(g, w)
    assert calls == {"normalized": 2, "fork": 2}


@pytest.mark.parametrize("method", [
    lambda g, w: baselines.de_attack(g, 10, w),
    lambda g, w: baselines.ci_attack(g, 10, weights=w),
    lambda g, w: baselines.random_attack(g, 20, seed=3, weights=w),
    lambda g, w: baselines.gdm_attack(g, random_embeddings(g, 8, 0), 10,
                                      baselines.GdmConfig(sample_count=60, epochs=40), w),
    greedy,
    lambda g, w: transfer.transfer_attack(g, random_embeddings(g, 8, 0),
                                          QNetParams.init(8, np.random.default_rng(0)), 10, w),
], ids=["de", "ci", "random", "gdm", "greedy", "transfer"])
def test_default_weights_give_the_normalized_report(method, desk):
    g, w = desk
    assert list(method(g, None).rows()) == list(method(g, w).rows())


def test_default_weights_train_the_normalized_agent(desk):
    g, w = desk
    emb = random_embeddings(g, 4, 0)
    cfg = AgentConfig(budget=5, episodes=8, batch_size=8, buffer_size=64, target_sync=7,
                      seed=1)
    assert cfg.weights is None
    p1, log1 = agent.train(g, emb, cfg)
    p2, log2 = agent.train(g, emb, replace(cfg, weights=w))
    np.testing.assert_array_equal(p1.theta1, p2.theta1)
    np.testing.assert_array_equal(p1.theta2, p2.theta2)
    assert log1 == log2
