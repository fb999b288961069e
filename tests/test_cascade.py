import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infranet
from infranet.agent import AgentConfig, AgentError
from infranet.baselines import BaselineError, GdmConfig
from infranet.cascade import (
    AttackEnv,
    CascadeError,
    RewardWeights,
    anc,
    damage,
    gcc,
    power,
    replay_attack,
    run_attack,
    sigma,
)
from infranet.embed import EmbedConfig, EmbedError
from infranet.graph import DAMAGED, INVALID, JUNCTION, NORMAL, STATION, CoupledGraph, GraphError
from infranet.netgen import GenConfig
from infranet.transfer import MaskSpec, RetrainConfig, TransferError

from conftest import (
    oracle_gcc,
    oracle_power,
    oracle_sigma,
    random_coupled,
    reward,
    reward_from_outcome,
)


def test_damage_root_kills_tree(toy_chain):
    out = damage(toy_chain, 0)
    assert out.newly_invalid == {1, 2, 3}
    assert out.power_before - out.power_after == 100.0
    assert toy_chain.state[0] == DAMAGED
    assert all(toy_chain.state[v] == INVALID for v in (1, 2, 3))


def test_damage_leaf_junction_no_propagation():
    g = CoupledGraph(kind=[JUNCTION] * 9, level=[0] * 9, load=[0.0] * 9,
                     elec_edges=[],
                     road_edges=[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
                                 (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)],
                     dep_edges=[])
    out = damage(g, 8)
    assert out.newly_invalid == set()
    assert out.power_after == out.power_before


def test_damage_non_normal_errors(toy_chain):
    damage(toy_chain, 1)
    with pytest.raises(CascadeError, match="not Normal"):
        damage(toy_chain, 2)


def test_power_simple_sum():
    g = CoupledGraph(
        kind=[STATION, STATION, STATION], level=[220, 10, 10],
        load=[0.0, 100.0, 50.0], elec_edges=[],
        road_edges=[], dep_edges=[],
    )
    # parentless 10kV stations are unsupplied; attach them under the root
    g = CoupledGraph(
        kind=[STATION, STATION, STATION, STATION], level=[220, 110, 10, 10],
        load=[0.0, 0.0, 100.0, 50.0], elec_edges=[(0, 1), (1, 2), (1, 3)],
        road_edges=[], dep_edges=[],
    )
    assert power(g) == 150.0
    g.state[0] = DAMAGED
    assert power(g) == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_power_and_invalid_match_bfs_oracle(seed):
    g = random_coupled(seed)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(3):
        normal = np.flatnonzero(g.state == NORMAL)
        stations = [v for v in normal if g.kind[v] == STATION]
        if not stations:
            break
        v = int(rng.choice(stations))
        out = damage(g, v)
        assert out.power_after == oracle_power(g)
        # equivalence: power drop equals the lost 10kV loads
        lost = [u for u in (out.newly_invalid | {v}) if g.level[u] == 10]
        assert out.power_before - out.power_after == pytest.approx(
            sum(float(g.load[u]) for u in lost))


def test_sigma_triangle_and_split():
    g = CoupledGraph(kind=[JUNCTION] * 3, level=[0] * 3, load=[0.0] * 3,
                     elec_edges=[], road_edges=[(0, 1), (1, 2), (0, 2)],
                     dep_edges=[])
    assert sigma(g) == 3.0
    g2 = CoupledGraph(kind=[JUNCTION] * 5, level=[0] * 5, load=[0.0] * 5,
                      elec_edges=[], road_edges=[(0, 1), (1, 2), (3, 4)],
                      dep_edges=[])
    assert sigma(g2) == 4.0  # components {3,2} -> 3 + 1


def test_gcc_path_and_empty():
    g = CoupledGraph(kind=[JUNCTION] * 10, level=[0] * 10, load=[0.0] * 10,
                     elec_edges=[], road_edges=[(i, i + 1) for i in range(9)],
                     dep_edges=[])
    assert gcc(g) == 10
    g.state[:] = DAMAGED
    assert gcc(g) == 0


@pytest.mark.parametrize("seed", range(20))
def test_sigma_gcc_match_component_oracle(seed):
    g = random_coupled(seed)
    rng = np.random.default_rng(seed)
    for v in rng.permutation(g.n)[:5]:
        if g.state[v] == NORMAL:
            damage(g, int(v))
        assert sigma(g) == oracle_sigma(g)
        assert gcc(g) == oracle_gcc(g)


def test_anc_values():
    assert anc([4.0, 4.0], 4.0) == 1.0
    assert anc([0.0, 0.0], 4.0) == 0.0
    assert anc([4.0, 2.0], 4.0) == 0.75
    with pytest.raises(CascadeError):
        anc([], 4.0)
    for sigma0 in (0.0, -4.0):
        with pytest.raises(CascadeError, match="^sigma0 must be positive$"):
            anc([4.0], sigma0)


def test_reward_isolated_junction():
    g = CoupledGraph(kind=[JUNCTION, JUNCTION], level=[0, 0], load=[0.0, 0.0],
                     elec_edges=[], road_edges=[], dep_edges=[])
    w = RewardWeights(a_e=0.0, a_r=1.0)
    assert reward(g, 0, w) == 0.0


def test_reward_chain_power_only(toy_chain):
    w = RewardWeights(a_e=1.0, a_r=0.0)
    assert reward(toy_chain, 0, w) == 100.0


@pytest.mark.parametrize("seed", range(10))
def test_reward_matches_metric_oracles(seed):
    g = random_coupled(seed)
    w = RewardWeights(a_e=1.0, a_r=1.0)
    rng = np.random.default_rng(seed)
    v = int(rng.integers(0, g.n))
    p0, s0 = oracle_power(g), oracle_sigma(g)
    out = damage(g, v)
    r = reward_from_outcome(out, g, w)
    expected = (p0 - oracle_power(g)) * (g.kind[v] == STATION) + (s0 - oracle_sigma(g))
    assert r == pytest.approx(float(expected))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_monotone_along_random_trajectories(seed):
    g = random_coupled(seed % 50)
    rng = np.random.default_rng(seed)
    p_prev, s_prev, g_prev = power(g), sigma(g), gcc(g)
    for v in rng.permutation(g.n)[:8]:
        if g.state[v] != NORMAL:
            continue
        damage(g, int(v))
        p, s, c = power(g), sigma(g), gcc(g)
        assert p <= p_prev and s <= s_prev and c <= g_prev
        p_prev, s_prev, g_prev = p, s, c


def test_cascade_fixed_point(toy_chain):
    out = damage(toy_chain, 0)
    # propagation reached a fixed point: no Normal node depends on a dead one
    for s, j in toy_chain.dep_edges:
        if toy_chain.state[s] != NORMAL:
            assert toy_chain.state[j] != NORMAL
    for _, c in toy_chain.elec_edges:
        p = toy_chain.elec_parent[c]
        if toy_chain.state[p] != NORMAL:
            assert toy_chain.state[c] != NORMAL


def test_reward_nonnegative_with_nonnegative_weights():
    for seed in range(5):
        g = random_coupled(seed)
        w = RewardWeights(a_e=1.0, a_r=1.0)
        rng = np.random.default_rng(seed)
        for v in rng.permutation(g.n)[:4]:
            if g.state[v] == NORMAL:
                assert reward(g, int(v), w) >= 0.0


def test_run_attack_report_shape(toy_chain):
    w = RewardWeights.normalized(toy_chain)
    rep = replay_attack(toy_chain, [0, 4], w)
    assert rep.budget == 2
    assert len(rep.power) == 3
    assert rep.power[0] == 100.0
    assert rep.anc[0] == 1.0
    assert rep.cum_reward[-1] == pytest.approx(sum(rep.reward))
    # damaged chain: power drops to zero, junction 3 invalid
    assert rep.power[1] == 0.0


def test_run_attack_noop_on_dead_node(toy_chain):
    w = RewardWeights.normalized(toy_chain)
    rep = replay_attack(toy_chain, [0, 2], w)  # node 2 died in step 1
    assert rep.reward[2] == 0.0
    assert rep.power[2] == rep.power[1]


def test_report_csv_columns(tmp_path, toy_chain):
    w = RewardWeights.normalized(toy_chain)
    rep = replay_attack(toy_chain, [0], w)
    path = tmp_path / "r.csv"
    rep.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,node,power,sigma,gcc,anc,reward,cum_reward"
    assert len(lines) == 3


def test_replay_rejects_node_ids_outside_the_graph(toy_chain):
    w = RewardWeights()
    with pytest.raises(CascadeError, match=r"step 1: node id 6 out of range \[0,6\)"):
        replay_attack(toy_chain, [0, 6], w)
    # a negative id is not read as counting from the end
    with pytest.raises(CascadeError, match=r"step 0: node id -1 out of range \[0,6\)"):
        replay_attack(toy_chain, [-1], w)
    assert replay_attack(toy_chain, [5], w).nodes == [5]


@pytest.mark.parametrize("bad", [1.7, True, np.float64(5.2), np.bool_(True), 2.0, "3"])
def test_every_entry_point_refuses_a_node_id_that_is_not_an_integer(toy_chain, bad):
    # no id is rounded or read as 0/1: floats, bools and strings fail alike
    with pytest.raises(CascadeError, match=r"^step 1: node id .* is not an integer$"):
        replay_attack(toy_chain, [5, bad, 4], RewardWeights())
    with pytest.raises(CascadeError, match=r"^step 0: node id .* is not an integer$"):
        run_attack(toy_chain, lambda graph, k: bad, 1, RewardWeights())
    with pytest.raises(CascadeError, match=r"^node id .* is not an integer$"):
        AttackEnv(toy_chain, RewardWeights()).step(bad)
    with pytest.raises(CascadeError, match=r"^node id .* is not an integer$"):
        damage(toy_chain, bad)
    assert np.all(toy_chain.state == NORMAL)


def test_numpy_integer_node_ids_are_plain_ints_in_the_report(toy_chain):
    rep = replay_attack(toy_chain, [np.int32(5), np.uint8(4)], RewardWeights())
    assert rep.nodes == [5, 4] and all(type(v) is int for v in rep.nodes)
    assert type(damage(toy_chain, np.int64(3)).node) is int


@pytest.mark.parametrize("a_e, a_r", [(float("nan"), 1.0), (1.0, float("inf")),
                                      (-1.0, 2.0), (0.0, 0.0)])
def test_reward_weights_must_be_finite_nonnegative(a_e, a_r):
    with pytest.raises(CascadeError, match="weights must be nonnegative and finite"):
        RewardWeights(a_e=a_e, a_r=a_r)


# every config class and the error its module raises
CONFIGS = {AgentConfig: AgentError, EmbedConfig: EmbedError, GdmConfig: BaselineError,
           RetrainConfig: TransferError, MaskSpec: TransferError, GenConfig: GraphError,
           RewardWeights: CascadeError}
# the float fields with no upper bound in their range rule
UNBOUNDED = {(EmbedConfig, "margin"), (EmbedConfig, "l2"), (EmbedConfig, "lr"),
             (AgentConfig, "lr"), (GdmConfig, "lr"), (RetrainConfig, "lr"),
             (RetrainConfig, "distance_weight")}


def config_fields(kind):
    """(class, field name) of every config field whose default is a `kind`."""
    return [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
            for cls in CONFIGS for f in dataclasses.fields(cls) if type(f.default) is kind]


def test_config_table_is_every_frozen_dataclass_of_the_package():
    found = set()
    for info in pkgutil.iter_modules(infranet.__path__):
        module = importlib.import_module(f"infranet.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                  and obj.__dataclass_params__.frozen and obj.__module__ == module.__name__}
    assert found == set(CONFIGS)
    assert UNBOUNDED <= {tuple(p.values) for p in config_fields(float)}


@pytest.mark.parametrize("value", [True, "x"])
@pytest.mark.parametrize("cls, name", config_fields(int) + config_fields(float))
def test_config_rejects_a_wrong_type_when_built(cls, name, value):
    message = rf"^{name} must be (an integer|a number), got {value!r}$"
    with pytest.raises(CONFIGS[cls], match=message):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", config_fields(int))
def test_config_int_field_rejects_a_fraction(cls, name):
    with pytest.raises(CONFIGS[cls], match=rf"^{name} must be an integer, got 2.5$"):
        cls(**{name: 2.5})
    cls(**{name: np.int64(getattr(cls(), name))})


@pytest.mark.parametrize("cls, name", config_fields(float))
def test_config_float_field_rejects_infinity(cls, name):
    # a bounded field's range rule rejects inf; RewardWeights' rule names both fields
    message = (f"^{name} must be finite, got inf$" if (cls, name) in UNBOUNDED
               else f"^({name}|weights) must ")
    with pytest.raises(CONFIGS[cls], match=message):
        cls(**{name: float("inf")})
    cls(**{name: np.float64(getattr(cls(), name))})
