import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infranet.baselines import (
    BaselineError,
    GdmConfig,
    ci_attack,
    ci_scores,
    de_attack,
    de_ranking,
    gdm_attack,
    gdm_labels,
    gdm_scores,
    random_attack,
)
from infranet.cascade import AttackEnv, RewardWeights, damage
from infranet.embed import EmbeddingMatrix, random_embeddings
from infranet.graph import DAMAGED, JUNCTION, NORMAL, STATION, CoupledGraph
from infranet.netgen import generate, preset_config

from conftest import (
    assert_same_document,
    oracle_ci,
    oracle_degree,
    random_coupled,
    reference_run_attack,
)


def star_graph(k=5):
    """Junction 0 joined to junctions 1..k."""
    n = k + 1
    return CoupledGraph(kind=[JUNCTION] * n, level=[0] * n, load=[0.0] * n,
                        elec_edges=[], road_edges=[(0, i) for i in range(1, n)],
                        dep_edges=[])


def test_de_ranking_star():
    g = star_graph(5)
    order = de_ranking(g)
    assert order[0] == 0
    # remaining degree-1 nodes in id order
    assert list(order[1:]) == [1, 2, 3, 4, 5]


def test_de_ranking_matches_degree_oracle():
    for seed in range(10):
        g = random_coupled(seed)
        order = de_ranking(g)
        degs = [oracle_degree(g, v) for v in range(g.n)]
        ranked = sorted(range(g.n), key=lambda v: (-degs[v], v))
        assert list(order) == ranked


def test_de_attack_static_order(toy_chain):
    rep = de_attack(toy_chain, 3)
    assert rep.method == "de"
    assert rep.nodes == list(de_ranking(toy_chain)[:3])


def test_ci_scores_star_and_path():
    g = star_graph(4)
    s = ci_scores(g)
    # center: (4-1) * sum of (1-1) over 4 leaves = 0; leaves: 0 * 3 = 0
    assert s[0] == 0.0 and s[1] == 0.0
    path = CoupledGraph(kind=[JUNCTION] * 5, level=[0] * 5, load=[0.0] * 5,
                        elec_edges=[], road_edges=[(i, i + 1) for i in range(4)],
                        dep_edges=[])
    s = ci_scores(path)
    # middle node: (2-1) * ((2-1)+(2-1)) = 2
    assert s[2] == 2.0
    assert s[0] == 0.0  # endpoint degree 1


def assert_ci_matches_oracle(g, radius):
    s = ci_scores(g, radius)
    want = oracle_ci(g, radius)
    for v in range(g.n):
        if v in want:
            assert s[v] == want[v], (v, radius)
        else:
            assert np.isinf(s[v]) and s[v] < 0


def test_ci_scores_match_oracle():
    for seed in range(8):
        for damaged in (0, 2, 8):
            g = random_coupled(seed)
            rng = np.random.default_rng(seed)
            for v in rng.permutation(g.n)[:damaged]:
                if g.state[v] == 0:
                    damage(g, int(v))
            for radius in (1, 2, 3):
                assert_ci_matches_oracle(g, radius)


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 39), seed=st.integers(0, 10_000), radius=st.integers(1, 3))
def test_ci_scores_match_oracle_along_env_walk(index, seed, radius):
    g = random_coupled(index)
    env = AttackEnv(g, RewardWeights())
    assert_ci_matches_oracle(env.graph, radius)
    for v in np.random.default_rng(seed).permutation(g.n)[:10]:
        if env.state[v] == NORMAL:
            env.step(int(v))
            assert_ci_matches_oracle(env.graph, radius)


def test_ci_scores_exact_boundary_on_a_path():
    # path 0-1-2-3-4-5: d - 1 is 0 at the ends and 1 inside
    path = CoupledGraph(kind=[JUNCTION] * 6, level=[0] * 6, load=[0.0] * 6,
                        elec_edges=[], road_edges=[(i, i + 1) for i in range(5)],
                        dep_edges=[])
    assert ci_scores(path, 2).tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    # only the nodes at exactly 3 hops count: 1 sees 4, 2 sees only the end 5
    assert ci_scores(path, 3).tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]
    # every pair 4 hops apart includes an end of the path, where d - 1 = 0
    assert ci_scores(path, 4).tolist() == [0.0] * 6


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_ci_scores_without_alive_edges(radius):
    edgeless = CoupledGraph(kind=[JUNCTION] * 3, level=[0] * 3, load=[0.0] * 3,
                            elec_edges=[], road_edges=[], dep_edges=[])
    # an isolated node: (0-1) * (empty sum) = 0
    assert ci_scores(edgeless, radius).tolist() == [0.0] * 3
    g = star_graph(3)
    g.state[0] = DAMAGED     # the hub: every edge is dead
    assert ci_scores(g, radius).tolist() == [-np.inf, 0.0, 0.0, 0.0]
    g.state[:] = DAMAGED
    assert ci_scores(g, radius).tolist() == [-np.inf] * 4


@pytest.mark.parametrize("radius", [1, 2])
def test_desk_ci_attack_equals_oracle_policy(radius):
    g = generate(preset_config("desk", seed=0))
    w = RewardWeights.normalized(g)

    def oracle_argmax(env, k):
        scores = oracle_ci(env, radius)
        return max(sorted(scores), key=scores.__getitem__)   # lowest id on ties

    rep = ci_attack(g, 10, radius=radius, weights=w)
    ref = reference_run_attack(g, oracle_argmax, 10, w, method="ci")
    assert list(rep.rows()) == list(ref.rows())


def test_ci_scores_bad_radius(toy_chain):
    with pytest.raises(BaselineError):
        ci_scores(toy_chain, radius=0)


def test_ci_attack_rescores_each_step():
    g = random_coupled(3)
    rep = ci_attack(g, 4)
    assert rep.method == "ci"
    assert len(set(rep.nodes)) == 4
    # each pick was the argmax of the CI scores on the then-alive view
    env = g.fork()
    for v in rep.nodes:
        scores = ci_scores(env)
        assert scores[v] == scores.max()
        damage(env, v)


def test_gdm_labels_quantile_split():
    g = random_coupled(1)
    cfg = GdmConfig(sample_count=50, positive_quantile=0.2, seed=0)
    w = RewardWeights.normalized(g)
    nodes, labels, rewards = gdm_labels(g, cfg, w)
    assert len(nodes) == min(50, g.n)
    pos = labels == 1.0
    # every positive reward >= every negative reward
    assert rewards[pos].min() >= rewards[~pos].max()
    assert 0 < pos.sum() < len(labels)


def test_gdm_labels_ties_at_the_cut():
    # on the desk preset most single-node damages tie at the minimum reward,
    # so the quantile cut equals the minimum and ">= cut" is one class
    g = generate(preset_config("desk", seed=0))
    w = RewardWeights.normalized(g)
    nodes, labels, rewards = gdm_labels(g, GdmConfig(sample_count=100, seed=0), w)
    cut = np.quantile(rewards, 0.8)
    assert cut == rewards.min()
    assert np.all(rewards >= cut)
    np.testing.assert_array_equal(labels, (rewards > cut).astype(np.float64))
    assert 0 < labels.sum() < len(labels)


def test_gdm_labels_all_tied_is_degenerate():
    g = CoupledGraph(kind=[JUNCTION] * 4, level=[0] * 4, load=[0.0] * 4,
                     elec_edges=[], road_edges=[], dep_edges=[])
    with pytest.raises(BaselineError, match="degenerate"):
        gdm_labels(g, GdmConfig(sample_count=4), RewardWeights())


def test_gdm_labels_do_not_mutate_graph():
    g = random_coupled(2)
    before = g.state.copy()
    gdm_labels(g, GdmConfig(sample_count=30), RewardWeights.normalized(g))
    np.testing.assert_array_equal(g.state, before)


def test_gdm_config_validation():
    with pytest.raises(BaselineError):
        GdmConfig(positive_quantile=0.0)
    with pytest.raises(BaselineError):
        GdmConfig(sample_count=1)


@pytest.mark.parametrize("epochs, message", [(20, "GDM training diverged at epoch 1"),
                                             (1, "GDM scores are not finite")])
def test_gdm_refuses_a_diverging_net(epochs, message):
    # all-NaN scores once ranked the desk nodes in id order and attacked nodes 0-4;
    # after one epoch the weights are finite but the scores overflow
    g = generate(preset_config("desk", seed=0))
    emb = random_embeddings(g, 16, 0)
    with np.errstate(all="ignore"), pytest.raises(BaselineError, match=message):
        gdm_attack(g, emb, 5, GdmConfig(lr=1e300, epochs=epochs))


def test_gdm_scores_separate_planted_signal():
    # embeddings carry the label directly in one coordinate, so the MLP must
    # rank high-reward nodes above the rest
    g = random_coupled(4)
    w = RewardWeights.normalized(g)
    cfg = GdmConfig(sample_count=g.n, positive_quantile=0.25, seed=0,
                    epochs=500, lr=0.5)
    nodes, labels, _ = gdm_labels(g, cfg, w)
    Z = np.zeros((3, g.n))
    rng = np.random.default_rng(0)
    Z[2] = rng.normal(size=g.n) * 0.01
    Z[0, nodes] = 2.0 * labels - 1.0
    scores = gdm_scores(g, EmbeddingMatrix(Z), cfg, w)
    pos = nodes[labels == 1.0]
    neg = nodes[labels == 0.0]
    assert scores[pos].min() > scores[neg].max()


def test_gdm_attack_ranked_once():
    g = random_coupled(5)
    emb = random_embeddings(g, 6, 0)
    rep = gdm_attack(g, emb, 3)
    assert rep.method == "gdm"
    w = RewardWeights.normalized(g)
    scores = gdm_scores(g, emb, GdmConfig(), w)
    order = np.lexsort((np.arange(g.n), -scores))[:3]
    assert rep.nodes == list(order)


def test_random_attack_determinism_and_spread():
    g = random_coupled(6)
    a = random_attack(g, 5, seed=1)
    b = random_attack(g, 5, seed=1)
    c = random_attack(g, 5, seed=2)
    assert a.nodes == b.nodes
    assert a.nodes != c.nodes
    assert a.method == "random"
    assert len(set(a.nodes)) == 5


def test_random_attack_full_budget_is_permutation():
    g = random_coupled(7)
    rep = random_attack(g, g.n, seed=0)
    assert sorted(rep.nodes) == list(range(g.n))
    # everything dead at the end
    assert rep.power[-1] == 0.0 and rep.sigma[-1] == 0.0


def test_budget_guard(toy_chain):
    with pytest.raises(BaselineError):
        de_attack(toy_chain, toy_chain.n + 1)
    with pytest.raises(BaselineError):
        random_attack(toy_chain, toy_chain.n + 1)


def test_attacks_leave_input_graph_untouched():
    g = random_coupled(5)
    before = g.to_json()
    de_attack(g, 3)
    ci_attack(g, 3)
    random_attack(g, 3)
    gdm_attack(g, random_embeddings(g, 4, 0), 3)
    assert_same_document(g.to_json(), before)


@pytest.mark.parametrize("budget", [0, -2])
def test_budget_below_one_rejected(toy_chain, budget):
    # a negative budget once sliced a ranking from its end: de_attack(g, -2)
    # replayed every node but the last two
    emb = random_embeddings(toy_chain, 4, 0)
    for attack in (lambda: de_attack(toy_chain, budget),
                   lambda: ci_attack(toy_chain, budget),
                   lambda: random_attack(toy_chain, budget),
                   lambda: gdm_attack(toy_chain, emb, budget)):
        with pytest.raises(BaselineError, match=f"budget must be >= 1, got {budget}"):
            attack()


def test_ci_scores_beyond_the_farthest_node():
    # no node is 10**9 hops away: every boundary sum is empty, and the
    # breadth-first expansion stops once its ring is
    g = random_coupled(3)
    assert ci_scores(g, 10**9).tolist() == ci_scores(g, g.n).tolist()
    assert set(ci_scores(g, g.n).tolist()) <= {0.0}
