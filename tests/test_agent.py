import copy
import re

import numpy as np
import pytest

from infranet import agent, cascade
from infranet.agent import (
    AgentConfig,
    AgentError,
    QNetParams,
    ReplayBuffer,
    greedy_attack,
    node_values,
    pooled_state,
    q_values,
    select_action,
    td_loss,
    train,
)
from infranet.cascade import RewardWeights
from infranet.embed import EmbeddingMatrix, random_embeddings
from infranet.graph import DAMAGED, JUNCTION, NORMAL, CoupledGraph
from infranet.netgen import generate, preset_config

from conftest import (
    central_diff_check,
    oracle_greedy_attack,
    oracle_node_values,
    oracle_pooled_state,
    oracle_q_values,
    oracle_train,
    random_coupled,
    reward,
)


def make_batch(rng, B=8, d=4, n=12):
    s = rng.normal(size=(B, d))
    a = rng.integers(0, n, size=B)
    r = rng.normal(size=B)
    s_next = rng.normal(size=(B, d))
    done = rng.random(B) < 0.3
    alive = rng.random((B, n)) < 0.8
    alive[:, 0] = True  # at least one alive per row
    return s, a, r, s_next, done, alive


def test_pooled_state_base_case():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(3, 7))
    np.testing.assert_allclose(pooled_state(Z, []), Z.mean(axis=1))


def test_pooled_state_single_survivor():
    Z = np.array([[1.0, 5.0], [2.0, 6.0]])
    np.testing.assert_allclose(pooled_state(Z, [0]), [5.0, 6.0])


def test_pooled_state_random_removal_matches_mean():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(4, 20))
    removed = [3, 7, 11]
    keep = [v for v in range(20) if v not in removed]
    np.testing.assert_allclose(pooled_state(Z, removed), Z[:, keep].mean(axis=1))


def test_pooled_state_all_removed_errors():
    with pytest.raises(AgentError):
        pooled_state(np.ones((2, 2)), [0, 1])


def removed_sets(n, rng):
    """Removed-id lists that cut the kept rows into every kind of run."""
    sets = [[], [0], [n - 1], list(range(1, n)), list(range(n - 1))]
    if n > 4:
        sets += [[n - 1, 0], [1, 2, 3], [n - 3, n - 2, 0], [2, 1, 2]]  # adjacent, a repeat
        sets.append([v for v in range(n) if v != n // 3])   # only the -0.0 node kept
    for _ in range(3):
        k = int(rng.integers(1, n))
        sets.append(rng.choice(n, size=k, replace=False).tolist())
    return sets


@pytest.mark.parametrize("d", [1, 2, 64])
@pytest.mark.parametrize("n", [2, 9, 130, 1488, 15774])   # 1488 = desk, 15774 = paper
def test_pooled_state_matches_mask_mean_bit_for_bit(d, n):
    rng = np.random.default_rng(d * n)
    for order in "CF":
        Z = np.asarray(rng.normal(size=(d, n)), order=order)
        if n > 2:
            Z[:, n // 2] = 0.0      # a dead node's all-zero embedding
        if n > 4:
            Z[:, n // 3] = -0.0     # a kept -0.0 embedding, alone in the last set
        for removed in removed_sets(n, rng):
            want = oracle_pooled_state(Z, removed)
            pool = np.array(Z.T, order="C")
            assert pooled_state(Z, removed, pool).tobytes() == want.tobytes(), removed
            if d > 1:
                assert np.all(pool[removed] == 0.0) and np.all(np.signbit(pool[removed]))
            assert pooled_state(Z, removed).tobytes() == want.tobytes(), removed


@pytest.mark.parametrize("d", [1, 2, 64])
def test_one_pool_serves_two_removed_sets_with_rows_restored_between(d):
    # the way train reuses one pool: the removed list grows one pick at a
    # time, and the episode reset writes the picked rows back from Z
    n = 1488
    rng = np.random.default_rng(d)
    Z = np.asarray(rng.normal(size=(d, n)), order="F")
    Z[:, 7] = 0.0
    fresh = np.array(Z.T, order="C")
    pool = fresh.copy()
    first = [7, *rng.choice(n, size=12, replace=False).tolist()]
    second = [v for v in rng.choice(n, size=12, replace=False).tolist() if v not in first]
    stale = None
    for removed in (first, second):
        for k in range(len(removed) + 1):
            want = oracle_pooled_state(Z, removed[:k])
            assert pooled_state(Z, removed[:k], pool).tobytes() == want.tobytes(), k
        if stale is None:
            stale = pool.copy()
        pool[removed] = Z.T[removed]
        assert pool.tobytes() == fresh.tobytes()
    if d > 1:   # without the restore the first set's rows stay out of the sum
        assert pooled_state(Z, second, stale).tobytes() != want.tobytes()


def test_pooled_state_rejects_ids_out_of_range():
    Z = np.ones((2, 5))
    for removed in ([5], [-1], [0, 7]):
        with pytest.raises(AgentError, match=r"removed node ids must lie in \[0, 5\)"):
            pooled_state(Z, removed)


@pytest.mark.parametrize("d,n", [(1, 7), (2, 9), (6, 130), (16, 1488), (64, 2000)])
def test_buffered_node_values_match_allocating_formula(d, n):
    rng = np.random.default_rng(d + n)
    hidden, out = np.full((2 * d, n), np.nan), np.full((d, n), np.nan)
    for order in "CF":
        Z = np.asarray(rng.normal(size=(d, n)), order=order)
        for _ in range(2):
            params = QNetParams.init(d, rng)
            params.theta1_hat = rng.normal(size=(2 * d, d))
            for target in (False, True):
                got = node_values(Z, params, target, hidden=hidden, out=out)
                assert got is out
                want = oracle_node_values(Z, params, target)
                assert got.tobytes() == want.tobytes()
                assert node_values(Z, params, target).tobytes() == want.tobytes()


@pytest.mark.parametrize("d,n", [(1, 7), (2, 9), (6, 130), (16, 1488), (64, 2000)])
def test_factored_scores_match_reference_bit_for_bit(d, n):
    rng = np.random.default_rng(10 * d + n)
    for order in "CF":
        Z = np.asarray(rng.normal(size=(d, n)), order=order)
        params = QNetParams.init(d, rng)
        values = agent._RunValues(Z, params)
        for _ in range(4):
            s = rng.normal(size=d)
            got = values.scores(s)
            want = (s @ params.theta2) @ np.maximum(params.theta1 @ Z, 0.0)
            assert got.tobytes() == want.tobytes()
            alive = rng.random(n) < 0.7
            alive[rng.integers(0, n)] = True
            assert select_action(got, 0.0, rng, alive) == \
                int(np.argmax(oracle_q_values(Z, s, params, alive)))


def test_train_recomputes_the_reused_online_buffer_after_every_update(monkeypatch):
    # always exploit and update every step: every step but the first reads
    # an online hidden array that the previous step's SGD update made stale
    g = random_coupled(1)
    emb = random_embeddings(g, 5, 2)
    cfg = AgentConfig(budget=4, episodes=6, batch_size=1, buffer_size=8, target_sync=3,
                      eps_start=0.0, eps_end=0.0, lr=0.3, gamma=0.9, seed=4)
    calls = []
    compute = agent.hidden_layer

    def record(Z, params, target=False, out=None):
        calls.append((target, id(out)))
        return compute(Z, params, target, out=out)

    monkeypatch.setattr(agent, "hidden_layer", record)
    params, log = train(g, emb, cfg)
    steps = len(log.episode) * cfg.budget
    online = [c for c in calls if not c[0]]
    targets = [c for c in calls if c[0]]
    assert len(online) == steps
    assert len(targets) == -(-steps // cfg.target_sync)
    assert len({c[1] for c in calls}) == 1                 # one hidden array per run
    # a target pass overwrites that array, so the next exploit recomputes it
    params.theta1_hat = params.theta1 + 1.0
    values = agent._RunValues(emb.Z, params)
    s = emb.Z[:, 0]
    want = (s @ params.theta2) @ np.maximum(params.theta1 @ emb.Z, 0.0)
    calls.clear()
    for read in ("online", "online", "target", "online", "target", "online"):
        if read == "online":
            assert values.scores(s).tobytes() == want.tobytes()
        else:
            values.target_values()
    assert [target for target, _ in calls] == [False, True, False]
    o_params, o_log = oracle_train(g, emb, cfg)
    assert np.array_equal(params.theta1, o_params.theta1)
    assert np.array_equal(params.theta2, o_params.theta2)
    assert log.cum_reward == o_log.cum_reward and log.loss_mean == o_log.loss_mean


def test_q_values_zero_cases():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(3, 5))
    params = QNetParams(theta1=np.zeros((6, 3)), theta2=np.zeros((3, 6)))
    H = agent.hidden_layer(Z, params)
    np.testing.assert_array_equal(q_values(np.ones(3), params, H), np.zeros(5))
    params2 = QNetParams.init(3, rng)
    H2 = agent.hidden_layer(Z, params2)
    np.testing.assert_array_equal(q_values(np.zeros(3), params2, H2), np.zeros(5))


def test_q_values_match_dense_oracle():
    rng = np.random.default_rng(2)
    d, n = 4, 9
    Z = rng.normal(size=(d, n))
    s = rng.normal(size=d)
    params = QNetParams.init(d, rng)
    q = q_values(s, params, agent.hidden_layer(Z, params))
    for v in range(n):
        h = np.maximum(params.theta1 @ Z[:, v], 0.0)
        assert q[v] == pytest.approx(float((params.theta2 @ h) @ s))


def test_q_values_masking():
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(3, 4))
    params = QNetParams.init(3, rng)
    mask = np.array([True, False, True, False])
    q = q_values(rng.normal(size=3), params, agent.hidden_layer(Z, params), alive_mask=mask)
    assert np.isinf(q[1]) and q[1] < 0 and np.isfinite(q[0])


@pytest.mark.parametrize("d", [1, 3, 8])
def test_greedy_attack_scores_equal_training_exploit_scores(d, monkeypatch):
    # both score through q_values, so every greedy pick sees the exploit
    # step's bytes: no near tie can split the two
    g = generate(preset_config("desk", seed=0))
    emb = random_embeddings(g, d, 1)
    params = QNetParams.init(d, np.random.default_rng(d))
    seen = []
    score = agent.q_values

    def record(s, params, hidden, alive_mask=None):
        q = score(s, params, hidden, alive_mask)
        seen.append((s.copy(), alive_mask.copy(), q))
        return q

    monkeypatch.setattr(agent, "q_values", record)
    rep = greedy_attack(g, emb, params, 6)
    monkeypatch.setattr(agent, "q_values", score)
    assert len(seen) == 6
    values = agent._RunValues(emb.Z, params)
    for (s, alive, q), node in zip(seen, rep.nodes):
        exploit = values.scores(s)
        assert np.where(alive, exploit, -np.inf).tobytes() == q.tobytes()
        assert select_action(exploit, 0.0, None, alive) == node


def test_select_action_greedy_and_ties():
    rng = np.random.default_rng(0)
    scores = np.array([1.0, 3.0, 3.0, 2.0])
    alive = np.ones(4, dtype=bool)
    assert select_action(scores, 0.0, rng, alive) == 1  # lowest id among ties
    alive[1] = False
    assert select_action(scores, 0.0, rng, alive) == 2


def test_select_action_uniform_when_eps_one():
    rng = np.random.default_rng(0)
    scores = np.arange(10.0)
    alive = np.ones(10, dtype=bool)
    counts = np.zeros(10)
    for _ in range(5000):
        counts[select_action(scores, 1.0, rng, alive)] += 1
    expected = 500.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square 9 dof, p=0.01 critical value 21.67
    assert chi2 < 21.67


def test_select_action_reads_callable_scores_only_on_exploit():
    # an explore draw never calls the score callable, and the rng ends in
    # the same state as with the precomputed array
    alive = np.array([True, False, True, True, False, True])
    scores = np.array([0.5, 9.0, 2.0, 2.0, 7.0, -1.0])
    for eps in (0.0, 0.3, 0.7, 1.0):
        rng_fn, rng_arr = np.random.default_rng(11), np.random.default_rng(11)
        explored = 0
        for _ in range(200):
            explores = eps > 0 and copy.deepcopy(rng_fn).random() < eps
            calls = []
            a = select_action(lambda: calls.append(1) or scores, eps, rng_fn, alive)
            assert a == select_action(scores, eps, rng_arr, alive)
            assert rng_fn.bit_generator.state == rng_arr.bit_generator.state
            assert len(calls) == (0 if explores else 1)
            explored += explores
        if eps in (0.0, 1.0):
            assert explored == 200 * eps
        else:
            assert 0 < explored < 200


def test_select_action_no_alive_errors():
    with pytest.raises(AgentError):
        select_action(np.ones(3), 0.0, np.random.default_rng(0),
                      np.zeros(3, dtype=bool))


def test_td_loss_zero_when_q_equals_reward():
    # gamma=0 and Q(s,a)=r: engineered with zero params and r=0
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(3, 5))
    params = QNetParams(theta1=np.zeros((6, 3)), theta2=np.zeros((3, 6)))
    s, a, r, s_next, done, alive = make_batch(rng, d=3, n=5)
    r = np.zeros_like(r)
    assert td_loss((s, a, r, s_next, done, alive), Z, params, gamma=0.0) == 0.0


def test_td_loss_single_terminal():
    Z = np.zeros((2, 3))
    params = QNetParams(theta1=np.zeros((4, 2)), theta2=np.zeros((2, 4)))
    batch = (np.ones((1, 2)), np.array([0]), np.array([5.0]),
             np.ones((1, 2)), np.array([True]), np.ones((1, 3), dtype=bool))
    assert td_loss(batch, Z, params, gamma=0.9) == 25.0


def test_td_loss_empty_batch_errors():
    Z = np.zeros((2, 3))
    params = QNetParams.init(2, np.random.default_rng(0))
    batch = (np.zeros((0, 2)), np.array([], dtype=int), np.array([]),
             np.zeros((0, 2)), np.array([], dtype=bool),
             np.zeros((0, 3), dtype=bool))
    with pytest.raises(AgentError):
        td_loss(batch, Z, params, gamma=0.9)


@pytest.mark.parametrize("seed", range(5))
def test_td_targets_match_masked_max_formula(seed):
    rng = np.random.default_rng(seed)
    s, a, r, s_next, done, alive = make_batch(rng, B=16, d=5, n=40)
    alive[:, 0] = rng.random(16) < 0.5
    alive[3] = False                       # no alive next node: target is r
    Y_hat = rng.normal(size=(5, 40))
    next_max = np.where(alive, s_next @ Y_hat, -np.inf).max(axis=1)
    want = np.where(np.isfinite(next_max), next_max, 0.0)
    assert agent.masked_max(s_next, alive, Y_hat).tobytes() == want.tobytes()
    # td_loss's own targets are that max against the target net's node values
    Z = rng.normal(size=(5, 40))
    params = QNetParams.init(5, rng)
    given = agent.masked_max(s_next, alive, oracle_node_values(Z, params, target=True))
    assert (td_loss((s, a, r, s_next, done, alive), Z, params, gamma=0.9)
            == td_loss((s, a, r, None, done, None), Z, params, gamma=0.9, next_max=given))


@pytest.mark.parametrize("seed", range(20))
def test_td_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    n = int(rng.integers(5, 30))
    Z = rng.normal(size=(d, n))
    params = QNetParams.init(d, rng)
    batch = make_batch(rng, B=6, d=d, n=n)
    loss, d1, d2 = td_loss(batch, Z, params, gamma=0.9, want_grad=True)
    loss_fn = lambda: td_loss(batch, Z, params, gamma=0.9)
    checked = central_diff_check(loss_fn, [params.theta1, params.theta2],
                                 [d1, d2], np.random.default_rng(seed + 1))
    assert checked >= 6


def test_replay_buffer_fifo_ring():
    buf = ReplayBuffer(capacity=3, d=2, n_nodes=4)
    for i in range(5):
        buf.push(np.full(2, i), i % 4, float(i), np.full(2, i + 1),
                 False, np.ones(4, dtype=bool))
    assert buf.size == 3
    # oldest surviving rewards are 2,3,4
    assert sorted(buf.r.tolist()) == [2.0, 3.0, 4.0]


def test_replay_buffer_mask_roundtrip():
    # each dead node scores 9, above every alive one, so a misread bit of the
    # packed mask (n = 11 leaves 5 pad bits) moves the cached max
    buf = ReplayBuffer(capacity=2, d=2, n_nodes=11)
    mask = np.array([True, False, True, False, True, True, False, False, True, False, True])
    Y_hat = np.array([np.where(mask, np.arange(11.0) / 2, 9.0), np.zeros(11)])
    buf.push(np.zeros(2), 1, 0.0, np.array([1.0, 0.0]), False, mask)
    buf.push(np.zeros(2), 1, 0.0, np.array([1.0, 0.0]), False, ~mask)
    idx = buf.sample(4, np.random.default_rng(0))
    assert idx.shape == (4,) and set(idx.tolist()) <= {0, 1}
    got = buf.cached_max(np.array([0, 1]), Y_hat)
    assert got.tolist() == [5.0, 9.0]


def test_target_sync_semantics():
    rng = np.random.default_rng(0)
    params = QNetParams.init(3, rng)
    np.testing.assert_array_equal(params.theta1, params.theta1_hat)
    params.theta1 += 1.0
    assert not np.array_equal(params.theta1, params.theta1_hat)
    params.sync_target()
    np.testing.assert_array_equal(params.theta1, params.theta1_hat)


def test_train_zero_episodes_returns_init():
    g = random_coupled(0)
    emb = random_embeddings(g, 4, 0)
    cfg = AgentConfig(budget=2, episodes=0, seed=3, batch_size=2, buffer_size=4)
    params, log = train(g, emb, cfg)
    rng = np.random.default_rng(3)
    expect = QNetParams.init(4, rng)
    np.testing.assert_array_equal(params.theta1, expect.theta1)
    assert log.episode == []


def test_train_deterministic():
    g = random_coupled(1)
    emb = random_embeddings(g, 4, 0)
    cfg = AgentConfig(budget=3, episodes=5, seed=7, batch_size=4, buffer_size=32,
                      lr=0.01)
    p1, l1 = train(g, emb, cfg)
    p2, l2 = train(g, emb, cfg)
    np.testing.assert_array_equal(p1.theta1, p2.theta1)
    np.testing.assert_array_equal(p1.theta2, p2.theta2)
    assert l1.cum_reward == l2.cum_reward


@pytest.fixture(scope="module")
def desk_graph():
    return generate(preset_config("desk", seed=0))


def assert_same_run(got, want):
    (params, log), (o_params, o_log) = got, want
    for key in ("theta1", "theta2", "theta1_hat", "theta2_hat"):
        assert np.array_equal(getattr(params, key), getattr(o_params, key)), key
    for key in ("episode", "cum_reward", "loss_mean", "epsilon"):
        assert getattr(log, key) == getattr(o_log, key), key


def test_replay_buffer_is_sized_to_what_a_run_can_push():
    # 10**12 slots would need terabytes; a run of 5 episodes of 3 steps pushes
    # 15 transitions, and trains bit for bit like a ring of exactly 15
    g = random_coupled(2)
    emb = random_embeddings(g, 4, 0)
    run = dict(budget=3, episodes=5, seed=1, batch_size=4, lr=0.01)
    assert_same_run(train(g, emb, AgentConfig(buffer_size=10**12, **run)),
                    train(g, emb, AgentConfig(buffer_size=15, **run)))


# Configs for the cached-vs-per-step differential: the target syncs many
# times per run, epsilon ends strictly inside (0, 1) so exploit and explore
# steps interleave after SGD updates start, and the batch size is reached
# mid-episode. The learning rates are large enough that the greedy choice
# moves during training, so stale online or target node values change the
# result. The last config exploits from step 0 and syncs every step.
DIFFERENTIAL_CONFIGS = [
    dict(budget=4, episodes=25, batch_size=6, buffer_size=50, target_sync=7,
         eps_end=0.3, eps_decay_steps=40, lr=0.2, gamma=0.9),
    dict(budget=3, episodes=30, batch_size=5, buffer_size=16, target_sync=5,
         eps_start=0.6, eps_end=0.1, lr=0.5, gamma=0.99),
    dict(budget=5, episodes=6, batch_size=3, buffer_size=8, target_sync=1,
         eps_start=0.0, eps_end=0.0, lr=0.05, gamma=0.5),
]


@pytest.mark.parametrize("graph", ["random0", "random1", "random2", "desk"])
@pytest.mark.parametrize("overrides", DIFFERENTIAL_CONFIGS)
def test_cached_node_values_match_per_step_oracle(graph, overrides):
    g = (generate(preset_config("desk", seed=0)) if graph == "desk"
         else random_coupled(int(graph[-1])))
    emb = random_embeddings(g, 6, 3)
    cfg = AgentConfig(seed=5, **overrides)
    assert cfg.episodes * cfg.budget > cfg.target_sync
    params, log = train(g, emb, cfg)
    assert_same_run((params, log), oracle_train(g, emb, cfg))
    assert 0.0 < log.epsilon[-1] < 1.0 or cfg.eps_end == 0.0
    w = RewardWeights.normalized(g)
    rep = greedy_attack(g, emb, params, 8, w)
    o_rep = oracle_greedy_attack(g, emb, params, 8, w)
    for key in ("nodes", "power", "sigma", "gcc", "anc", "reward", "cum_reward"):
        assert getattr(rep, key) == getattr(o_rep, key), key


# The cached TD maxima against the per-step oracle on the desk graph, whose
# n = 1,488 is a multiple of 8: batch sizes from the 1-row product (1) and a
# padded lone stale slot (2) to the default 64; a target period that divides
# the episode length (5) and one that does not (7); embedding widths 3 to 64.
# The buffer wraps in every run.
@pytest.mark.parametrize("d", [3, 16, 64])
@pytest.mark.parametrize("target_sync", [5, 7])
@pytest.mark.parametrize("batch_size", [1, 2, 8, 64])
def test_td_max_cache_matches_per_step_oracle(desk_graph, batch_size, target_sync, d):
    emb = random_embeddings(desk_graph, d, 2)
    cfg = AgentConfig(budget=5, episodes=24, batch_size=batch_size,
                      buffer_size=batch_size + 30, target_sync=target_sync, eps_end=0.3,
                      eps_decay_steps=60, lr=0.1, gamma=0.9, seed=11)
    assert_same_run(train(desk_graph, emb, cfg), oracle_train(desk_graph, emb, cfg))


@pytest.mark.parametrize("batch_size", [1, 4])
def test_td_max_cache_recomputes_an_overwritten_slot(desk_graph, batch_size):
    # the target never syncs, so only a push can make a cached max stale
    emb = random_embeddings(desk_graph, 8, 4)
    cfg = AgentConfig(budget=5, episodes=8, batch_size=batch_size,
                      buffer_size=batch_size + 1, target_sync=1000, eps_end=0.5,
                      lr=0.1, gamma=0.9, seed=12)
    assert_same_run(train(desk_graph, emb, cfg), oracle_train(desk_graph, emb, cfg))


def test_replay_buffer_computes_each_stale_slot_once(monkeypatch):
    products = []
    compute = agent.masked_max

    def record(s_next, alive, Y_hat):
        products.append(s_next[:, 0].tolist())
        return compute(s_next, alive, Y_hat)

    monkeypatch.setattr(agent, "masked_max", record)
    buf = ReplayBuffer(capacity=3, d=2, n_nodes=4)
    Y_hat = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
    alive = np.array([True, True, True, False])
    for k in (1.0, 2.0, 3.0):
        buf.push(np.zeros(2), 0, 0.0, np.array([k, 0.0]), False, alive)
    assert buf.cached_max(np.array([2, 0, 2, 1]), Y_hat).tolist() == [9.0, 3.0, 9.0, 6.0]
    assert buf.cached_max(np.array([1, 2]), Y_hat).tolist() == [6.0, 9.0]
    buf.push(np.zeros(2), 0, 0.0, np.array([-1.0, 0.0]), False, alive)     # into slot 0
    assert buf.cached_max(np.array([0, 1]), Y_hat).tolist() == [-1.0, 6.0]
    buf.fresh[:] = False                                                   # a target sync
    assert buf.cached_max(np.array([2]), Y_hat * 2).tolist() == [18.0]
    assert buf.cached_max(np.array([1, 1]), Y_hat * 2).tolist() == [12.0, 12.0]
    # one product per call with a stale slot; a lone stale slot of a larger
    # batch fills two rows, and a batch of one takes a 1-row product
    assert products == [[1.0, 2.0, 3.0], [-1.0, -1.0], [3.0], [2.0, 2.0]]


def test_td_max_cache_unpacks_only_stale_slots(desk_graph, monkeypatch):
    # A model of the cache kept here: a slot's max goes stale at its push
    # and at every target sync, and is fresh once an SGD step has computed it.
    generation, known = {}, set()
    periods = [[0, 0]]              # per target period: rows unpacked, stale slots sampled
    unpacked = []
    push, sync = ReplayBuffer.push, QNetParams.sync_target
    cached_max, alive = ReplayBuffer.cached_max, ReplayBuffer.alive

    def on_push(self, *args):
        generation[self.head] = generation.get(self.head, 0) + 1
        push(self, *args)

    def on_sync(self):
        known.clear()
        periods.append([0, 0])
        sync(self)

    def on_alive(self, rows):
        unpacked.extend(rows.tolist())
        return alive(self, rows)

    def on_cached_max(self, idx, Y_hat):
        stale = {i for i in idx.tolist() if (i, generation[i]) not in known}
        unpacked.clear()
        out = cached_max(self, idx, Y_hat)
        assert set(unpacked) == stale
        assert len(unpacked) == (2 if len(stale) == 1 < len(idx) else len(stale))
        known.update((i, generation[i]) for i in stale)
        periods[-1][0] += len(set(unpacked))
        periods[-1][1] += len(stale)
        return out

    for name, fn in (("push", on_push), ("alive", on_alive), ("cached_max", on_cached_max)):
        monkeypatch.setattr(ReplayBuffer, name, fn)
    monkeypatch.setattr(QNetParams, "sync_target", on_sync)
    cfg = AgentConfig(budget=10, episodes=20, batch_size=64, buffer_size=150,
                      target_sync=20, lr=0.05, seed=3)
    train(desk_graph, random_embeddings(desk_graph, 16, 1), cfg)
    assert len(periods) == 1 + 1 + 200 // 20          # the sync at init, then one per period
    assert all(rows <= stale for rows, stale in periods)
    sgd_steps = 200 - cfg.batch_size + 1
    assert 0 < sum(rows for rows, _ in periods) < sgd_steps * cfg.batch_size / 4


def test_greedy_attack_deterministic_and_masked():
    g = random_coupled(2)
    emb = random_embeddings(g, 4, 1)
    params = QNetParams.init(4, np.random.default_rng(5))
    w = RewardWeights.normalized(g)
    rep1 = greedy_attack(g, emb, params, 6, w)
    rep2 = greedy_attack(g, emb, params, 6, w)
    assert rep1.nodes == rep2.nodes
    assert len(set(rep1.nodes)) == len(rep1.nodes)
    # masked selection: every chosen node was Normal at its turn, so every
    # step either cascades or removes a junction; metrics never increase
    assert all(a >= b for a, b in zip(rep1.power, rep1.power[1:]))
    assert all(a >= b for a, b in zip(rep1.sigma, rep1.sigma[1:]))


def test_greedy_attack_scale_invariance():
    g = random_coupled(2)
    emb = random_embeddings(g, 4, 1)
    params = QNetParams.init(4, np.random.default_rng(5))
    scaled = QNetParams(theta1=params.theta1.copy(), theta2=3.0 * params.theta2)
    w = RewardWeights.normalized(g)
    assert greedy_attack(g, emb, params, 5, w).nodes == \
        greedy_attack(g, emb, scaled, 5, w).nodes


def test_budget_above_normal_count_errors_before_any_episode(toy_chain, monkeypatch):
    emb = random_embeddings(toy_chain, 4, 0)
    params = QNetParams.init(4, np.random.default_rng(0))
    cfg = AgentConfig(budget=7, episodes=2, batch_size=2, buffer_size=8)
    with pytest.raises(AgentError, match="budget 7 exceeds the 6 Normal nodes"):
        greedy_attack(toy_chain, emb, params, 7)
    # train fails before its environment exists, so before any episode
    monkeypatch.setattr(cascade, "AttackEnv", None)
    with pytest.raises(AgentError, match="budget 7 exceeds the 6 Normal nodes"):
        train(toy_chain, emb, cfg)
    toy_chain.state[5] = DAMAGED
    with pytest.raises(AgentError, match="budget 6 exceeds the 5 Normal nodes"):
        greedy_attack(toy_chain, emb, params, 6)


def test_train_ends_an_episode_when_no_normal_node_is_left(toy_chain, monkeypatch):
    # on the toy chain every episode runs out of Normal nodes before budget 6
    pushes = []
    push = ReplayBuffer.push

    def record(self, s, action, r, s_next, done, next_alive):
        pushes.append((done, bool(next_alive.any())))
        push(self, s, action, r, s_next, done, next_alive)

    monkeypatch.setattr(ReplayBuffer, "push", record)
    emb = random_embeddings(toy_chain, 4, 0)
    cfg = AgentConfig(budget=6, episodes=20, batch_size=4, buffer_size=64, seed=0)
    params, log = train(toy_chain, emb, cfg)
    assert log.episode == list(range(20))
    assert np.all(np.isfinite(log.cum_reward)) and np.all(np.isfinite(log.loss_mean))
    assert sum(done for done, _ in pushes) == 20
    episodes, steps = [], 0
    for done, alive_left in pushes:
        steps += 1
        assert done == (not alive_left or steps == cfg.budget)
        if done:
            episodes.append(steps)
            steps = 0
    assert max(episodes) < cfg.budget
    # the greedy attack pads the same run-out with no-op picks of dead node 0
    rep = greedy_attack(toy_chain, emb, params, 6)
    assert rep.nodes[-2:] == [0, 0] and rep.reward[-2:] == [0.0, 0.0]


def test_train_with_budget_equal_to_node_count_picks_every_node():
    # no cascade on a bare road path: the last pick removes the last node
    g = CoupledGraph(kind=[JUNCTION] * 4, level=[0] * 4, load=[0.0] * 4,
                     elec_edges=[], road_edges=[(0, 1), (1, 2), (2, 3)], dep_edges=[])
    emb = random_embeddings(g, 4, 0)
    cfg = AgentConfig(budget=4, episodes=5, batch_size=2, buffer_size=16, seed=1)
    params, log = train(g, emb, cfg)
    assert log.episode == list(range(5))
    assert np.all(np.isfinite(log.loss_mean))
    assert sorted(greedy_attack(g, emb, params, 4).nodes) == [0, 1, 2, 3]


def test_greedy_attack_budget_zero(toy_chain):
    # a budget below 1 is refused, as in every baseline and in a plan
    emb = random_embeddings(toy_chain, 4, 0)
    params = QNetParams.init(4, np.random.default_rng(0))
    with pytest.raises(AgentError, match="budget must be >= 1, got 0"):
        greedy_attack(toy_chain, emb, params, 0)


def test_greedy_picks_supply_chain(toy_chain):
    # exhaustive one-step oracle: damaging any station on the supply chain
    # (0, 1, or 2) drops the full load; the trained net must pick one of them
    from infranet.embed import EmbedConfig, train_coupled

    w = RewardWeights(a_e=1.0, a_r=0.0)
    rewards = [reward(toy_chain.fork(), v, w) for v in range(toy_chain.n)]
    optimal = {v for v, r in enumerate(rewards) if r == max(rewards)}
    assert optimal == {0, 1, 2}
    emb, _, _ = train_coupled(toy_chain, EmbedConfig(d=8, epochs=30, seed=0))
    cfg = AgentConfig(budget=1, episodes=200, seed=0, batch_size=8,
                      buffer_size=64, lr=0.05, gamma=0.0, weights=w,
                      eps_end=0.2)
    params, _ = train(toy_chain, emb, cfg)
    rep = greedy_attack(toy_chain, emb, params, 1, w)
    assert rep.nodes[0] in optimal


@pytest.mark.parametrize("d, n", [(3, 6), (4, 5)])
def test_greedy_attack_rejects_embedding_of_another_shape(toy_chain, d, n):
    params = QNetParams.init(4, np.random.default_rng(0))
    Z = EmbeddingMatrix(np.random.default_rng(1).normal(size=(d, n)))
    with pytest.raises(AgentError, match=rf"embedding of shape \({d}, {n}\) does not match "
                                         r"the value net's d=4 and the graph's 6 nodes"):
        greedy_attack(toy_chain, Z, params, 2)


@pytest.mark.parametrize("budget", [0, -2])
def test_budget_below_one_rejected(toy_chain, budget):
    emb = random_embeddings(toy_chain, 4, 0)
    params = QNetParams.init(4, np.random.default_rng(0))
    with pytest.raises(AgentError, match=f"budget must be >= 1, got {budget}"):
        greedy_attack(toy_chain, emb, params, budget)
    with pytest.raises(AgentError, match=f"budget must be >= 1, got {budget}"):
        train(toy_chain, emb, AgentConfig(budget=budget, episodes=1))


def test_train_rejects_an_embedding_of_another_graph(toy_chain):
    emb = random_embeddings(random_coupled(0), 4, 0)
    with pytest.raises(AgentError, match="^embedding column count does not match the graph$"):
        train(toy_chain, emb, AgentConfig(budget=2, episodes=1))


def test_train_refuses_a_diverging_td_loss(toy_chain):
    cfg = AgentConfig(budget=2, episodes=10, batch_size=2, buffer_size=8, lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(
            AgentError, match="^TD loss diverged at episode 1, step 3$"):
        train(toy_chain, random_embeddings(toy_chain, 4, 0), cfg)


@pytest.mark.parametrize("weights", ["normalized", (1.0, 1.0), {"a_e": 1.0}])
def test_config_rejects_weights_that_are_not_reward_weights(weights):
    with pytest.raises(AgentError, match=rf"^weights must be None or a RewardWeights, "
                                         rf"got {re.escape(repr(weights))}$"):
        AgentConfig(weights=weights)
    assert AgentConfig(weights=RewardWeights(a_e=2.0)).weights.a_e == 2.0
