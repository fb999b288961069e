import copy
import math
import re
from types import SimpleNamespace

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
    make_toy_chain,
    oracle_greedy_attack,
    oracle_node_values,
    oracle_pooled_state,
    oracle_q_values,
    oracle_train,
    random_coupled,
    reward,
)


@pytest.fixture
def picks(monkeypatch):
    """Every greedy pick of the code that follows, a training run's exploit
    steps and a greedy attack's steps, as (certified, tied, finite) triples. Each pick is first checked against the alive argmax of
    today's scores, computed from scratch; `tied` says another alive node
    scores exactly the same, and `finite` that every alive score is finite."""
    seen = []
    pick = agent._RunValues.pick

    def checked(self, s, alive):
        before = self.certified
        v = pick(self, s, alive)
        hidden = np.maximum(self.params.theta1 @ self.Z, 0.0)
        fresh = np.where(alive, q_values(s, self.params, hidden), -np.inf)
        assert v == int(np.argmax(fresh))
        seen.append((self.certified > before, int(np.sum(fresh == fresh[v])) > 1,
                     bool(np.isfinite(fresh[alive]).all())))
        return v

    monkeypatch.setattr(agent._RunValues, "pick", checked)
    return seen


@pytest.fixture
def products(monkeypatch):
    """Every hidden-array product of the code that follows, as (target, id of
    the out array, bytes of the theta1 it ran under) triples."""
    seen = []
    compute = agent.hidden_layer

    def record(Z, params, target=False, out=None):
        theta1 = params.theta1_hat if target else params.theta1
        seen.append((target, id(out), theta1.tobytes()))
        return compute(Z, params, target, out=out)

    monkeypatch.setattr(agent, "hidden_layer", record)
    return seen


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
    # the mean over the kept-node mask in the oracle's bits, with the total
    # computed here and with one total taken for the run, and along the
    # growing prefixes of two removed lists in turn, as in a run's episodes
    rng = np.random.default_rng(d * n)
    for order in "CF":
        Z = np.asarray(rng.normal(size=(d, n)), order=order)
        if n > 2:
            Z[:, n // 2] = 0.0      # a dead node's all-zero embedding
        if n > 4:
            Z[:, n // 3] = -0.0     # a kept -0.0 embedding, alone in the last set
        total = agent._column_total(Z)
        first = [n // 2, *rng.choice(n, size=min(12, n - 2), replace=False).tolist()]
        second = rng.choice(n, size=min(12, n - 2), replace=False).tolist()
        walks = [removed[:k] for removed in (first, second) for k in range(len(removed) + 1)]
        for removed in removed_sets(n, rng) + walks:
            want = oracle_pooled_state(Z, removed).tobytes()
            assert pooled_state(Z, removed).tobytes() == want, removed
            assert pooled_state(Z, removed, total).tobytes() == want, removed


@pytest.mark.parametrize("d", [1, 2, 64])
@pytest.mark.parametrize("n", [2, 9, 1488, 15774])
def test_pooled_state_is_within_the_summation_bound_of_the_exact_mean(d, n):
    # The total and the removed columns' sum are each within (m - 1) u of the
    # sum of their m terms' magnitudes (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., §4.2), and the difference and the
    # division add u each, so (n + 2) eps = (2n + 4) u covers the state
    # against the exact kept mean. The offset makes the difference cancel.
    rng = np.random.default_rng(d + n)
    eps = np.finfo(float).eps
    for offset in (0.0, 1e6):
        Z = rng.normal(size=(d, n)) + offset
        half = rng.choice(n, size=n // 2, replace=False).tolist()
        for removed in ([], half, list(range(1, n))):     # the last keeps node 0 alone
            keep = np.ones(n, dtype=bool)
            keep[removed] = False
            kept = int(keep.sum())
            exact = np.array([math.fsum(row) for row in Z[:, keep]]) / kept
            bound = (n + 2) * eps * np.array([math.fsum(row) for row in np.abs(Z)]) / kept
            assert np.all(np.abs(pooled_state(Z, removed) - exact) <= bound), (offset, kept)


def test_a_fortran_ordered_embedding_computes_the_bytes_of_its_c_copy(desk_graph):
    # a sum over a Fortran-ordered array adds in another order than over its
    # C copy, so the state, and all a run or an attack computes from it,
    # would take other bits if the totals were summed in Z's own layout
    rng = np.random.default_rng(4)
    for d, n in [(2, 9), (16, 2000), (64, 1488), (64, 15774)]:
        C = rng.normal(size=(d, n))
        F = np.asfortranarray(C)
        for removed in ([], [n - 1, 0, n - 1], rng.choice(n, size=n // 3, replace=False)):
            assert pooled_state(F, removed).tobytes() == pooled_state(C, removed).tobytes()
    C = random_embeddings(desk_graph, 64, 5).Z
    F = EmbeddingMatrix(np.asfortranarray(C))
    assert F.Z.flags.f_contiguous and not F.Z.flags.c_contiguous
    cfg = AgentConfig(budget=5, episodes=12, batch_size=8, buffer_size=60, target_sync=9,
                      eps_end=0.3, lr=0.1, gamma=0.9, seed=6)
    (params, log), (c_params, c_log) = (train(desk_graph, emb, cfg)
                                        for emb in (F, EmbeddingMatrix(C)))
    for key in ("theta1", "theta2", "theta1_hat", "theta2_hat"):
        assert getattr(params, key).tobytes() == getattr(c_params, key).tobytes(), key
    assert log == c_log
    assert greedy_attack(desk_graph, F, params, 10).nodes == \
        greedy_attack(desk_graph, EmbeddingMatrix(C), params, 10).nodes


def test_pooled_state_rejects_ids_out_of_range():
    Z = np.ones((2, 5))
    for removed in ([5], [-1], [0, 7]):
        with pytest.raises(AgentError, match=r"removed node ids must lie in \[0, 5\)"):
            pooled_state(Z, removed)


@pytest.mark.parametrize("removed", [
    [1.5], [1.0], [True], [False], [0, True], [np.float64(1)], [np.True_],
    np.array([1.0]), np.array([True]), [[1]],
])
def test_pooled_state_refuses_ids_that_are_not_integers(removed):
    # a cast would take 1.5 and True for node 1
    with pytest.raises(AgentError, match="removed node ids must be integers"):
        pooled_state(np.arange(10.0).reshape(2, 5), removed)


def test_pooled_state_takes_integer_ids_of_any_type():
    Z = np.random.default_rng(0).normal(size=(3, 6))
    want = pooled_state(Z, [1, 4]).tobytes()
    for removed in ([np.int64(1), 4], np.array([1, 4], dtype=np.uint8), (4, 1), range(1, 5, 3)):
        assert pooled_state(Z, removed).tobytes() == want
    for empty in ([], (), np.array([], dtype=float)):
        assert pooled_state(Z, empty).tobytes() == pooled_state(Z, []).tobytes()


@pytest.mark.parametrize("d,n", [(1, 7), (2, 9), (6, 130), (16, 1488), (64, 2000)])
def test_buffered_node_values_match_allocating_formula(d, n):
    # a run's target values, computed into its buffers under theta1_hat or
    # read off a reference taken under theta1_hat's bytes, are the bytes of
    # one allocating expression, and so are node_values of either net
    rng = np.random.default_rng(d + n)
    for order in "CF":
        Z = np.asarray(rng.normal(size=(d, n)), order=order)
        for _ in range(2):
            params = QNetParams.init(d, rng)
            params.theta1_hat = rng.normal(size=(2 * d, d))
            values = agent._RunValues(Z, params)
            values.hidden[:], values.target_out[:] = np.nan, np.nan
            want = oracle_node_values(Z, params, target=True)
            got = values.target_values()
            assert got is values.target_out and got.tobytes() == want.tobytes()
            params.theta1 = params.theta1_hat.copy()
            values.scores(rng.normal(size=d))
            values.target = None
            assert values.target_values().tobytes() == want.tobytes()
            for target in (False, True):
                want = oracle_node_values(Z, params, target)
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


def test_train_certifies_or_recomputes_each_exploit_pick_in_one_buffer(
        monkeypatch, picks, products):
    # always exploit and update every step: every pick but the first reads a
    # reference that the previous step's SGD update made stale
    g = random_coupled(1)
    emb = random_embeddings(g, 5, 2)
    cfg = AgentConfig(budget=4, episodes=6, batch_size=1, buffer_size=8, target_sync=3,
                      eps_start=0.0, eps_end=0.0, lr=0.3, gamma=0.9, seed=4)
    calls, passes = products, []
    target_values = agent._RunValues.target_values

    def record_pass(self):
        # a new target pass needs no product when the last one wrote the
        # buffer under theta1_hat's bytes
        if self.target is None:
            passes.append(bool(calls) and calls[-1][2] == self.params.theta1_hat.tobytes())
        return target_values(self)

    monkeypatch.setattr(agent._RunValues, "target_values", record_pass)
    params, log = train(g, emb, cfg)
    steps = len(log.episode) * cfg.budget
    online = [c for c in calls if not c[0]]
    targets = [c for c in calls if c[0]]
    assert len(picks) == steps
    assert log.full_hidden + log.certified == steps
    assert [certified for certified, _, _ in picks].count(True) == log.certified
    assert len(online) == log.full_hidden and 0 < log.certified
    assert len(passes) == -(-steps // cfg.target_sync)
    assert len(targets) == passes.count(False) and True in passes
    assert len({c[1] for c in calls}) == 1                 # one hidden array per run
    # `scores` recomputes and keeps its array as the reference; a pick against
    # an unchanged reference needs no product. A target pass under other
    # weights makes its own array the reference, too far from theta1 here to
    # certify the next pick; once the target holds theta1's bytes, a target
    # pass reads the reference with no product
    params.theta1_hat = params.theta1 + 1.0
    values = agent._RunValues(emb.Z, params)
    s, alive = emb.Z[:, 0], np.ones(g.n, dtype=bool)
    want = (s @ params.theta2) @ np.maximum(params.theta1 @ emb.Z, 0.0)
    calls.clear()
    assert values.scores(s).tobytes() == want.tobytes()
    assert values.pick(s, alive) == int(np.argmax(want))
    assert values.target_values().tobytes() == \
        oracle_node_values(emb.Z, params, target=True).tobytes()
    assert values.pick(s, alive) == int(np.argmax(want))
    assert [c[0] for c in calls] == [False, True, False]
    assert (values.full_hidden, values.certified) == (2, 1)
    params.sync_target()
    values.target = None
    assert values.target_values().tobytes() == \
        oracle_node_values(emb.Z, params, target=True).tobytes()
    assert len(calls) == 3
    o_params, o_log = oracle_train(g, emb, cfg)
    assert np.array_equal(params.theta1, o_params.theta1)
    assert np.array_equal(params.theta2, o_params.theta2)
    assert log.cum_reward == o_log.cum_reward and log.loss_mean == o_log.loss_mean


@pytest.mark.parametrize("eps_start", [0.0, 1.0])
def test_a_run_reads_its_first_td_targets_off_the_exploit_reference(
        desk_graph, eps_start, products):
    # a short run shaped like the paper-transfer training: its first TD loss
    # comes before any SGD step, so theta1_hat still holds theta1's bytes and
    # the target pass reads the array the first exploit pick computed. The
    # target never syncs and every later pick certifies, so the run computes
    # the hidden array once
    emb = random_embeddings(desk_graph, 16, 1)
    cfg = AgentConfig(budget=10, episodes=2, batch_size=8, eps_start=eps_start, seed=2)
    params, log = train(desk_graph, emb, cfg)
    assert cfg.episodes * cfg.budget < cfg.target_sync
    assert [c[0] for c in products] == [False]
    assert log.full_hidden == 1 and log.certified > 0
    assert_same_run((params, log), oracle_train(desk_graph, emb, cfg))


def test_a_target_pass_reuses_the_reference_only_for_theta1_hats_bytes(products):
    # -0.0 == 0.0 and NaN != NaN, so only the bytes of theta1_hat tell
    # whether the reference is the target net's hidden array
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(3, 11))
    params = QNetParams.init(3, rng)
    values = agent._RunValues(Z, params)
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    for ref, hat, reuses in [(0.0, -0.0, False), (np.nan, np.nan, True),
                             (np.nan, other_nan, False), (0.5, 0.5, True)]:
        params.theta1[0, 0] = ref
        with np.errstate(invalid="ignore"):
            values.scores(Z[:, 0])
            params.sync_target()
            params.theta1_hat[0, 0] = hat
            products.clear()
            values.target = None
            got = values.target_values()
            assert got.tobytes() == oracle_node_values(Z, params, target=True).tobytes()
        assert [c[0] for c in products] == ([] if reuses else [True]), (ref, hat)


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
    # both pick through `_RunValues.pick`, so every greedy pick is the argmax
    # of the exploit step's full scores: no near tie can split the two
    g = generate(preset_config("desk", seed=0))
    emb = random_embeddings(g, d, 1)
    params = QNetParams.init(d, np.random.default_rng(d))
    seen = []
    pick = agent._RunValues.pick

    def record(self, s, alive):
        seen.append((s.copy(), alive.copy()))
        return pick(self, s, alive)

    monkeypatch.setattr(agent._RunValues, "pick", record)
    rep = greedy_attack(g, emb, params, 6)
    assert len(seen) == 6
    values = agent._RunValues(emb.Z, params)
    for (s, alive), node in zip(seen, rep.nodes):
        assert select_action(values.scores(s), 0.0, None, alive) == node


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
    # an explore draw never calls the greedy-pick callable, an exploit draw
    # passes it the alive mask and returns its pick, and the rng ends in the
    # same state as with the precomputed array
    alive = np.array([True, False, True, True, False, True])
    scores = np.array([0.5, 9.0, 2.0, 2.0, 7.0, -1.0])
    for eps in (0.0, 0.3, 0.7, 1.0):
        rng_fn, rng_arr = np.random.default_rng(11), np.random.default_rng(11)
        explored = 0
        for _ in range(200):
            explores = eps > 0 and copy.deepcopy(rng_fn).random() < eps
            calls = []
            a = select_action(lambda mask: calls.append(mask) or int(np.argmax(
                np.where(mask, scores, -np.inf))), eps, rng_fn, alive)
            assert a == select_action(scores, eps, rng_arr, alive)
            assert rng_fn.bit_generator.state == rng_arr.bit_generator.state
            assert len(calls) == (0 if explores else 1)
            assert all(mask is alive for mask in calls)
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


def test_train_log_counts_picks_and_keeps_four_csv_columns(tmp_path):
    g = random_coupled(1)
    cfg = AgentConfig(budget=3, episodes=8, seed=7, batch_size=4, buffer_size=32, lr=0.3)
    _, log = train(g, random_embeddings(g, 4, 0), cfg)
    assert log.full_hidden > 0 and log.certified > 0
    assert log.full_hidden + log.certified <= cfg.episodes * cfg.budget
    log.save_csv(tmp_path / "log.csv")
    rows = [",".join((str(e), repr(c), repr(l), repr(x))) for e, c, l, x in
            zip(log.episode, log.cum_reward, log.loss_mean, log.epsilon)]
    assert (tmp_path / "log.csv").read_bytes() == \
        "\r\n".join(["episode,cum_reward,loss_mean,epsilon", *rows, ""]).encode()


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


@pytest.mark.parametrize("graph", [0, 1, 2])
@pytest.mark.parametrize("overrides", DIFFERENTIAL_CONFIGS)
def test_every_td_loss_reads_the_target_nets_node_values(graph, overrides, monkeypatch):
    # the target values handed to the max cache, read off the reference or
    # computed under theta1_hat, are the slow path's bytes at every TD loss,
    # across many target syncs
    runs, reads = [], []
    init, cached_max = agent._RunValues.__init__, ReplayBuffer.cached_max

    def record_run(self, Z, params):
        init(self, Z, params)
        runs.append(self)

    def checked(self, idx, Y_hat):
        values = runs[-1]
        assert Y_hat.tobytes() == node_values(values.Z, values.params, target=True).tobytes()
        reads.append(values.params.theta1_hat.tobytes())
        return cached_max(self, idx, Y_hat)

    monkeypatch.setattr(agent._RunValues, "__init__", record_run)
    monkeypatch.setattr(ReplayBuffer, "cached_max", checked)
    g = random_coupled(graph)
    cfg = AgentConfig(seed=5, **overrides)
    train(g, random_embeddings(g, 6, 3), cfg)
    assert len(runs) == 1 and len(set(reads)) > 2


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


# Exploit-only runs for the certified picks: every step exploits, so every
# step but the first scores against a reference that SGD may have moved.
EXPLOIT_RUN = dict(budget=4, episodes=20, batch_size=2, buffer_size=40, target_sync=50,
                   eps_start=0.0, eps_end=0.0, lr=0.5, gamma=0.9, seed=3)


def assert_same_greedy_attack(g, emb, params):
    rep, o_rep = greedy_attack(g, emb, params, 8), oracle_greedy_attack(g, emb, params, 8)
    assert rep.nodes == o_rep.nodes and rep.reward == o_rep.reward


@pytest.mark.parametrize("graph", ["random0", "random2", "desk"])
def test_duplicate_columns_tie_and_recompute_to_the_lowest_id(graph, desk_graph, picks):
    # each odd node has the column of the even node before it, so the two
    # score exactly alike: a tie is never certified, and the recomputed pick
    # is the lower id (checked by `picks`)
    g = desk_graph if graph == "desk" else random_coupled(int(graph[-1]))
    Z = random_embeddings(g, 6, 3).Z
    Z[:, 1::2] = Z[:, : g.n - 1 : 2]
    emb = EmbeddingMatrix(Z)
    cfg = AgentConfig(**{**EXPLOIT_RUN, "lr": 0.1, "batch_size": 4, "target_sync": 7})
    params, log = train(g, emb, cfg)
    assert_same_run((params, log), oracle_train(g, emb, cfg))
    assert len(picks) == log.full_hidden + log.certified + log.exact
    assert_same_greedy_attack(g, emb, params)
    assert any(tied for _, tied, _ in picks)
    assert not any(certified and tied for certified, tied, _ in picks)
    assert log.certified > 0


def test_wide_bounds_recompute_most_picks(picks):
    # a large step on embeddings at ten times their usual scale moves theta1
    # far between picks, so most bounds cannot separate the best node
    g = random_coupled(1)
    emb = EmbeddingMatrix(10 * random_embeddings(g, 6, 1).Z)
    cfg = AgentConfig(**EXPLOIT_RUN)
    params, log = train(g, emb, cfg)
    assert_same_run((params, log), oracle_train(g, emb, cfg))
    assert len(picks) == log.full_hidden + log.certified + log.exact == 80
    assert_same_greedy_attack(g, emb, params)
    assert log.full_hidden > log.certified > 0


def test_certification_proves_most_picks_at_the_default_rate(desk_graph, picks):
    emb = random_embeddings(desk_graph, 16, 2)
    cfg = AgentConfig(budget=5, episodes=30, batch_size=8, buffer_size=100, target_sync=25,
                      eps_end=0.1, eps_decay_steps=60, seed=13)
    params, log = train(desk_graph, emb, cfg)
    assert_same_run((params, log), oracle_train(desk_graph, emb, cfg))
    assert len(picks) == log.full_hidden + log.certified + log.exact
    assert_same_greedy_attack(desk_graph, emb, params)
    assert log.certified > 4 * log.full_hidden > 0


def test_pick_never_certifies_an_overflowing_score():
    # node 0's stale score overflows to +inf while its bound stays finite, so
    # q~ - b would put it above every other node's q~ + b: the pick must
    # score every node instead (over the reference, since theta1 has not
    # moved), and takes node 0 from today's scores
    Z = np.array([[1e154, 1.0]])
    params = QNetParams(theta1=np.ones((2, 1)), theta2=np.full((1, 2), 2.0))
    values = agent._RunValues(Z, params)
    s, alive = Z.mean(axis=1), np.ones(2, dtype=bool)
    with np.errstate(over="ignore"):
        assert np.isposinf(values.scores(s)[0])
        assert values.pick(s, alive) == 0
    assert (values.full_hidden, values.certified, values.exact) == (1, 0, 1)


def test_pick_recomputes_when_the_bounds_meet_exactly(monkeypatch):
    # Two nodes of equal column norm share one bound b, which `candidates`
    # reports. The scores q~ are set here. A first pick sets the reference.
    # Then q~ = (2b, 0) puts node 1's upper end exactly on node 0's lower end,
    # b == 2b - b, so strict `<` must score every node (theta1 has not moved,
    # so over the reference); one representable step higher certifies.
    Z = np.array([[1.0, -1.0], [2.0, 2.0]])
    params = QNetParams.init(2, np.random.default_rng(0))
    values = agent._RunValues(Z, params)
    assert values.z_norm[0] == values.z_norm[1]
    s, alive = Z.mean(axis=1), np.ones(2, dtype=bool)
    scored = np.zeros(2)
    monkeypatch.setattr(agent, "q_values", lambda s, params, hidden, alive_mask=None:
                        scored.copy())
    assert values.pick(s, alive) == 0
    _, _, (b, b1) = values.candidates(s, alive)
    assert 0.0 < b == b1 < np.inf
    assert (values.full_hidden, values.certified, values.exact) == (1, 0, 0)
    scored = np.array([2 * b, 0.0])
    assert (scored[0] - b, scored[1] + b) == (b, b)
    assert values.pick(s, alive) == 0
    assert (values.full_hidden, values.certified, values.exact) == (1, 0, 1)
    scored = np.array([np.nextafter(2 * b, np.inf), 0.0])
    assert values.pick(s, alive) == 0
    assert (values.full_hidden, values.certified, values.exact) == (1, 1, 1)


@pytest.mark.parametrize("case,batch_size,where", [
    ("inf column", 8, "episode 2, step 8"),
    ("nan entry", 8, "episode 2, step 8"),
    ("diverging", 2, "episode 2, step 12"),
])
def test_non_finite_runs_never_certify(case, batch_size, where, picks):
    # each run raises at the step where a loop that recomputes every pick
    # raises; it may certify picks while its scores are finite, never after
    g = random_coupled(0)
    Z = random_embeddings(g, 6, 1).Z
    if case == "inf column":
        Z[:, 5] = np.inf
    elif case == "nan entry":
        Z[2, 7] = np.nan
    else:
        Z *= 10.0                   # the TD loss overflows within three episodes
    emb = SimpleNamespace(Z=Z)      # an EmbeddingMatrix refuses non-finite entries
    cfg = AgentConfig(**{**EXPLOIT_RUN, "batch_size": batch_size})
    with np.errstate(all="ignore"), pytest.raises(
            AgentError, match=f"^TD loss diverged at {where}$"):
        train(g, emb, cfg)
    assert len(picks) == int(where.split()[-1])
    assert not all(finite for _, _, finite in picks)
    assert not any(certified and not finite for certified, _, finite in picks)


# Greedy attacks against the per-step oracle. Odd nodes copy the column of
# the even node before them, so pairs score exactly alike and the lower id
# must win; a huge theta1 overflows the bound's norms and a NaN in theta2
# makes every score NaN, so no bound can run and every pick scores every node.
GREEDY_CASES = ["plain", "duplicates", "overflow", "nan"]


@pytest.mark.parametrize("graph", ["random0", "random1", "random2", "random3", "desk", "toy"])
@pytest.mark.parametrize("case", GREEDY_CASES)
def test_greedy_attack_picks_equal_the_per_step_oracle(graph, case, desk_graph, picks):
    g = (desk_graph if graph == "desk" else make_toy_chain() if graph == "toy"
         else random_coupled(int(graph[-1])))
    budget = 6 if graph == "toy" else 10       # the toy chain runs out of Normal nodes
    Z = random_embeddings(g, 6, 3).Z
    params = QNetParams.init(6, np.random.default_rng(g.n))
    if case == "duplicates":
        Z[:, 1::2] = Z[:, : g.n - 1 : 2]
    elif case == "overflow":
        params.theta1 *= 1e308
    elif case == "nan":
        params.theta2[0, 0] = np.nan
    emb = EmbeddingMatrix(Z)
    with np.errstate(over="ignore", invalid="ignore"):
        rep, o_rep = greedy_attack(g, emb, params, budget), oracle_greedy_attack(g, emb, params, budget)
    assert rep.nodes == o_rep.nodes and rep.reward == o_rep.reward
    assert len(picks) == budget                # each checked against today's full scores
    certified = sum(c for c, _, _ in picks)
    if case == "overflow":
        assert certified == 0
    elif case == "nan":
        assert certified == 0 and not all(finite for _, _, finite in picks)
    elif case == "duplicates":
        assert any(tied for _, tied, _ in picks) and not any(c and t for c, t, _ in picks)
    if graph == "toy":
        env, k = cascade.AttackEnv(g), 0
        while (env.state == NORMAL).any():
            env.step(rep.nodes[k])
            k += 1
        assert k < budget and rep.nodes[k:] == [0] * (budget - k)
    elif case == "plain":
        assert certified >= budget // 2


@pytest.mark.parametrize("run", ["attack", "train"])
def test_a_certified_pick_multiplies_only_its_candidate_columns(run, desk_graph, monkeypatch,
                                                                products):
    # a certified pick computes no hidden array and makes one product: over
    # exactly the columns of its at most n/8 candidates, or over the whole
    # reference when it scores every node as the new base
    emb = random_embeddings(desk_graph, 16, 1)
    seen, scored, candidates = [], [], []
    pick, score, bound = agent._RunValues.pick, agent.q_values, agent._RunValues.candidates

    def record_score(s, params, hidden, alive_mask=None):
        scored.append(hidden.copy())
        return score(s, params, hidden, alive_mask)

    def record_candidates(self, s, alive):
        got = bound(self, s, alive)
        candidates.append(None if got is None else got[0].copy())
        return got

    def checked(self, s, alive):
        before = (self.certified, len(scored), len(products))
        candidates.clear()
        v = pick(self, s, alive)
        if self.certified > before[0]:
            (ids,) = candidates
            assert len(products) == before[2] and len(scored) == before[1] + 1
            assert v in ids and alive[ids].all()
            if scored[-1].shape == self.online.shape:
                assert scored[-1].tobytes() == self.online.tobytes()
                assert ids.tolist() == np.flatnonzero(alive).tolist()
            else:
                assert scored[-1].tobytes() == self.online[:, ids].tobytes()
                assert len(ids) <= len(alive) // 8
                seen.append(len(ids))
        return v

    monkeypatch.setattr(agent, "q_values", record_score)
    monkeypatch.setattr(agent._RunValues, "candidates", record_candidates)
    monkeypatch.setattr(agent._RunValues, "pick", checked)
    if run == "attack":
        greedy_attack(desk_graph, emb, QNetParams.init(16, np.random.default_rng(0)), 10)
        assert len(seen) >= 7
    else:
        cfg = AgentConfig(budget=10, episodes=3, batch_size=8, eps_start=0.0, eps_end=0.0,
                          seed=2)
        train(desk_graph, emb, cfg)
        assert len(seen) >= 20


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


@pytest.mark.parametrize("theta1,theta2", [
    (np.zeros((10, 8)), np.zeros((8, 16))),      # greedy_attack raised numpy's ValueError
    (np.zeros((16, 8)), np.zeros((8, 15))),
    (np.zeros((8, 16)), np.zeros((16, 8))),         # a (d, 2d) and (2d, d) pair
    (np.zeros(16), np.zeros((8, 16))),
    (np.zeros((16, 8)), np.zeros(16)),
    (np.zeros((16, 8, 1)), np.zeros((8, 16))),
    (np.zeros((2, 1)), np.float64(0.0)),
])
def test_qnet_params_refuse_thetas_of_other_shapes(theta1, theta2):
    with pytest.raises(AgentError, match=r"thetas must be of shapes \(2d, d\) and \(d, 2d\)"):
        QNetParams(theta1=theta1, theta2=theta2)


def test_qnet_params_refuse_non_finite_thetas():
    # all-NaN thetas would score every node NaN, and the attack take 0, 1, 2
    for bad in (np.nan, np.inf, -np.inf):
        for key in ("theta1", "theta2"):
            thetas = {"theta1": np.zeros((16, 8)), "theta2": np.zeros((8, 16))}
            thetas[key][3, 5] = bad
            with pytest.raises(AgentError, match="^non-finite theta entries$"):
                QNetParams(**thetas)
    g = random_coupled(2)
    with pytest.raises(AgentError, match="non-finite"):
        greedy_attack(g, random_embeddings(g, 8, 1), QNetParams(
            theta1=np.full((16, 8), np.nan), theta2=np.full((8, 16), np.nan)), 3)


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
    o_rep = oracle_greedy_attack(toy_chain, emb, params, 6)
    assert rep.nodes == o_rep.nodes and rep.reward == o_rep.reward
    # a repeated pick of node 0 leaves the state it left the first time
    a = next(v for v in rep.nodes if v != 0)
    assert pooled_state(emb.Z, [a, 0, 0]).tobytes() == pooled_state(emb.Z, [0, a]).tobytes()


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
