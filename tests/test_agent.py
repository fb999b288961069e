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
    # ids beyond int64 are refused before the cast, which would overflow
    Z = np.ones((2, 5))
    for removed in ([5], [-1], [0, 7], [2**70], [1, -2**70], [np.uint64(2**64 - 1)]):
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


def td_rows(rng, d, n, B=6):
    """B replay rows of next states near the intact mean, as in a run, with
    their packed alive masks; one row is done, one has a single alive node
    and one none (a run marks such a row done; its TD max is 0 either way)."""
    Z_mean = rng.normal(size=d)
    s_next = Z_mean + 0.01 * rng.normal(size=(B, d))
    done = np.zeros(B, dtype=bool)
    done[0] = True
    alive = rng.random((B, n)) < 0.8
    alive[1] = False
    alive[1, n - 1] = True
    alive[2] = False
    return s_next, done, alive, np.packbits(alive, axis=1)


@pytest.mark.parametrize("d,n", [(1, 7), (2, 9), (6, 130), (16, 1488), (64, 2000)])
def test_buffered_node_values_match_allocating_formula(d, n):
    # a run's target pass, computing H_hat into its buffer under theta1_hat or
    # reading it off a reference taken under theta1_hat's bytes, holds the
    # bytes of one allocating expression, and the run's TD maxima are the
    # reference td_max's against that expression
    rng = np.random.default_rng(d + n)
    for order in "CF":
        Z = np.asarray(rng.normal(size=(d, n)), order=order)
        for _ in range(2):
            params = QNetParams.init(d, rng)
            params.theta1_hat = rng.normal(size=(2 * d, d))
            s_next, done, alive, masks = td_rows(rng, d, n)
            want = np.maximum(params.theta1_hat @ Z, 0.0)
            ref = agent.td_max(s_next, done, alive, want, params.theta2_hat)
            values = agent._RunValues(Z, params)
            values.buffers[0][:] = np.nan
            assert values.td_max(s_next, done, masks).tobytes() == ref.tobytes()
            assert values.td == values.ref == 0 and values.online.tobytes() == want.tobytes()
            params.theta1 = params.theta1_hat.copy()
            values.td = None                    # a sync: the TD rows no longer read buffer 0
            values.scores(rng.normal(size=d))
            assert values.td_max(s_next, done, masks).tobytes() == ref.tobytes()
            assert len(values.buffers) == 1 and values.online.tobytes() == want.tobytes()
            assert ref[0] == ref[2] == 0.0 and ref[1] == agent.td_max(
                s_next[1:2], done[1:2], alive[1:2], want[:, n - 1:], params.theta2_hat)[0]


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


def test_train_certifies_or_recomputes_each_exploit_pick_in_at_most_two_buffers(
        monkeypatch, picks, products):
    # always exploit and update every step: every pick but the first reads a
    # reference that the previous step's SGD update made stale
    g = random_coupled(1)
    emb = random_embeddings(g, 5, 2)
    cfg = AgentConfig(budget=4, episodes=6, batch_size=1, buffer_size=8, target_sync=3,
                      eps_start=0.0, eps_end=0.0, lr=0.3, gamma=0.9, seed=4)
    calls, passes, runs = products, [], []
    target_pass, init = agent._RunValues._target_pass, agent._RunValues.__init__

    def record_pass(self):
        # a target pass needs no product when a buffer holds the hidden array
        # under theta1_hat's bytes
        passes.append(self.params.theta1_hat.tobytes() in self.held)
        target_pass(self)
        assert self.online.tobytes() == np.maximum(self.params.theta1_hat @ emb.Z, 0.0).tobytes()

    def record_run(self, Z, params):
        init(self, Z, params)
        runs.append(self)

    monkeypatch.setattr(agent._RunValues, "_target_pass", record_pass)
    monkeypatch.setattr(agent._RunValues, "__init__", record_run)
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
    (values,) = runs
    assert {c[1] for c in calls} <= {id(b) for b in values.buffers} and len(values.buffers) <= 2
    # `scores` recomputes and keeps its array as the reference; a pick against
    # an unchanged reference needs no product. A target pass under other
    # weights makes its own array the reference, too far from theta1 here to
    # certify the next pick; once the target holds theta1's bytes, a target
    # pass reads the reference with no product
    params.theta1_hat = params.theta1 + 1.0
    values = agent._RunValues(emb.Z, params)
    s, alive = emb.Z[:, 0], np.ones(g.n, dtype=bool)
    rows = (s[None], np.array([False]), np.packbits(alive)[None])
    want = (s @ params.theta2) @ np.maximum(params.theta1 @ emb.Z, 0.0)
    calls.clear()
    assert values.scores(s).tobytes() == want.tobytes()
    assert values.pick(s, alive) == int(np.argmax(want))
    values.td_max(*rows)
    assert values.pick(s, alive) == int(np.argmax(want))
    assert [c[0] for c in calls] == [False, True, False]
    assert (values.full_hidden, values.certified) == (2, 1)
    params.sync_target()
    values.td = None
    values.td_max(*rows)
    assert len(calls) == 3 and values.online.tobytes() == \
        np.maximum(params.theta1 @ emb.Z, 0.0).tobytes()
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
    # whether a buffer holds the target net's hidden array
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(3, 11))
    params = QNetParams.init(3, rng)
    values = agent._RunValues(Z, params)
    s_next, done, alive, masks = td_rows(rng, 3, 11)
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    for ref, hat, reuses in [(0.0, -0.0, False), (np.nan, np.nan, True),
                             (np.nan, other_nan, False), (0.5, 0.5, True)]:
        values.td = None
        params.theta1[0, 0] = ref
        with np.errstate(invalid="ignore"):
            values.scores(Z[:, 0])
            params.sync_target()
            params.theta1_hat[0, 0] = hat
            products.clear()
            got = values.td_max(s_next, done, masks)
            want = np.maximum(params.theta1_hat @ Z, 0.0)
            assert values.online.tobytes() == want.tobytes()
            assert got.tobytes() == agent.td_max(s_next, done, alive, want,
                                                 params.theta2_hat).tobytes()
        assert [c[0] for c in products] == ([] if reuses else [True]), (ref, hat)
    # a pick recompute while the TD rows read buffer 0 goes to buffer 1; a
    # target pass under buffer 0's theta1 makes it the reference again, with
    # no product
    theta1 = params.theta1.copy()
    params.theta1 += 1.0
    products.clear()
    values.scores(Z[:, 0])
    assert (values.ref, values.td, len(values.buffers)) == (1, 0, 2)
    values.td = None
    params.theta1_hat = theta1
    values.td_max(s_next, done, masks)
    assert (values.ref, values.td, [c[0] for c in products]) == (0, 0, [False])
    assert values.theta1_ref.tobytes() == theta1.tobytes() and values.base is None


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
    # td_max is the masked max of K(u, h_v) over the alive v, u the row's
    # 1-row product s_next @ theta2_hat. K is within the pairwise-sum bound
    # gamma_ceil(log2 2d) sum |u_i h_iv| (Higham, §4.2; one more unit round-off
    # here for the 1/(1 - k u) factor) of the exact (math.fsum) sum of its
    # products, and where the old scores s_next @ (theta2_hat @ H) are
    # separated by more than both paths' rounding, it takes the same node
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 9)), 40
    s, a, r, s_next, done, alive = make_batch(rng, B=16, d=d, n=n)
    alive[:, 0] = rng.random(16) < 0.5
    alive[3] = False                       # no alive next node: target is r
    done[3] = False
    Z = rng.normal(size=(d, n))
    params = QNetParams.init(d, rng)
    params.theta2_hat = rng.normal(size=(d, 2 * d))
    H = np.maximum(params.theta1_hat @ Z, 0.0)
    got = agent.td_max(s_next, done, alive, H, params.theta2_hat)
    old = np.where(alive, s_next @ oracle_node_values(Z, params, target=True), -np.inf)
    eps = np.finfo(float).eps
    separated = 0
    for i in range(16):
        u = s_next[i] @ params.theta2_hat
        assert u.tobytes() == agent._rowwise(s_next[i:i + 1], params.theta2_hat)[0].tobytes()
        k = agent._halving_sum(u[:, None] * H)
        exact = np.array([math.fsum(u * H[:, v]) for v in range(n)])
        bound = (math.ceil(math.log2(2 * d)) + 1) * eps / 2 * (np.abs(u) @ H)
        assert np.all(np.abs(k - exact) <= bound)
        if done[i] or not alive[i].any():
            assert got[i] == 0.0 and not math.copysign(1, got[i]) < 0
            continue
        assert got[i] == np.max(k[alive[i]]) and abs(got[i] - exact[alive[i]].max()) <= bound.max()
        top2 = np.sort(old[i][alive[i]])[-2:]
        if len(top2) == 2 and top2[1] - top2[0] > 4 * d * eps * (np.abs(s_next[i]) @ np.abs(
                params.theta2_hat) @ H).max():
            separated += 1
            assert int(np.argmax(np.where(alive[i], k, -np.inf))) == int(np.argmax(old[i]))
    assert separated >= 8
    # td_loss's own targets are that max, and a done row's target is r
    want = td_loss((s, a, r, None, done, None), Z, params, gamma=0.9, next_max=got)
    assert td_loss((s, a, r, s_next, done, alive), Z, params, gamma=0.9) == want


@pytest.mark.parametrize("length", [1, 2, 3, 5, 6, 12, 33, 128])
def test_td_kernel_bits_do_not_depend_on_the_columns_it_scores(length):
    # K, the halving sum of the products u_i * h_iv, gives each column the
    # bits of the full-width result alone, in blocks of 2 to 2,000 in any
    # order, with another row's u per column as in the candidate path, and
    # in the (2d, rows, n) layout of the every-column path; also for -0.0
    # products and products that overflow to inf and NaN
    rng = np.random.default_rng(length)
    n = 2000
    H = rng.normal(size=(length, n)) * 10.0 ** rng.integers(-3, 4, size=(length, n))
    H[:, :50] = np.maximum(H[:, :50], 0.0)          # relu zeros
    H[:, 50:60] = -0.0
    H[-1, 70:80] = -1e300
    H[0, 60:76] = 1e300                             # column 75 gets both
    U = rng.normal(size=(4, length))
    U[1, 0] = U[1, -1] = 1e300
    U[3] = np.abs(U[3])
    with np.errstate(over="ignore", invalid="ignore"):
        full = [agent._halving_sum(u[:, None] * H) for u in U]
        assert np.isposinf(full[1][60:70]).all() and np.isneginf(full[1][76:80]).all()
        assert np.isnan(full[1][75]) or length == 1
        assert math.copysign(1.0, full[3][50]) == -1.0        # every product is -0.0
        for v in rng.choice(n, size=300, replace=False):
            for u, f in zip(U, full):
                assert agent._halving_sum(u[:, None] * H[:, [v]]).tobytes() == f[[v]].tobytes()
        for size in (2, 3, 40, 257, 2000):
            cols = rng.choice(n, size=size, replace=False)
            rows = rng.integers(0, len(U), size=size)
            got = agent._halving_sum(U[rows].T * H[:, cols])
            want = np.array([full[r][v] for r, v in zip(rows, cols)])
            assert got.tobytes() == want.tobytes(), size
        block = agent._halving_sum(U.T[:, :, None] * H[:, None, :])
        assert block.tobytes() == np.array(full).tobytes()


def test_td_rows_take_every_column_when_the_bound_cannot_run():
    # theta2_hat at 1e300 overflows the bound's norms, and a theta1_hat at
    # 1e300 the column norms of H_hat: every row scores every alive column,
    # and the maxima (0 where not finite) are td_max's
    g = random_coupled(2)
    emb = random_embeddings(g, 6, 3)
    rng = np.random.default_rng(0)
    s_next, done, alive, masks = td_rows(rng, 6, g.n, B=8)
    for key in ("theta1_hat", "theta2_hat"):
        params = QNetParams.init(6, rng)
        setattr(params, key, getattr(params, key) * 1e300)
        values = agent._RunValues(emb.Z, params)
        with np.errstate(over="ignore", invalid="ignore"):
            got = values.td_max(s_next, done, masks)
            want = agent.td_max(s_next, done, alive, np.maximum(params.theta1_hat @ emb.Z, 0.0),
                                params.theta2_hat)
        assert got.tobytes() == want.tobytes() and got[2] == 0.0
        assert values.td_rows == values.td_full == 7


class _Spy(np.ndarray):
    """An array that records the shape of every product it takes part in."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Spy) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            self.shapes.append(np.shape(out))
        return out


@pytest.mark.parametrize("seed", range(3))
def test_a_paper_transfer_run_scores_candidate_columns_only(seed, paper_graph, products,
                                                           monkeypatch):
    # the benchmark's paper-transfer training: every TD row is scored over
    # its candidate columns, to td_max's bytes; the run computes one hidden
    # array, one buffer, and no (d, n) product under theta2_hat
    g = paper_graph
    emb = random_embeddings(g, 64, seed)
    cfg = AgentConfig(budget=10, episodes=2, batch_size=8, seed=seed)
    shapes, runs = [], []
    sync, td_max, init = QNetParams.sync_target, agent._RunValues.td_max, agent._RunValues.__init__

    def spied(self):
        sync(self)
        self.theta2_hat = self.theta2_hat.view(_Spy)
        self.theta2_hat.shapes = shapes

    def checked(self, s_next, done, masks):
        got = td_max(self, s_next, done, masks)
        want = agent.td_max(s_next, done, agent._unpack(masks, g.n), self.period[0],
                            self.params.theta2_hat)
        assert got.tobytes() == want.tobytes()
        return got

    def record_run(self, Z, params):
        init(self, Z, params)
        runs.append(self)

    monkeypatch.setattr(QNetParams, "sync_target", spied)
    monkeypatch.setattr(agent._RunValues, "td_max", checked)
    monkeypatch.setattr(agent._RunValues, "__init__", record_run)
    params, log = train(g, emb, cfg)
    assert log.td_rows > 0 and log.td_full == 0
    assert len(products) == 1 and len(runs[0].buffers) == 1
    assert shapes and all(shape[-1] != g.n for shape in shapes)


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
    # packed mask (n = 101 leaves 3 pad bits) moves the cached max; with the
    # state at the intact mean every row takes the candidate path
    n = 101
    mask = np.ones(n, dtype=bool)
    mask[[3, 17, 64, 98, 100]] = False
    Z = np.where(mask, np.arange(n) / n, 9.0)[None]
    params = QNetParams(theta1=np.array([[1.0], [0.0]]), theta2=np.array([[1.0, 0.0]]))
    values = agent._RunValues(Z, params)
    s0 = pooled_state(Z, [])
    buf = ReplayBuffer(capacity=2, d=1, n_nodes=n)
    buf.push(s0, 1, 0.0, s0, False, mask)
    buf.push(s0, 1, 0.0, s0, False, ~mask)
    idx = buf.sample(4, np.random.default_rng(0))
    assert idx.shape == (4,) and set(idx.tolist()) <= {0, 1}
    got = buf.cached_max(np.array([0, 1]), values.td_max)
    assert got.tolist() == [s0[0] * (99 / n), s0[0] * 9.0]
    assert (values.td_rows, values.td_full) == (2, 0)
    assert agent._unpack(buf.masks, n).tolist() == [mask.tolist(), (~mask).tolist()]


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
    # every SGD step scores at least its batch's stale rows, and the first
    # step's batch is all stale; every relabel is a memo hit or a labelling
    assert 0 < log.td_full <= log.td_rows and log.memo_hits > 0
    log.save_csv(tmp_path / "log.csv")
    rows = [",".join((str(e), repr(c), repr(l), repr(x))) for e, c, l, x in
            zip(log.episode, log.cum_reward, log.loss_mean, log.epsilon)]
    assert (tmp_path / "log.csv").read_bytes() == \
        "\r\n".join(["episode,cum_reward,loss_mean,epsilon", *rows, ""]).encode()


@pytest.fixture(scope="module")
def desk_graph():
    return generate(preset_config("desk", seed=0))


@pytest.fixture(scope="module")
def paper_graph():
    return generate(preset_config("paper", seed=0))


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
    assert (g.n % 8 != 0) == (graph in ("random0", "random1"))     # 27 and 66 nodes
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


@pytest.mark.parametrize("graph", [0, 1, 2, "desk"])
@pytest.mark.parametrize("overrides", DIFFERENTIAL_CONFIGS)
def test_every_td_loss_reads_the_target_nets_node_values(graph, overrides, monkeypatch,
                                                         desk_graph):
    # the target net's hidden array the TD rows read, reused or computed
    # under theta1_hat, is the slow path's bytes at every TD loss, across
    # many target syncs, and the candidate path's maxima are the bytes of
    # td_max over every alive column
    reads = []
    td_max = agent._RunValues.td_max

    def checked(self, s_next, done, masks):
        got = td_max(self, s_next, done, masks)
        hidden = self.period[0]
        assert hidden.tobytes() == np.maximum(self.params.theta1_hat @ self.Z, 0.0).tobytes()
        want = agent.td_max(s_next, done, agent._unpack(masks, self.Z.shape[1]), hidden,
                            self.params.theta2_hat)
        assert got.tobytes() == want.tobytes()
        reads.append((self.params.theta1_hat.tobytes(), self.td_rows, self.td_full))
        return got

    monkeypatch.setattr(agent._RunValues, "td_max", checked)
    g = desk_graph if graph == "desk" else random_coupled(graph)
    cfg = AgentConfig(seed=5, **overrides)
    emb = random_embeddings(g, 6, 3)
    if graph == "desk":                     # near the intact mean, as a trained embedding
        emb = EmbeddingMatrix(emb.Z + 2.0)
    _, log = train(g, emb, cfg)
    assert len({key for key, _, _ in reads}) > 2
    assert (log.td_rows, log.td_full) == reads[-1][1:]
    if graph == "desk":
        assert log.td_full < log.td_rows        # some rows take the candidate path


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


def test_a_pick_recompute_while_the_td_rows_read_h_hat_takes_a_second_buffer(products):
    # the exploit run above recomputes most picks; only a recompute between a
    # target pass and the next sync writes into the second buffer, allocated
    # then, and no product ever writes into the buffer the TD rows read
    seen = []
    refer = agent._RunValues._refer

    def record(self, target):
        before = (self.td, self.ref, len(self.buffers))
        refer(self, target)
        seen.append((target, *before, self.ref, len(self.buffers)))
        assert self.ref != before[0]

    g = random_coupled(1)
    emb = EmbeddingMatrix(10 * random_embeddings(g, 6, 1).Z)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agent._RunValues, "_refer", record)
        train(g, emb, AgentConfig(**EXPLOIT_RUN))
    grown = [i for i, c in enumerate(seen) if c[5] > c[3]]
    assert len(grown) == 1
    target, td, ref, _, _, _ = seen[grown[0]]
    assert not target and td == ref == 0
    assert all(c[5] == 1 for c in seen[:grown[0]])
    # a run that never recomputes a pick after its first target pass keeps one
    values = agent._RunValues(emb.Z, QNetParams.init(6, np.random.default_rng(0)))
    s, alive = emb.Z.mean(axis=1), np.ones(g.n, dtype=bool)
    values.pick(s, alive)
    values.td_max(s[None], np.array([False]), np.packbits(alive)[None])
    values.pick(s, alive)
    assert len(values.buffers) == 1 and values.td == values.ref == 0
    values.params.theta1 += 1.0
    values.moved()
    values.pick(s, alive)
    assert len(values.buffers) == 2 and (values.td, values.ref) == (0, 1)


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
# Both thetas scaled by 1e300 overflow the scores themselves to +-inf and NaN.
GREEDY_CASES = ["plain", "duplicates", "overflow", "nan", "huge"]


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
    elif case == "huge":
        params.theta1 *= 1e300
        params.theta2 *= 1e300
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
    if graph == "toy" and case != "huge":    # there every live score can be -inf
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


def test_a_greedy_attack_takes_each_norm_of_theta1_once(desk_graph, monkeypatch):
    # theta1 never moves in an attack, so its norm, its drift from the
    # reference and the reference's own norm are each one pass over theta1,
    # whatever the budget; the picks are those of the per-step oracle
    passes = []
    norm = agent._norm
    monkeypatch.setattr(agent, "_norm", lambda x: passes.append(x.size) or norm(x))
    d = 16
    emb = random_embeddings(desk_graph, d, 1)
    params = QNetParams.init(d, np.random.default_rng(0))
    for budget in (2, 10):
        passes.clear()
        rep = greedy_attack(desk_graph, emb, params, budget)
        assert passes.count(2 * d * d) == 3
        assert rep.nodes == oracle_greedy_attack(desk_graph, emb, params, budget).nodes


def test_replay_buffer_computes_each_stale_slot_once():
    computed = []

    def compute(s_next, done, masks):
        # a stand-in for the TD kernel: the next state's first entry, times 3
        computed.append(s_next[:, 0].tolist())
        assert masks.shape == (len(s_next), 1) and not done.any()
        return s_next[:, 0] * 3.0

    buf = ReplayBuffer(capacity=3, d=2, n_nodes=4)
    alive = np.array([True, True, True, False])
    for k in (1.0, 2.0, 3.0):
        buf.push(np.zeros(2), 0, 0.0, np.array([k, 0.0]), False, alive)
    assert buf.cached_max(np.array([2, 0, 2, 1]), compute).tolist() == [9.0, 3.0, 9.0, 6.0]
    assert buf.cached_max(np.array([1, 2]), compute).tolist() == [6.0, 9.0]
    buf.push(np.zeros(2), 0, 0.0, np.array([-1.0, 0.0]), False, alive)     # into slot 0
    assert buf.cached_max(np.array([0, 1]), compute).tolist() == [-3.0, 6.0]
    buf.fresh[:] = False                                                   # a target sync
    assert buf.cached_max(np.array([2]), lambda *rows: 2 * compute(*rows)).tolist() == [18.0]
    assert buf.cached_max(np.array([1, 1]), compute).tolist() == [6.0, 6.0]
    # one call per batch with a stale slot, over its distinct stale slots only
    assert computed == [[1.0, 2.0, 3.0], [-1.0], [3.0], [2.0]]


def test_td_max_cache_unpacks_only_stale_slots(desk_graph, monkeypatch):
    # A model of the cache kept here: a slot's max goes stale at its push
    # and at every target sync, and is fresh once an SGD step has computed it.
    # Each TD call scores its distinct stale slots and unpacks the masks of
    # only those it scores over every column.
    generation, known = {}, set()
    periods = [[0, 0]]              # per target period: rows computed, stale slots sampled
    unpacked = []
    push, sync, cached_max = ReplayBuffer.push, QNetParams.sync_target, ReplayBuffer.cached_max
    unpack = agent._unpack

    def on_push(self, *args):
        generation[self.head] = generation.get(self.head, 0) + 1
        push(self, *args)

    def on_sync(self):
        known.clear()
        periods.append([0, 0])
        sync(self)

    def on_unpack(masks, n):
        unpacked.append(len(masks))
        return unpack(masks, n)

    def on_cached_max(self, idx, compute):
        stale = sorted({i for i in idx.tolist() if (i, generation[i]) not in known})
        rows = []

        def recorded(s_next, done, masks):
            rows.append(len(s_next))
            assert s_next.tobytes() == self.s_next[stale].tobytes()
            assert masks.tobytes() == self.masks[stale].tobytes()
            return compute(s_next, done, masks)

        unpacked.clear()
        out = cached_max(self, idx, recorded)
        assert rows == ([len(stale)] if stale else [])
        assert sum(unpacked) <= len(stale)
        known.update((i, generation[i]) for i in stale)
        periods[-1][0] += sum(rows)
        periods[-1][1] += len(stale)
        return out

    for name, fn in (("push", on_push), ("cached_max", on_cached_max)):
        monkeypatch.setattr(ReplayBuffer, name, fn)
    monkeypatch.setattr(QNetParams, "sync_target", on_sync)
    monkeypatch.setattr(agent, "_unpack", on_unpack)
    cfg = AgentConfig(budget=10, episodes=20, batch_size=64, buffer_size=150,
                      target_sync=20, lr=0.05, seed=3)
    train(desk_graph, random_embeddings(desk_graph, 16, 1), cfg)
    assert len(periods) == 1 + 1 + 200 // 20          # the sync at init, then one per period
    assert all(rows == stale for rows, stale in periods)
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
