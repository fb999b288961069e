import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from infranet import embed
from infranet.embed import (
    EmbedConfig,
    EmbedError,
    EmbeddingMatrix,
    forward,
    init_features,
    init_params,
    loss_and_grads,
    margin_loss,
    problem_for,
    random_embeddings,
    sample_negatives,
    score,
    train,
    train_coupled,
)
from infranet.graph import JUNCTION, CoupledGraph
from infranet.netgen import GenConfig, generate, preset_config

from conftest import (
    central_diff_check,
    oracle_adjacency,
    oracle_backward,
    oracle_forward,
    oracle_margin_loss,
    oracle_sample_negatives,
    oracle_score,
    random_coupled,
)


def road_graph(edges, n):
    return CoupledGraph(kind=[JUNCTION] * n, level=[0] * n, load=[0.0] * n,
                        elec_edges=[], road_edges=edges, dep_edges=[])


def test_init_features_shape_and_determinism():
    g = road_graph([(0, 1)], 10)
    a = init_features(g, d=4, seed=7)
    b = init_features(g, d=4, seed=7)
    assert a.Z.shape == (4, 10)
    np.testing.assert_array_equal(a.Z, b.Z)
    c = init_features(g, d=4, seed=8)
    assert not np.array_equal(a.Z, c.Z)


def test_init_features_copies_sub_embeddings(toy_chain):
    d = 4
    emb_e = random_embeddings(toy_chain, d, 1)
    emb_r = random_embeddings(toy_chain, d, 2)
    F = init_features(toy_chain, d, 0, sub_embeds=(emb_e, emb_r))
    st, ju = toy_chain.station_ids(), toy_chain.junction_ids()
    np.testing.assert_array_equal(F.Z[:, st], emb_e.Z[:, st])
    np.testing.assert_array_equal(F.Z[:, ju], emb_r.Z[:, ju])


def test_init_features_dimension_mismatch(toy_chain):
    bad = EmbeddingMatrix(np.zeros((3, toy_chain.n)))
    good = EmbeddingMatrix(np.zeros((4, toy_chain.n)))
    with pytest.raises(EmbedError):
        init_features(toy_chain, 4, 0, sub_embeds=(bad, good))


def test_forward_isolated_node_halves_feature():
    g = road_graph([(1, 2)], 3)
    cfg = EmbedConfig(d=2, depth=1)
    problem = problem_for(g, "road", cfg)
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    F = np.array([[2.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    Z = forward(F, [W], problem)
    # node 0 has no neighbors: mean(f, 0) = f/2
    np.testing.assert_allclose(Z[:, 0], [1.0, 2.0])


def test_forward_equal_neighbor_fixed_point():
    g = road_graph([(0, 1)], 2)
    cfg = EmbedConfig(d=2, depth=1)
    problem = problem_for(g, "road", cfg)
    f = np.array([1.0, 3.0])
    F = np.stack([f, f], axis=1)
    Z = forward(F, [2.0 * np.eye(2)], problem)
    np.testing.assert_allclose(Z[:, 0], 2.0 * f)
    np.testing.assert_allclose(Z[:, 1], 2.0 * f)


def test_forward_matches_dense_oracle():
    g = random_coupled(3)
    cfg = EmbedConfig(d=5, depth=2, seed=0)
    problem = problem_for(g, "coupled", cfg)
    rng = np.random.default_rng(0)
    F = rng.normal(size=(5, g.n))
    params = init_params(cfg, rng)
    Z = forward(F, params, problem)

    # straight-line dense reimplementation
    A = np.zeros((g.n, g.n))
    for u, v in zip(g.edge_u, g.edge_v):
        A[u, v] = A[v, u] = 1.0
    H = F.copy()
    for W in params:
        HN = H @ A
        H = np.maximum(W @ ((H + HN) / 2.0), 0.0)
    np.testing.assert_allclose(Z, H, atol=1e-12)


def test_forward_permutation_equivariant():
    g = random_coupled(5)
    cfg = EmbedConfig(d=4, depth=2, seed=1)
    rng = np.random.default_rng(1)
    F = rng.normal(size=(4, g.n))
    params = init_params(cfg, rng)
    Z = forward(F, params, problem_for(g, "coupled", cfg))

    perm = rng.permutation(g.n)
    inv = np.argsort(perm)
    # relabel: node v becomes inv[v]
    relabel = lambda e: [(int(inv[a]), int(inv[b])) for a, b in e]
    g2 = CoupledGraph(kind=g.kind[perm], level=g.level[perm], load=g.load[perm],
                      elec_edges=relabel(g.elec_edges),
                      road_edges=relabel(g.road_edges),
                      dep_edges=relabel(g.dep_edges))
    Z2 = forward(F[:, perm], params, problem_for(g2, "coupled", cfg))
    np.testing.assert_allclose(Z2, Z[:, perm], atol=1e-12)


def test_score_orthogonal_identical_random():
    Z = np.eye(3)
    assert score(Z, [(0, 1)])[0] == 0.0
    assert score(Z, [(2, 2)])[0] == 1.0
    rng = np.random.default_rng(0)
    Zr = rng.normal(size=(4, 6))
    edges = [(0, 5), (2, 3)]
    expect = [float(Zr[:, u] @ Zr[:, v]) for u, v in edges]
    np.testing.assert_allclose(score(Zr, edges), expect)


def test_margin_loss_saturated_and_flat():
    cfg = EmbedConfig(d=2, margin=1.0, l2=0.0)
    # positives score 5, negatives score 0 -> hinge dead
    Z = np.array([[np.sqrt(5.0), np.sqrt(5.0), 0.0, 0.0],
                  [0.0, 0.0, 1.0, -1.0]])
    assert margin_loss(Z, [(0, 1)], [(2, 3)], cfg) == 0.0
    # all scores equal -> loss = margin
    Zeq = np.ones((2, 4))
    assert margin_loss(Zeq, [(0, 1)], [(2, 3)], cfg) == pytest.approx(1.0)


def test_margin_loss_empty_errors():
    cfg = EmbedConfig(d=2)
    with pytest.raises(EmbedError):
        margin_loss(np.ones((2, 3)), [], [(0, 1)], cfg)


def test_margin_loss_rejects_negatives_not_a_multiple_of_positives():
    with pytest.raises(EmbedError, match="^negatives must be a multiple of positives$"):
        margin_loss(np.ones((2, 4)), [(0, 1), (1, 2)], [(0, 2), (0, 3), (1, 3)],
                    EmbedConfig(d=2))


@pytest.mark.parametrize("Z, message", [
    (np.zeros(3), "embedding matrix must be 2-D"),
    (np.zeros((1, 1, 1)), "embedding matrix must be 2-D"),
    ([[0.0, np.nan]], "non-finite embedding entries"),
    ([[np.inf]], "non-finite embedding entries"),
])
def test_embedding_matrix_rejects_bad_arrays(Z, message):
    with pytest.raises(EmbedError, match=f"^{message}$"):
        EmbeddingMatrix(Z)


def test_problem_for_rejects_unknown_scope_and_empty_layer():
    g = road_graph([(0, 1)], 3)        # junctions only: no electricity edge
    with pytest.raises(EmbedError, match="^unknown scope 'rail'$"):
        problem_for(g, "rail", EmbedConfig())
    with pytest.raises(EmbedError, match="^scope 'elec' has no edges to train on$"):
        problem_for(g, "elec", EmbedConfig())


def test_sample_negatives_rejects_a_pool_of_one():
    problem = embed.EmbedProblem(n=3, edges=np.array([[0, 1]]), edge_weights=np.ones(1),
                                 pool=np.array([2]))
    with pytest.raises(EmbedError, match="^pool too small to sample negatives$"):
        sample_negatives(np.random.default_rng(0), problem, 2)


def test_train_refuses_a_diverging_run(toy_chain):
    cfg = EmbedConfig(d=4, epochs=5, lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(EmbedError,
                                                  match="^training diverged at epoch 1$"):
        train(problem_for(toy_chain, "coupled", cfg), cfg)


@pytest.mark.parametrize("seed", range(20))
def test_pipeline_gradient_matches_finite_differences(seed):
    g = random_coupled(seed % 8)
    cfg = EmbedConfig(d=4, depth=2, l2=1e-3, seed=seed)
    problem = problem_for(g, "coupled", cfg)
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(4, g.n)) * 0.5
    params = init_params(cfg, rng)
    neg = sample_negatives(rng, problem, len(problem.edges))

    loss, dWs = loss_and_grads(F, params, problem, neg, cfg)
    loss_fn = lambda: loss_and_grads(F, params, problem, neg, cfg)[0]
    checked = central_diff_check(loss_fn, params, dWs,
                                 np.random.default_rng(seed + 1))
    assert checked >= 8


def test_train_epochs_zero_is_plain_forward():
    g = random_coupled(2)
    cfg = EmbedConfig(d=4, depth=1, epochs=0, seed=9)
    problem = problem_for(g, "coupled", cfg)
    emb, params, losses = train(problem, cfg)
    assert losses == []
    rng = np.random.default_rng(9)
    F = embed._uniform(rng, (4, g.n), 4)
    params2 = init_params(cfg, rng)
    np.testing.assert_allclose(emb.Z, forward(F, params2, problem))


def test_train_deterministic():
    g = random_coupled(4)
    cfg = EmbedConfig(d=4, epochs=10, seed=5, lr=0.01)
    a, _, la = train(problem_for(g, "coupled", cfg), cfg)
    b, _, lb = train(problem_for(g, "coupled", cfg), cfg)
    np.testing.assert_array_equal(a.Z, b.Z)
    assert la == lb


def test_two_cliques_separate():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    g = road_graph(edges, 10)
    cfg = EmbedConfig(d=8, depth=2, epochs=300, lr=0.05, seed=0)
    emb, _, losses = train(problem_for(g, "road", cfg), cfg)
    intra = score(emb.Z, edges)
    inter = score(emb.Z, [(i, j) for i in range(5) for j in range(5, 10)])
    assert intra.mean() > inter.mean()
    assert losses[-1] < losses[0]


def test_descent_on_fixed_batch():
    # with l2=0 and a small step, one gradient step cannot increase the loss
    g = random_coupled(6)
    cfg = EmbedConfig(d=4, depth=2, l2=0.0, seed=3)
    problem = problem_for(g, "coupled", cfg)
    rng = np.random.default_rng(3)
    F = rng.normal(size=(4, g.n)) * 0.5
    params = init_params(cfg, rng)
    neg = sample_negatives(rng, problem, len(problem.edges))
    loss0, dWs = loss_and_grads(F, params, problem, neg, cfg)
    for W, dW in zip(params, dWs):
        W -= 1e-4 * dW
    loss1, _ = loss_and_grads(F, params, problem, neg, cfg)
    assert loss1 <= loss0 + 1e-12


def test_random_embeddings_contract(toy_chain):
    a = random_embeddings(toy_chain, 5, 1)
    b = random_embeddings(toy_chain, 5, 1)
    c = random_embeddings(toy_chain, 5, 2)
    assert a.Z.shape == (5, toy_chain.n)
    assert a.provenance == "random"
    np.testing.assert_array_equal(a.Z, b.Z)
    assert not np.array_equal(a.Z, c.Z)


def test_edge_type_weights_only_affect_loss():
    g = random_coupled(7)
    cfg_even = EmbedConfig(d=4, seed=0)
    cfg_biased = EmbedConfig(d=4, seed=0,
                             edge_type_weights={"elec": 2.0, "road": 1.0, "dep": 0.5})
    p_even = problem_for(g, "coupled", cfg_even)
    p_biased = problem_for(g, "coupled", cfg_biased)
    np.testing.assert_array_equal(p_even.edges, p_biased.edges)
    for name in ("nbr_rows", "nbr_cols", "nbr_mult", "deg"):
        assert getattr(p_even, name).tobytes() == getattr(p_biased, name).tobytes()
    assert not np.array_equal(p_even.edge_weights, p_biased.edge_weights)


def test_coupled_problem_lists_every_layer_with_its_weight():
    g = random_coupled(7)
    cfg = EmbedConfig(edge_type_weights={"elec": 2.0, "road": 1.0, "dep": 0.5})
    p = problem_for(g, "coupled", cfg)
    tagged = ([(e, 2.0) for e in g.elec_edges.tolist()]
              + [(e, 1.0) for e in g.road_edges.tolist()]
              + [(e, 0.5) for e in g.dep_edges.tolist()])
    assert p.edges.tolist() == [e for e, _ in tagged]
    assert p.edge_weights.tolist() == [w for _, w in tagged]


def test_train_coupled_runs(toy_chain):
    cfg = EmbedConfig(d=4, epochs=3, seed=0)
    emb, params, _ = train_coupled(toy_chain, cfg)
    assert emb.Z.shape == (4, toy_chain.n)
    assert len(params) == cfg.depth


def test_train_coupled_without_road_edges_uses_random_road_columns(monkeypatch):
    # one junction has no road edge, so the road layer has nothing to pretrain
    g = generate(GenConfig(seed=3, road_nodes=1))
    assert len(g.road_edges) == 0
    cfg = EmbedConfig(d=4, epochs=3, seed=5)
    real, road_columns = embed.init_features, []

    def spy(g, d, seed, sub_embeds):
        road_columns.append(sub_embeds[1])
        return real(g, d, seed, sub_embeds=sub_embeds)

    monkeypatch.setattr(embed, "init_features", spy)
    emb, params, losses = train_coupled(g, cfg)
    np.testing.assert_array_equal(road_columns[0].Z, random_embeddings(g, 4, 7).Z)
    assert emb.Z.shape == (4, g.n) and len(losses) == 3 and np.all(np.isfinite(losses))


def test_mean_aggregator_variant():
    g = road_graph([(0, 1), (1, 2)], 3)
    cfg = EmbedConfig(d=2, depth=1, aggregator="mean")
    problem = problem_for(g, "road", cfg)
    F = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    Z = forward(F, [np.eye(2)], problem, aggregator="mean")
    # endpoints: mean with the single neighbor, e.g. node 0 -> (1+2)/2
    np.testing.assert_allclose(Z[0], [1.5, 2.0, 2.5])


def _buffered_rng(seed, buffered, bit_generator=np.random.PCG64):
    """A generator, with a half-word buffered when asked: one 32-bit draw
    reads the low half of a 64-bit output and keeps the high half. MT19937
    makes 32-bit outputs and has no such buffer."""
    rng = np.random.Generator(bit_generator(seed))
    if buffered:
        rng.integers(0, 7)
        assert rng.bit_generator.state.get("has_uint32", 1) == 1
    return rng


def _plain(state):
    """A bit generator's state with its arrays as lists, so that == compares it."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _assert_same_generator(a, b):
    assert _plain(a.bit_generator.state) == _plain(b.bit_generator.state)
    np.testing.assert_array_equal(a.integers(0, 1000, size=9), b.integers(0, 1000, size=9))
    np.testing.assert_array_equal(a.random(5), b.random(5))


@settings(max_examples=60, deadline=None)
@given(graph=st.integers(0, 30), scope=st.sampled_from(["elec", "road", "coupled"]),
       neg_ratio=st.integers(1, 3), seed=st.integers(0, 10_000), buffered=st.booleans())
def test_sample_negatives_matches_loop_oracle(graph, scope, neg_ratio, seed, buffered):
    g = random_coupled(graph)
    assume(scope != "road" or len(g.road_edges) > 0)
    problem = problem_for(g, scope, EmbedConfig())
    assume(problem.has_non_edge)
    count = len(problem.edges) * neg_ratio
    a, b = _buffered_rng(seed, buffered), _buffered_rng(seed, buffered)
    got = sample_negatives(a, problem, count)
    assert np.array_equal(got, oracle_sample_negatives(b, problem, count))
    _assert_same_generator(a, b)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("missing", [1, 2, 6])
def test_sample_negatives_on_nearly_complete_pool(buffered, missing):
    # most draws are rejected, so the bulk draw needs several batches
    n = 9
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = road_graph(pairs[missing:], n)
    problem = problem_for(g, "road", EmbedConfig())
    count = 3 * len(problem.edges)
    for seed in range(5):
        a, b = _buffered_rng(seed, buffered), _buffered_rng(seed, buffered)
        got = sample_negatives(a, problem, count)
        assert np.array_equal(got, oracle_sample_negatives(b, problem, count))
        _assert_same_generator(a, b)
        keys = set((got.min(axis=1) * n + got.max(axis=1)).tolist())
        assert keys <= {u * n + v for u, v in pairs[:missing]}


class _IdentityPool:
    """A pool of `size` nodes in which node i is i, too large to build."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        return index


@settings(max_examples=40, deadline=None)
@given(bound=st.sampled_from([3, 15_774, 3 * 2**30, 2**31 + 1, 2**32 - 5, 2**32, 2**40]),
       seed=st.integers(0, 10_000), buffered=st.booleans(), count=st.integers(1, 200))
def test_draw_pairs_matches_loop_on_large_pools(bound, seed, buffered, count):
    # pools up to 2**32 draw 32-bit words, larger ones 64-bit outputs; keep
    # rejects about half the pairs
    a, b = _buffered_rng(seed, buffered), _buffered_rng(seed, buffered)
    got = embed.draw_pairs(a, _IdentityPool(bound), count, lambda u, v: u < v)
    expect = []
    while len(expect) < count:
        u, v = b.integers(0, bound, size=2).tolist()
        if u < v:
            expect.append((u, v))
    assert np.array_equal(got, np.array(expect, dtype=np.int64))
    _assert_same_generator(a, b)


@pytest.mark.parametrize("buffered", [False, True])
def test_draw_pairs_first_key_matches_set_loop(buffered):
    # draw_new_pairs, the rule of road chords and mask road additions: a pair
    # is kept if it is no old edge and the first draw of its key; the old
    # keys need not be sorted
    pool = np.array([2, 3, 5, 8, 9, 11])
    n = 12
    unsorted = [8 * n + 11, 2 * n + 3, 5 * n + 9]
    # the pool has 15 pairs, 12 of them new against `unsorted`
    for taken, counts in (([], (1, 15)), (unsorted, (0, 1, 5, 12))):
        for count, seed in itertools.product(counts, range(5)):
            a, b = _buffered_rng(seed, buffered), _buffered_rng(seed, buffered)
            got = embed.draw_new_pairs(a, pool, count, n, np.array(taken, dtype=np.int64))
            seen, expect = set(taken), []
            while len(expect) < count:
                u, v = pool[b.integers(0, len(pool), size=2)].tolist()
                key = min(u, v) * n + max(u, v)
                if u != v and key not in seen:
                    seen.add(key)
                    expect.append((u, v))
            assert np.array_equal(got, np.array(expect, dtype=np.int64).reshape(-1, 2))
            _assert_same_generator(a, b)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64, np.random.PCG64DXSM])
@pytest.mark.parametrize("buffered", [False, True])
def test_sample_negatives_matches_loop_on_other_bit_generators(bit_generator, buffered):
    n = 9
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for problem in (problem_for(random_coupled(3), "coupled", EmbedConfig()),
                    problem_for(road_graph(pairs[2:], n), "road", EmbedConfig())):
        count = 2 * len(problem.edges)
        for seed in range(3):
            a = _buffered_rng(seed, buffered, bit_generator)
            b = _buffered_rng(seed, buffered, bit_generator)
            got = sample_negatives(a, problem, count)
            assert np.array_equal(got, oracle_sample_negatives(b, problem, count))
            _assert_same_generator(a, b)


@pytest.mark.parametrize("make", [
    lambda: problem_for(road_graph([(0, 1), (1, 2), (0, 2)], 3), "road", EmbedConfig()),
    lambda: problem_for(road_graph([(u, v) for u in range(4) for v in range(u + 1, 4)], 4),
                        "road", EmbedConfig()),
    # one edge listed three ways, a repeated pool node and an edge leaving the pool
    lambda: embed.EmbedProblem(n=4, edges=[(0, 1), (1, 0), (0, 1), (1, 3)],
                               edge_weights=np.ones(4), pool=[1, 0, 1]),
], ids=["triangle", "K4", "repeats"])
def test_pool_without_non_edge_pair_raises_before_drawing(make):
    problem = make()
    assert not problem.has_non_edge
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    with pytest.raises(EmbedError, match="pool has no non-edge pair"):
        sample_negatives(rng, problem, 4)
    assert rng.bit_generator.state == start
    with pytest.raises(EmbedError, match="pool has no non-edge pair"):
        train(problem, EmbedConfig(d=2, epochs=1))


@settings(max_examples=80, deadline=None)
@given(graph=st.integers(0, 30), scope=st.sampled_from(["elec", "road", "coupled", "repeats"]),
       loop=st.booleans(), d=st.sampled_from([1, 7, 8, 9, 16, 64]),
       aggregator=st.sampled_from(["sum", "mean"]), order=st.sampled_from("CF"),
       seed=st.integers(0, 10_000))
def test_neighbor_sum_matches_csr_product_bit_for_bit(graph, scope, loop, d, aggregator,
                                                      order, seed):
    # duplicated and reversed edges and self-loops give pairs of multiplicity
    # above 1; -0.0 terms, and neighborhoods of -0.0 only, tell a sum that
    # starts from +0.0 from one seeded with its first term
    rng = np.random.default_rng(seed)
    if scope == "repeats":
        n, edges = 4, np.array([(0, 1), (1, 0), (0, 1), (1, 3)])
    else:
        g = random_coupled(graph)
        assume(scope != "road" or len(g.road_edges) > 0)
        n, edges = g.n, problem_for(g, scope, EmbedConfig()).edges
    if loop:
        v = int(rng.integers(0, n))
        edges = np.vstack([edges, [(v, v)]])
    problem = embed.EmbedProblem(n=n, edges=edges, edge_weights=np.ones(len(edges)),
                                 pool=np.arange(n))
    X = rng.normal(size=(d, n))
    X[rng.random(X.shape) < 0.3] = -0.0
    v = int(rng.integers(0, n))
    X[:, problem.nbr_cols[problem.nbr_rows == v]] = -0.0
    X = np.asarray(X, order=order)
    adj, _ = oracle_adjacency(problem)
    got = embed._neighbor_sum(problem, X)
    assert got.flags.c_contiguous
    assert got.tobytes() == (adj @ X.T).T.tobytes()
    M = embed._aggregate(X, problem, aggregator)
    (oM, _), = oracle_forward(X, [np.eye(d)], problem, aggregator, want_cache=True)[1]
    assert M.tobytes(order="A") == oM.tobytes(order="A")
    assert M.flags.c_contiguous == oM.flags.c_contiguous


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [1, 7, 16, 64])
def test_score_in_edge_blocks_matches_one_einsum(d, order):
    # more edges than one block: each edge must get the bits of the single
    # einsum over all edges
    g = generate(preset_config("desk", seed=0))
    problem = problem_for(g, "coupled", EmbedConfig())
    rng = np.random.default_rng(d)
    Z = rng.normal(size=(d, g.n))
    Z[Z > 1.5] = -0.0
    Z = np.asarray(Z, order=order)
    neg = sample_negatives(rng, problem, 2 * len(problem.edges))
    for edges in (problem.edges, neg, neg[:embed._EDGE_BLOCK + 1]):
        assert len(edges) > embed._EDGE_BLOCK
        assert score(Z, edges).tobytes() == oracle_score(Z, edges).tobytes()


@pytest.mark.parametrize("edge", [(0, 4), (-1, 2)])
def test_problem_rejects_edge_endpoints_out_of_range(edge):
    with pytest.raises(EmbedError, match=r"edge endpoints must lie in \[0, 4\)"):
        embed.EmbedProblem(n=4, edges=[(0, 1), edge], edge_weights=np.ones(2),
                           pool=np.arange(4))


def test_pool_with_one_non_edge_pair_samples_it():
    g = road_graph([(0, 1), (1, 2)], 3)
    problem = problem_for(g, "road", EmbedConfig())
    assert problem.has_non_edge
    neg = sample_negatives(np.random.default_rng(0), problem, 6)
    assert sorted(map(sorted, neg.tolist())) == [[0, 2]] * 6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), m=st.integers(1, 30),
       r=st.integers(1, 3), d=st.integers(1, 5), weighted=st.booleans())
def test_margin_gradient_matches_scatter_add_oracle(seed, n, m, r, d, weighted):
    # few nodes and many pairs, so most cells collect several terms
    rng = np.random.default_rng(seed)
    cfg = EmbedConfig(d=d, margin=float(rng.uniform(0.1, 3.0)))
    Z = rng.normal(size=(d, n))
    pos = rng.integers(0, n, size=(m, 2))
    neg = rng.integers(0, n, size=(m * r, 2))
    w = rng.uniform(0.0, 2.0, size=m) if weighted else None
    params = [rng.normal(size=(d, d))]
    loss, dZ = margin_loss(Z, pos, neg, cfg, pos_weights=w, params=params, want_grad=True)
    o_loss, o_dZ = oracle_margin_loss(Z, pos, neg, cfg, pos_weights=w, params=params)
    assert loss == o_loss
    assert np.array_equal(dZ, o_dZ)


@pytest.mark.parametrize("graph", range(4))
def test_train_coupled_matches_loop_and_scatter_add_kernels(graph, monkeypatch):
    g = random_coupled(graph)
    cfg = EmbedConfig(d=6, epochs=6, neg_ratio=1 + graph % 3, seed=graph, lr=0.01)
    emb, params, losses = train_coupled(g, cfg)

    def scatter_add(Z, pos, neg, cfg, pos_weights=None, params=None, want_grad=False):
        assert want_grad
        return oracle_margin_loss(Z, pos, neg, cfg, pos_weights, params)

    monkeypatch.setattr(embed, "sample_negatives", oracle_sample_negatives)
    monkeypatch.setattr(embed, "margin_loss", scatter_add)
    o_emb, o_params, o_losses = train_coupled(g, cfg)
    assert np.array_equal(emb.Z, o_emb.Z)
    assert all(np.array_equal(W, oW) for W, oW in zip(params, o_params))
    assert losses == o_losses


# Sizes where numpy's BLAS takes a different path when the operand layout
# of `W @ M` or `G @ M.T` changes (d = 16 on desk, small n at d = 16-64), so
# the cached M must keep the memory order the transposed aggregation gave it.
@pytest.mark.parametrize("graph", ["random0", "random3", "random5", "desk"])
@pytest.mark.parametrize("d", [1, 2, 3, 6, 16, 32, 64])
def test_forward_backward_match_transpose_oracle_bit_for_bit(graph, d):
    g = (generate(preset_config("desk", seed=0)) if graph == "desk"
         else random_coupled(int(graph[-1])))
    rng = np.random.default_rng(d)
    for aggregator in ("sum", "mean"):
        problem = problem_for(g, "coupled", EmbedConfig(d=d, aggregator=aggregator))
        for order, depth in (("C", 2), ("F", 2), ("C", 1), ("F", 3)):
            F = np.asarray(rng.uniform(-1, 1, size=(d, g.n)), order=order)
            params = [rng.uniform(-0.6, 0.6, size=(d, d)) for _ in range(depth)]
            Z, caches = forward(F, params, problem, aggregator, want_cache=True)
            oZ, o_caches = oracle_forward(F, params, problem, aggregator, want_cache=True)
            assert Z.tobytes() == oZ.tobytes()
            for (M, pre), (oM, o_pre) in zip(caches, o_caches):
                assert M.tobytes(order="A") == oM.tobytes(order="A")
                assert M.flags.c_contiguous == oM.flags.c_contiguous
                assert pre.tobytes() == o_pre.tobytes()
            dZ = rng.normal(size=Z.shape)
            dWs = embed._backward(dZ, params, caches, problem, aggregator)
            o_dWs, _ = oracle_backward(dZ, params, o_caches, problem, aggregator)
            assert [dW.tobytes() for dW in dWs] == [dW.tobytes() for dW in o_dWs]


# desk at d = 16 is a size where `W @ M` takes another BLAS path if the
# cached layer-0 input M0 is in the wrong memory order
@pytest.mark.parametrize("graph", [0, 1, 2, "desk"])
def test_train_coupled_matches_all_oracle_kernels(graph, monkeypatch):
    if graph == "desk":
        g = generate(preset_config("desk", seed=0))
        cfg = EmbedConfig(d=16, epochs=2, seed=3, lr=0.02)
    else:
        g = random_coupled(graph + 4)
        cfg = EmbedConfig(d=5 + graph, epochs=5, seed=graph, lr=0.02,
                          aggregator="mean" if graph == 1 else "sum")
    emb, params, losses = train_coupled(g, cfg)

    def scatter_add(Z, pos, neg, cfg, pos_weights=None, params=None, want_grad=False):
        assert want_grad
        return oracle_margin_loss(Z, pos, neg, cfg, pos_weights, params)

    monkeypatch.setattr(embed, "sample_negatives", oracle_sample_negatives)
    monkeypatch.setattr(embed, "margin_loss", scatter_add)
    monkeypatch.setattr(embed, "forward", oracle_forward)
    monkeypatch.setattr(embed, "_backward", lambda *args: oracle_backward(*args)[0])
    o_emb, o_params, o_losses = train_coupled(g, cfg)
    assert emb.Z.tobytes() == o_emb.Z.tobytes()
    assert all(W.tobytes() == oW.tobytes() for W, oW in zip(params, o_params))
    assert losses == o_losses
