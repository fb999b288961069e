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
from infranet.transfer import MaskSpec, TransferError, mask_graph

import conftest
from conftest import (
    central_diff_check,
    oracle_adjacency,
    oracle_backward,
    oracle_embed_train,
    oracle_forward,
    oracle_margin_loss,
    oracle_problem_for,
    oracle_sample_negatives,
    oracle_score,
    oracle_train_coupled,
    random_coupled,
)


def road_graph(edges, n):
    return CoupledGraph(kind=[JUNCTION] * n, level=[0] * n, load=[0.0] * n,
                        elec_edges=[], road_edges=edges, dep_edges=[])


def _interleaved(g, seed=0):
    """g with its nodes renumbered at random, so that stations and junctions
    interleave by id."""
    perm = np.random.default_rng(seed).permutation(g.n)
    inv = np.argsort(perm)
    return CoupledGraph(kind=g.kind[perm], level=g.level[perm], load=g.load[perm],
                        elec_edges=inv[g.elec_edges], road_edges=inv[g.road_edges],
                        dep_edges=inv[g.dep_edges])


def _record_train(monkeypatch):
    """Record every embed.train call of a train_coupled run as (problem,
    cfg, F, its result)."""
    calls, real = [], embed.train

    def spy(problem, cfg, F=None, pull=0.0):
        calls.append((problem, cfg, F, real(problem, cfg, F, pull)))
        return calls[-1][-1]

    monkeypatch.setattr(embed, "train", spy)
    return calls


def test_init_features_copies_sub_embeddings(monkeypatch):
    # stations and junctions interleaved by id: each layer's embedding holds
    # one column per node of the layer, in id order, and the coupled stage
    # starts from them in those nodes' columns
    g = _interleaved(random_coupled(5))
    cfg = EmbedConfig(d=4, epochs=2, seed=3)
    st, ju = g.station_ids(), g.junction_ids()
    assert np.any(np.diff(g.kind) < 0)
    calls = _record_train(monkeypatch)
    train_coupled(g, cfg)
    (elec, _, _, (emb_e, _, _)), (road, _, _, (emb_r, _, _)), (_, _, F, _) = calls
    assert elec.ids.tobytes() == st.tobytes() and road.ids.tobytes() == ju.tobytes()
    assert emb_e.Z.shape == (4, len(st)) and emb_r.Z.shape == (4, len(ju))
    assert F.shape == (4, g.n)
    assert F[:, st].tobytes() == emb_e.Z.tobytes()
    assert F[:, ju].tobytes() == emb_r.Z.tobytes()


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
    (np.zeros((0, 4)), "embedding matrix has no rows"),
])
def test_embedding_matrix_rejects_bad_arrays(Z, message):
    with pytest.raises(EmbedError, match=f"^{message}$"):
        EmbeddingMatrix(Z)


def _untrainable(m, n):
    return (f"^nothing to train on: {m} edge\\(s\\) among {n} node\\(s\\); "
            f"training needs an edge and a non-edge pair$")


def test_problem_for_rejects_unknown_scope_and_empty_layer():
    g = road_graph([(0, 1)], 3)        # junctions only: no electricity edge
    with pytest.raises(EmbedError, match="^unknown scope 'rail'$"):
        problem_for(g, "rail", EmbedConfig())
    # the empty layer is a problem over no columns, refused at training
    problem = problem_for(g, "elec", EmbedConfig())
    assert (problem.n, problem.width, len(problem.edges), problem.trainable) == (0, 3, 0, False)
    with pytest.raises(EmbedError, match=_untrainable(0, 0)):
        train(problem, EmbedConfig(d=2, epochs=1))


def test_sample_negatives_rejects_a_pool_of_one():
    # one column, or none, has no pair to draw; three without an edge have
    # nothing to score
    for n in (1, 0, 3):
        problem = embed.EmbedProblem(n=n, edges=np.empty((0, 2)), edge_weights=np.ones(0))
        assert not problem.trainable
        rng = np.random.default_rng(0)
        start = rng.bit_generator.state
        with pytest.raises(EmbedError, match=_untrainable(0, n)):
            sample_negatives(rng, problem, 2)
        assert rng.bit_generator.state == start


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
    for name in ("nbr_rows", "nbr_cols", "deg"):
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
    calls = _record_train(monkeypatch)
    emb, params, losses = train_coupled(g, cfg)
    (elec, _, _, _), (coupled, _, F, _) = calls
    junctions = g.junction_ids()
    assert elec.ids is not None and coupled.ids is None
    assert F[:, junctions].tobytes() == random_embeddings(g, 4, 7).Z[:, junctions].tobytes()
    assert emb.Z.shape == (4, g.n) and len(losses) == 3 and np.all(np.isfinite(losses))


def test_train_coupled_without_elec_edges_uses_random_station_columns(monkeypatch):
    # two 220kV stations and no 110kV ones: the grid has no electricity edge
    g = generate(GenConfig(n_220=2, fanout_110=(0, 0), coupling_fraction=0.0, road_nodes=16))
    assert len(g.elec_edges) == 0 and len(g.road_edges) > 0
    cfg = EmbedConfig(d=4, epochs=3, seed=5)
    calls = _record_train(monkeypatch)
    emb, params, losses = train_coupled(g, cfg)
    (road, _, _, (emb_r, _, _)), (_, _, F, _) = calls
    stations, junctions = g.station_ids(), g.junction_ids()
    assert road.ids.tobytes() == junctions.tobytes()
    assert F[:, stations].tobytes() == random_embeddings(g, 4, 6).Z[:, stations].tobytes()
    assert F[:, junctions].tobytes() == emb_r.Z.tobytes()
    assert emb.Z.shape == (4, g.n) and len(losses) == 3 and np.all(np.isfinite(losses))


# Graphs with a complete layer: one road edge between the two junctions, and
# one 220kV station with one 110kV child and no 10kV leaf.
COMPLETE_LAYER_GRAPHS = {
    "road": lambda: generate(GenConfig(seed=3, road_nodes=2)),
    "elec": lambda: generate(GenConfig(n_220=1, fanout_110=(1, 1), fanout_10=(0, 0),
                                       coupling_fraction=0.0)),
}


@pytest.mark.parametrize("complete", list(COMPLETE_LAYER_GRAPHS))
def test_train_coupled_gives_a_complete_layer_random_columns(complete, monkeypatch):
    # a layer whose nodes are all joined has no non-edge pair to sample, so
    # it is not pretrained, as a layer without edges is not
    g = COMPLETE_LAYER_GRAPHS[complete]()
    cfg = EmbedConfig(d=4, epochs=3, seed=5)
    seeds = {"elec": 6, "road": 7}
    for scope in seeds:
        problem = problem_for(g, scope, cfg)
        assert problem.trainable == (scope != complete)
        full = len(problem.edges) == problem.n * (problem.n - 1) // 2
        assert full == (scope == complete)
    calls = _record_train(monkeypatch)
    emb, params, losses = train_coupled(g, cfg)
    (trained, _, _, (emb_t, _, _)), (_, _, F, _) = calls
    ids = problem_for(g, complete, cfg).ids
    assert F[:, ids].tobytes() == random_embeddings(g, 4, seeds[complete]).Z[:, ids].tobytes()
    assert F[:, trained.ids].tobytes() == emb_t.Z.tobytes()
    o_emb, o_params, o_losses = oracle_train_coupled(g, cfg)
    bound = lambda x: _rounding_bound(g.n, np.abs(x).max())
    assert np.abs(emb.Z - o_emb.Z).max() <= bound(o_emb.Z)
    assert len(losses) == 3 and all(abs(a - b) <= bound(b) for a, b in zip(losses, o_losses))


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
    problem = problem_for(g, scope, EmbedConfig())
    assume(problem.trainable)
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
    # edges need not be sorted, nor have their lower end first
    pool = np.array([2, 3, 5, 8, 9, 11])
    n = 12
    unsorted = [(11, 8), (2, 3), (5, 9)]
    # the pool has 15 pairs, 12 of them new against `unsorted`
    for taken, counts in (([], (1, 15)), (unsorted, (0, 1, 5, 12))):
        for count, seed in itertools.product(counts, range(5)):
            a, b = _buffered_rng(seed, buffered), _buffered_rng(seed, buffered)
            got = embed.draw_new_pairs(a, pool, count, n,
                                       np.array(taken, dtype=np.int64).reshape(-1, 2))
            seen, expect = {min(u, v) * n + max(u, v) for u, v in taken}, []
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


@settings(max_examples=60, deadline=None)
@given(graph=st.integers(0, 30), masked=st.booleans(), delete=st.floats(0.0, 1.0),
       add=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_every_scope_meets_the_problem_precondition(graph, masked, delete, add, seed):
    # EmbedProblem counts each neighbor pair once and tells a trainable
    # problem by counting edges; both hold only for distinct pairs, no
    # self-loops and endpoints among its columns
    g = random_coupled(graph)
    if masked:
        try:
            g = mask_graph(g, MaskSpec(delete_fraction=delete, add_fraction=add, seed=seed))
        except TransferError:
            assume(False)
    for scope in ("elec", "road", "coupled"):
        problem = problem_for(g, scope, EmbedConfig())
        u, v = problem.edges.T
        assert np.all(u != v)
        keys = np.minimum(u, v) * problem.n + np.maximum(u, v)
        assert len(np.unique(keys)) == len(keys)
        assert np.all((0 <= problem.edges) & (problem.edges < problem.n))
        pairs = {a * problem.n + b for a, b in itertools.combinations(range(problem.n), 2)}
        assert problem.trainable == (len(keys) > 0 and bool(pairs - set(keys.tolist())))


@pytest.mark.parametrize("make", [
    lambda: problem_for(road_graph([(0, 1), (1, 2), (0, 2)], 3), "road", EmbedConfig()),
    lambda: problem_for(road_graph([(u, v) for u in range(4) for v in range(u + 1, 4)], 4),
                        "road", EmbedConfig()),
], ids=["triangle", "K4"])
def test_pool_without_non_edge_pair_raises_before_drawing(make):
    problem = make()
    assert not problem.trainable
    m, n = len(problem.edges), problem.n
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    with pytest.raises(EmbedError, match=_untrainable(m, n)):
        sample_negatives(rng, problem, 4)
    assert rng.bit_generator.state == start
    with pytest.raises(EmbedError, match=_untrainable(m, n)):
        train(problem, EmbedConfig(d=2, epochs=1))


@settings(max_examples=80, deadline=None)
@given(graph=st.integers(0, 30), scope=st.sampled_from(["elec", "road", "coupled"]),
       d=st.sampled_from([1, 7, 8, 9, 16, 64]), aggregator=st.sampled_from(["sum", "mean"]),
       order=st.sampled_from("CF"), seed=st.integers(0, 10_000))
def test_neighbor_sum_matches_csr_product_bit_for_bit(graph, scope, d, aggregator, order, seed):
    # -0.0 terms, and neighborhoods of -0.0 only, tell a sum that starts from
    # +0.0 from one seeded with its first term
    rng = np.random.default_rng(seed)
    g = random_coupled(graph)
    assume(scope != "road" or len(g.road_edges) > 0)
    problem = problem_for(g, scope, EmbedConfig())
    n = problem.n
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
    assert M.flags.c_contiguous
    assert M.tobytes() == oM.tobytes(order="C")


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
        embed.EmbedProblem(n=4, edges=[(0, 1), edge], edge_weights=np.ones(2))


def test_pool_with_one_non_edge_pair_samples_it():
    g = road_graph([(0, 1), (1, 2)], 3)
    problem = problem_for(g, "road", EmbedConfig())
    assert problem.trainable
    neg = sample_negatives(np.random.default_rng(0), problem, 6)
    assert sorted(map(sorted, neg.tolist())) == [[0, 2]] * 6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), m=st.integers(1, 30),
       r=st.integers(1, 3), d=st.integers(1, 9), weighted=st.booleans())
def test_margin_gradient_matches_scatter_add_oracle(seed, n, m, r, d, weighted):
    # few nodes and many pairs, so most cells collect several terms; d up to
    # 9 gives full row blocks and a partial last one, and -0.0 entries make
    # signed-zero terms, which the byte comparison tells apart
    rng = np.random.default_rng(seed)
    cfg = EmbedConfig(d=d, margin=float(rng.uniform(0.1, 3.0)))
    Z = rng.normal(size=(d, n))
    Z[rng.random(Z.shape) < 0.2] = -0.0
    pos = rng.integers(0, n, size=(m, 2))
    neg = rng.integers(0, n, size=(m * r, 2))
    w = rng.uniform(0.0, 2.0, size=m) if weighted else None
    params = [rng.normal(size=(d, d))]
    loss, dZ = margin_loss(Z, pos, neg, cfg, pos_weights=w, params=params, want_grad=True)
    o_loss, o_dZ = oracle_margin_loss(Z, pos, neg, cfg, pos_weights=w, params=params)
    assert loss == o_loss
    assert dZ.tobytes() == o_dZ.tobytes()


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
# of `W @ M` or `G @ M.T` changes (d = 16 on desk, small n at d = 16-64). Every
# cached M is C-ordered, so a Fortran-ordered F gives the bits of its C copy.
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
            dZ = rng.normal(size=(d, g.n))
            C = np.ascontiguousarray(F)
            oZ, o_caches = oracle_forward(C, params, problem, aggregator, want_cache=True)
            o_dWs, _ = oracle_backward(dZ, params, o_caches, problem, aggregator)
            for X in (F, C):
                Z, caches = forward(X, params, problem, aggregator, want_cache=True)
                assert Z.tobytes() == oZ.tobytes()
                for (M, pre), (oM, o_pre) in zip(caches, o_caches):
                    assert M.flags.c_contiguous
                    assert M.tobytes() == oM.tobytes()
                    assert pre.tobytes() == o_pre.tobytes()
                dWs = embed._backward(dZ, params, caches, problem, aggregator)
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


# Graphs for the pool-width layer problems. `masked` deletes half the edges,
# so it has junctions without a road edge and stations without a parent or
# any electricity edge; `interleaved` renumbers it so that the two kinds mix by
# id; `childless` has 220kV roots without children.
LAYER_GRAPHS = {
    "random0": lambda: random_coupled(0),
    "random3": lambda: random_coupled(3),
    "masked": lambda: mask_graph(random_coupled(8),
                                 MaskSpec(delete_fraction=0.5, add_fraction=0.0, seed=1)),
    "interleaved": lambda: _interleaved(LAYER_GRAPHS["masked"](), seed=2),
    "childless": lambda: generate(GenConfig(seed=5, n_220=3, fanout_110=(0, 2), road_nodes=30)),
    "desk": lambda: generate(preset_config("desk", seed=0)),
}


def _layer_config(case):
    if case == "desk":
        return EmbedConfig(d=16, epochs=4, seed=5, lr=0.02)
    i = sorted(LAYER_GRAPHS).index(case)
    return EmbedConfig(d=3 + 5 * i, epochs=20, seed=i, lr=0.02, neg_ratio=1 + i % 3,
                       aggregator="mean" if i % 2 else "sum")


def _rounding_bound(p, scale):
    """2 gamma_p times scale, with gamma_p = p u / (1 - p u) and u the unit
    roundoff. See test_layer_pretraining_matches_the_full_width_oracle."""
    u = np.finfo(np.float64).eps / 2
    return 2 * p * u / (1 - p * u) * scale


def test_layer_graphs_have_isolated_junctions_and_parentless_stations():
    for case in ("masked", "interleaved", "childless"):
        g = LAYER_GRAPHS[case]()
        stations, junctions = g.station_ids(), g.junction_ids()
        assert not np.isin(stations, g.elec_edges).all(), case
        if case != "childless":
            assert not np.isin(junctions, g.road_edges).all(), case
            assert not np.isin(stations[g.level[stations] < 220], g.elec_edges[:, 1]).all()
    g = LAYER_GRAPHS["interleaved"]()
    assert np.any(np.diff(g.kind) < 0) and np.any(np.diff(g.kind) > 0)


@pytest.mark.parametrize("case", list(LAYER_GRAPHS))
def test_layer_problem_is_its_pool_relabelled(case):
    g = LAYER_GRAPHS[case]()
    cfg = EmbedConfig(edge_type_weights={"elec": 2.0, "road": 0.5, "dep": 1.0})
    for scope, ids in (("elec", g.station_ids()), ("road", g.junction_ids())):
        full = oracle_problem_for(g, scope, cfg)
        problem = problem_for(g, scope, cfg)
        assert (problem.n, problem.width) == (len(ids), g.n)
        assert problem.ids.tobytes() == ids.tobytes() == full.pool.tobytes()
        assert ids[problem.edges].tobytes() == full.edges.tobytes()
        assert problem.edge_weights.tobytes() == full.edge_weights.tobytes()
        p = len(full.pool)
        assert problem.trainable == (0 < len(full.edges) < p * (p - 1) // 2)
        assert ids[problem.nbr_rows].tobytes() == full.nbr_rows.tobytes()
        assert ids[problem.nbr_cols].tobytes() == full.nbr_cols.tobytes()
        assert problem.deg.tobytes() == full.deg[ids].tobytes()


# Bounds of a pool-width layer run against the full-width oracle. The two
# differ in how BLAS blocks the n-long contraction of each weight gradient
# G @ M.T, where G is exactly zero outside the pool; the neighbor sums and
# the hinge gradient add each column's terms in the same order at either
# width, and the negatives are the same pairs. Any order of a p-term
# sum is within gamma_p = p u / (1 - p u) of the exact sum, relative to the
# sum of the terms' magnitudes (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., §3.1), so two orders differ by at most 2 gamma_p of
# it. Z, each W and each loss are held to 2 gamma_p of their own largest
# magnitude, with p the pool size; these short runs (lr * epochs <= 0.4) do
# not amplify an epoch's difference past that. Over these cases the worst
# difference read 0.08 of its bound and the losses were equal; desk at
# d = 64 over 200 epochs differed by at most 2 u of max|Z|.
@pytest.mark.parametrize("case", list(LAYER_GRAPHS))
def test_layer_pretraining_matches_the_full_width_oracle(case, monkeypatch):
    g, cfg = LAYER_GRAPHS[case](), _layer_config(case)

    def recorder(sample, drawn):
        def record(rng, problem, count):
            drawn.append(sample(rng, problem, count))
            return drawn[-1]
        return record

    for scope, ids in (("elec", g.station_ids()), ("road", g.junction_ids())):
        full = oracle_problem_for(g, scope, cfg)
        if len(full.edges) == 0:
            continue
        negs, o_negs = [], []
        monkeypatch.setattr(embed, "sample_negatives", recorder(sample_negatives, negs))
        monkeypatch.setattr(conftest, "oracle_sample_negatives",
                            recorder(oracle_sample_negatives, o_negs))
        emb, params, losses = train(problem_for(g, scope, cfg), cfg)
        o_emb, o_params, o_losses = oracle_embed_train(full, cfg)
        assert len(negs) == len(o_negs) == cfg.epochs
        assert all(ids[a].tobytes() == b.tobytes() for a, b in zip(negs, o_negs))

        bound = lambda x: _rounding_bound(len(ids), np.abs(x).max())
        o_Z = o_emb.Z[:, ids]
        assert emb.Z.flags.c_contiguous and emb.Z.shape == o_Z.shape
        assert np.abs(emb.Z - o_Z).max() <= bound(o_Z)
        assert all(np.abs(W - oW).max() <= bound(oW) for W, oW in zip(params, o_params))
        assert len(losses) == len(o_losses)
        assert all(abs(a - b) <= bound(b) for a, b in zip(losses, o_losses))


# The coupled stage starts from layer columns that differ by the bound above,
# and its own products are the oracle's; held to the same bound over all n
# graph columns.
@pytest.mark.parametrize("case", ["random3", "masked", "interleaved", "desk"])
def test_train_coupled_matches_the_full_width_oracle_within_rounding(case):
    g, cfg = LAYER_GRAPHS[case](), _layer_config(case)
    emb, params, losses = train_coupled(g, cfg)
    o_emb, o_params, o_losses = oracle_train_coupled(g, cfg)
    bound = lambda x: _rounding_bound(g.n, np.abs(x).max())
    assert np.abs(emb.Z - o_emb.Z).max() <= bound(o_emb.Z)
    assert all(np.abs(W - oW).max() <= bound(oW) for W, oW in zip(params, o_params))
    assert len(losses) == len(o_losses)
    assert all(abs(a - b) <= bound(b) for a, b in zip(losses, o_losses))


def test_coupled_scope_keeps_graph_width_and_its_bytes_on_desk():
    # the coupled problem is today's, and a coupled `train` that draws its
    # own features, as the paper-attack probe does, gives the oracle's bits
    g = generate(preset_config("desk", seed=0))
    cfg = EmbedConfig(d=16, epochs=2, seed=3, lr=0.02)
    problem = problem_for(g, "coupled", cfg)
    want = embed.EmbedProblem(n=g.n, edges=np.stack([g.edge_u, g.edge_v], axis=1),
                              edge_weights=np.ones(len(g.edge_u)))
    assert (problem.n, problem.width, problem.ids) == (g.n, g.n, None)
    for name in ("edges", "edge_weights", "edge_keys", "nbr_rows", "nbr_cols", "deg"):
        assert getattr(problem, name).tobytes() == getattr(want, name).tobytes(), name
    assert problem.trainable
    emb, params, losses = train(problem, cfg)
    o_emb, o_params, o_losses = oracle_embed_train(problem, cfg)
    assert emb.Z.tobytes() == o_emb.Z.tobytes()
    assert all(W.tobytes() == oW.tobytes() for W, oW in zip(params, o_params))
    assert losses == o_losses
