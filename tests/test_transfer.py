import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infranet.agent import QNetParams
from infranet.cascade import RewardWeights
from infranet.embed import (
    EmbedConfig,
    EmbeddingMatrix,
    load_embedding,
    random_embeddings,
    save_embedding,
    train_coupled,
)
from infranet.graph import JUNCTION, STATION, CoupledGraph
from infranet.netgen import generate, preset_config
from infranet.transfer import (
    MaskSpec,
    RetrainConfig,
    TransferError,
    mask_graph,
    retrain,
    transfer_attack,
)

from conftest import assert_same_document, oracle_mask_graph, oracle_retrain, random_coupled


def test_mask_identity_when_fractions_zero():
    g = random_coupled(0)
    m = mask_graph(g, MaskSpec(delete_fraction=0.0, add_fraction=0.0))
    assert_same_document(m.to_json(), g.to_json())


def test_mask_preserves_node_set():
    g = random_coupled(1)
    m = mask_graph(g, MaskSpec(seed=3))
    assert m.n == g.n
    np.testing.assert_array_equal(m.kind, g.kind)
    np.testing.assert_array_equal(m.level, g.level)
    np.testing.assert_array_equal(m.load, g.load)


def test_mask_edge_counts_move_by_fractions():
    g = random_coupled(2, scale=2.0)
    spec = MaskSpec(delete_fraction=0.2, add_fraction=0.1, seed=5)
    m = mask_graph(g, spec)
    for attr in ("elec_edges", "road_edges", "dep_edges"):
        before = len(getattr(g, attr))
        after = len(getattr(m, attr))
        want = before - int(round(0.2 * before)) + int(round(0.1 * before))
        assert after == want, attr


def test_mask_deterministic():
    g = random_coupled(3)
    spec = MaskSpec(seed=9)
    assert_same_document(mask_graph(g, spec).to_json(), mask_graph(g, spec).to_json())
    other = mask_graph(g, MaskSpec(seed=10))
    # different seeds perturb differently (constructor still validates both)
    assert other.to_json() != mask_graph(g, spec).to_json()


def test_mask_keeps_layer_invariants():
    for seed in range(20):
        g = random_coupled(seed)
        m = mask_graph(g, MaskSpec(delete_fraction=0.3, add_fraction=0.2,
                                   seed=seed))
        # constructor validation would raise on forest or typing violations;
        # check supplier uniqueness explicitly
        supplied = [j for _, j in m.dep_edges]
        assert len(supplied) == len(set(supplied))
        parents = [c for _, c in m.elec_edges]
        assert len(parents) == len(set(parents))


@settings(max_examples=40, deadline=None)
@given(graph=st.integers(0, 30), seed=st.integers(0, 10_000),
       delete=st.sampled_from([0.0, 0.1, 0.3, 1.0]), add=st.sampled_from([0.0, 0.1, 0.2, 0.5]))
def test_mask_matches_one_pair_at_a_time_oracle(graph, seed, delete, add):
    g = random_coupled(graph)
    spec = MaskSpec(delete_fraction=delete, add_fraction=add, seed=seed)
    try:
        m = mask_graph(g, spec)
    except TransferError:
        return          # a spec the graph cannot satisfy; the oracle may hang on it
    assert_same_document(m.to_json(), oracle_mask_graph(g, spec).to_json())


def test_mask_matches_oracle_on_desk():
    g = generate(preset_config("desk", seed=0))
    for seed in range(10):
        for spec in (MaskSpec(seed=seed), MaskSpec(0.3, 0.2, seed=seed)):
            assert_same_document(mask_graph(g, spec).to_json(),
                                 oracle_mask_graph(g, spec).to_json())


def test_mask_matches_oracle_on_paper():
    g = generate(preset_config("paper", seed=0))
    for spec in (MaskSpec(seed=0), MaskSpec(0.3, 0.2, seed=1)):
        assert_same_document(mask_graph(g, spec).to_json(), oracle_mask_graph(g, spec).to_json())


def test_mask_rejects_orphans_without_a_parent_level():
    # 110kV stations 0 and 2 and no 220kV station to re-parent them under
    g = CoupledGraph(kind=[STATION] * 3, level=[110, 10, 110], load=[0.0, 5.0, 0.0],
                     elec_edges=[(0, 1)], road_edges=[], dep_edges=[])
    with pytest.raises(TransferError, match=r"no valid parent level for station [02]$"):
        mask_graph(g, MaskSpec(delete_fraction=0.0, add_fraction=1.0, seed=0))


def test_mask_rejects_more_road_additions_than_non_edges():
    # K5 minus one edge: 9 road edges and a single junction pair left free
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)][1:]
    g = CoupledGraph(kind=[JUNCTION] * 5, level=[0] * 5, load=[0.0] * 5,
                     elec_edges=[], road_edges=pairs, dep_edges=[])
    with pytest.raises(TransferError, match="cannot add 4 road edges: only 1 junction pair"):
        mask_graph(g, MaskSpec(delete_fraction=0.0, add_fraction=0.5, seed=0))
    m = mask_graph(g, MaskSpec(delete_fraction=0.0, add_fraction=0.1, seed=0))
    assert len(m.road_edges) == 10


def test_mask_rejects_more_dependency_additions_than_unsupplied_junctions():
    # both junctions are supplied; 0.4 of 2 dependency edges rounds to one addition
    g = CoupledGraph(kind=[STATION, JUNCTION, JUNCTION], level=[10, 0, 0],
                     load=[5.0, 0.0, 0.0], elec_edges=[], road_edges=[(1, 2)],
                     dep_edges=[(0, 1), (0, 2)])
    with pytest.raises(TransferError, match="^cannot add 1 dependency edges: "
                                            "only 0 unsupplied junctions remain$"):
        mask_graph(g, MaskSpec(delete_fraction=0.0, add_fraction=0.4, seed=0))


def test_mask_bad_fraction():
    g = random_coupled(0)
    with pytest.raises(TransferError):
        mask_graph(g, MaskSpec(delete_fraction=1.5))
    with pytest.raises(TransferError, match="seed must be >= 0, got -1"):
        mask_graph(g, MaskSpec(seed=-1))


def test_retrain_pulls_embeddings_toward_originals():
    g = random_coupled(4)
    ecfg = EmbedConfig(d=6, epochs=20, seed=0)
    emb, _, _ = train_coupled(g, ecfg)
    m = mask_graph(g, MaskSpec(seed=1))
    weak = retrain(m, emb, RetrainConfig(epochs=40, distance_weight=0.0,
                                         lr=0.01, seed=0))[0]
    strong = retrain(m, emb, RetrainConfig(epochs=40, distance_weight=100.0,
                                           lr=0.01, seed=0))[0]
    dist = lambda e: float(np.sum((e.Z - emb.Z) ** 2))
    assert dist(strong) < dist(weak)


def test_retrain_loss_decreases():
    g = random_coupled(5)
    emb = random_embeddings(g, 6, 0)
    m = mask_graph(g, MaskSpec(seed=2))
    _, losses = retrain(m, emb, RetrainConfig(epochs=60, lr=0.01, seed=0))
    assert losses[-1] < losses[0]


def test_retrain_column_mismatch():
    g = random_coupled(5)
    bad = EmbeddingMatrix(np.zeros((4, g.n + 1)))
    with pytest.raises(TransferError):
        retrain(g, bad, RetrainConfig())


@pytest.mark.parametrize("overrides, message", [
    ({"lr": -0.5}, "lr must be > 0, got -0.5"),
    ({"lr": 0.0}, "lr must be > 0, got 0.0"),
    ({"epochs": 0}, "epochs must be >= 1, got 0"),
    ({"distance_weight": -1.0}, "distance_weight must be >= 0, got -1.0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_retrain_config_rejects_bad_values(overrides, message):
    g = random_coupled(5)
    emb = random_embeddings(g, 4, 0)
    with pytest.raises(TransferError, match=message):
        retrain(g, emb, RetrainConfig(**overrides))


@pytest.mark.parametrize("lr", [1e-3, 0.05])
@pytest.mark.parametrize("distance_weight", [0.0, 1.0, 100.0])
@pytest.mark.parametrize("seed", range(3))
def test_retrain_matches_epoch_loop_oracle(seed, distance_weight, lr):
    # retrain is embed.train with a pull term; the written-out loop must give
    # the same bits
    g = random_coupled(seed + 20)
    emb = random_embeddings(g, 4 + 2 * seed, seed)
    m = mask_graph(g, MaskSpec(seed=seed))
    cfg = RetrainConfig(epochs=8, distance_weight=distance_weight, lr=lr, seed=seed)
    new, losses = retrain(m, emb, cfg)
    ref, ref_losses = oracle_retrain(m, emb, cfg)
    assert new.Z.tobytes() == ref.Z.tobytes()
    assert losses == ref_losses


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [16, 32, 64])
def test_retrain_does_not_depend_on_embedding_layout(d, order):
    # on these sizes `W @ M` gives other bits for another memory order of M;
    # every layer input is C-ordered, so an F-ordered embedding retrains to
    # the bits of its C copy
    g = random_coupled(3)
    c_emb = random_embeddings(g, d, 0)
    emb = EmbeddingMatrix(np.asarray(c_emb.Z, order=order))
    m = mask_graph(g, MaskSpec(seed=0))
    cfg = RetrainConfig(epochs=4, lr=0.05, seed=1)
    new, losses = retrain(m, emb, cfg)
    c_new, c_losses = retrain(m, c_emb, cfg)
    ref, ref_losses = oracle_retrain(m, c_emb, cfg)
    assert new.Z.tobytes() == c_new.Z.tobytes() == ref.Z.tobytes()
    assert losses == c_losses == ref_losses


def test_retrain_from_a_saved_embedding_matches_the_in_memory_run(tmp_path):
    # desk at d = 16 is a size where `W @ M` takes another BLAS path for an
    # F-ordered M; both runs give the bits of the written-out loop
    g = generate(preset_config("desk", seed=0))
    emb = random_embeddings(g, 16, 0)
    save_embedding(tmp_path / "emb.bin", emb)
    m = mask_graph(g, MaskSpec(seed=0))
    cfg = RetrainConfig(epochs=2, seed=0)
    new, losses = retrain(m, emb, cfg)
    loaded, loaded_losses = retrain(m, load_embedding(tmp_path / "emb.bin"), cfg)
    ref, ref_losses = oracle_retrain(m, emb, cfg)
    assert loaded.Z.tobytes() == new.Z.tobytes() == ref.Z.tobytes()
    assert loaded_losses == losses == ref_losses


def test_retrain_deterministic():
    g = random_coupled(6)
    emb = random_embeddings(g, 4, 1)
    m = mask_graph(g, MaskSpec(seed=0))
    cfg = RetrainConfig(epochs=10, lr=0.01, seed=7)
    a, la = retrain(m, emb, cfg)
    b, lb = retrain(m, emb, cfg)
    np.testing.assert_array_equal(a.Z, b.Z)
    assert la == lb


def test_transfer_attack_freezes_parameters():
    g = random_coupled(7)
    emb = random_embeddings(g, 4, 0)
    m = mask_graph(g, MaskSpec(seed=0))
    params = QNetParams.init(4, np.random.default_rng(0))
    before = params.checksum()
    rep = transfer_attack(m, emb, params, 4, RewardWeights.normalized(m))
    assert params.checksum() == before
    assert rep.method == "transfer"
    assert len(rep.nodes) == 4


def test_transfer_attack_detects_mutation(monkeypatch):
    g = random_coupled(7)
    emb = random_embeddings(g, 4, 0)
    params = QNetParams.init(4, np.random.default_rng(0))

    import infranet.transfer as tr

    real = tr.agent_mod.greedy_attack
    monkeypatch.setattr(tr.agent_mod, "greedy_attack",
                        lambda *a, **k: (params.theta2.__iadd__(1.0), real(*a, **k))[1])
    with pytest.raises(TransferError, match="changed during transfer"):
        transfer_attack(g, emb, params, 2)
