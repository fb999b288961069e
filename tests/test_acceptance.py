"""Acceptance gate: nine end-to-end criteria with one printed pass/fail line
each. Heavy artifacts (the desk-scale graph, its pretrained embedding, the
trained value network) are session fixtures shared across criteria.
"""

import time

import numpy as np
import pytest
from scipy import stats

from infranet import baselines
from infranet.agent import AgentConfig, greedy_attack, select_action, td_loss, train
from infranet.agent import QNetParams
from infranet.cascade import RewardWeights, damage
from infranet.cli import main as cli_main
from infranet.embed import (
    EmbedConfig,
    init_params,
    loss_and_grads,
    problem_for,
    random_embeddings,
    sample_negatives,
    train_coupled,
)
from infranet.graph import NORMAL, STATION
from infranet.netgen import GenConfig, generate, preset_config
from infranet.transfer import MaskSpec, RetrainConfig, mask_graph, retrain, transfer_attack

from conftest import (
    central_diff_check,
    oracle_ci,
    oracle_degree,
    oracle_gcc,
    oracle_power,
    oracle_sigma,
    random_coupled,
)

pytestmark = pytest.mark.slow


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def desk():
    return generate(preset_config("desk", seed=0))


@pytest.fixture(scope="session")
def desk_weights(desk):
    return RewardWeights.normalized(desk)


@pytest.fixture(scope="session")
def desk_embedding(desk):
    emb, _, _ = train_coupled(desk, EmbedConfig(d=64, depth=2, epochs=200, seed=0))
    return emb


@pytest.fixture(scope="session")
def trained_agent(desk, desk_embedding, desk_weights):
    """500-episode training run on the desk preset; wall time kept for
    the comparison criterion's budget check."""
    t0 = time.time()
    cfg = AgentConfig(budget=10, episodes=500, seed=0, weights=desk_weights)
    params, log = train(desk, desk_embedding, cfg)
    return params, log, time.time() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_1_metric_oracles():
    t0 = time.time()
    checked = 0
    for seed in range(100):
        g = random_coupled(seed, scale=2.0)
        assert g.n <= 200
        rng = np.random.default_rng(seed)
        for v in rng.permutation(g.n)[:3]:
            if g.state[v] == NORMAL:
                damage(g, int(v))
        from infranet.cascade import gcc, sigma

        assert sigma(g) == oracle_sigma(g)
        assert gcc(g) == oracle_gcc(g)
        degs = g.degrees()
        for v in range(g.n):
            assert degs[v] == oracle_degree(g, v)
        scores = baselines.ci_scores(g)
        want = oracle_ci(g)
        for v, s in want.items():
            assert scores[v] == s
        checked += 1
    elapsed = time.time() - t0
    report(1, checked == 100 and elapsed < 10.0,
           f"sigma/gcc/degree/CI exact on {checked} graphs in {elapsed:.1f}s")


def test_criterion_2_cascade_oracle():
    checked = 0
    for seed in range(100):
        g = random_coupled(seed + 500, scale=3.0)
        assert g.n <= 500
        rng = np.random.default_rng(seed)
        for _ in range(4):
            normal = np.flatnonzero(g.state == NORMAL)
            if len(normal) == 0:
                break
            v = int(rng.choice(normal))
            dead_before = set(map(int, np.flatnonzero(g.state != NORMAL)))
            out = damage(g, v)
            assert out.power_after == oracle_power(g)
            dead_after = set(map(int, np.flatnonzero(g.state != NORMAL)))
            assert out.newly_invalid == dead_after - dead_before - {v}
        checked += 1
    report(2, checked == 100, f"power and invalid sets exact on {checked} forests")


def test_criterion_3_gradient_checks():
    t0 = time.time()
    margin_ok = td_ok = 0
    for seed in range(20):
        g = generate(GenConfig(seed=seed, n_220=1, fanout_110=(1, 2),
                               fanout_10=(1, 3), road_nodes=20 + seed,
                               coupling_fraction=0.5))
        assert g.n <= 50
        cfg = EmbedConfig(d=4, depth=2, l2=1e-3, seed=seed)
        problem = problem_for(g, "coupled", cfg)
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(4, g.n)) * 0.5
        params = init_params(cfg, rng)
        neg = sample_negatives(rng, problem, len(problem.edges))
        _, dWs = loss_and_grads(F, params, problem, neg, cfg)
        fn = lambda: loss_and_grads(F, params, problem, neg, cfg)[0]
        if central_diff_check(fn, params, dWs,
                              np.random.default_rng(seed + 1), rtol=1e-3) >= 4:
            margin_ok += 1

        d, n = 5, 20
        Z = rng.normal(size=(d, n))
        qp = QNetParams.init(d, rng)
        batch = (rng.normal(size=(6, d)), rng.integers(0, n, size=6),
                 rng.normal(size=6), rng.normal(size=(6, d)),
                 rng.random(6) < 0.3, rng.random((6, n)) < 0.8)
        batch[5][:, 0] = True
        _, d1, d2 = td_loss(batch, Z, qp, gamma=0.9, want_grad=True)
        fn2 = lambda: td_loss(batch, Z, qp, gamma=0.9)
        if central_diff_check(fn2, [qp.theta1, qp.theta2], [d1, d2],
                              np.random.default_rng(seed + 2), rtol=1e-3) >= 4:
            td_ok += 1
    elapsed = time.time() - t0
    report(3, margin_ok == 20 and td_ok == 20 and elapsed < 60.0,
           f"margin {margin_ok}/20 and TD {td_ok}/20 instances within 1e-3 "
           f"in {elapsed:.1f}s")


def test_criterion_4_monotonicity(desk):
    from infranet.cascade import gcc

    violations = 0
    trajectories = 0
    graphs = [desk] + [generate(preset_config("desk", seed=s)) for s in (1, 2, 3)]
    rng = np.random.default_rng(0)
    while trajectories < 1000:
        g = graphs[trajectories % len(graphs)].fork()
        for _ in range(4):
            normal = np.flatnonzero(g.state == NORMAL)
            v = int(rng.choice(normal))
            out = damage(g, v)
            if (out.power_after > out.power_before
                    or out.sigma_after > out.sigma_before
                    or out.gcc_after > gcc(g)):
                violations += 1
        trajectories += 1
    report(4, violations == 0,
           f"{trajectories} random trajectories, {violations} monotonicity violations")


def test_criterion_5_agent_beats_baselines(desk, desk_weights, desk_embedding,
                                           trained_agent):
    params, _, train_seconds = trained_agent
    agent = greedy_attack(desk, desk_embedding, params, 10, desk_weights)
    de = baselines.de_attack(desk, 10, desk_weights).final_cum_reward
    ci = baselines.ci_attack(desk, 10, radius=1,
                             weights=desk_weights).final_cum_reward
    rnd = max(baselines.random_attack(desk, 10, seed=s,
                                      weights=desk_weights).final_cum_reward
              for s in range(10))
    bar = max(de, ci, rnd)
    ok = agent.final_cum_reward >= bar and train_seconds <= 1800.0
    report(5, ok,
           f"agent {agent.final_cum_reward:.4f} vs best baseline {bar:.4f} "
           f"(de {de:.4f}, ci {ci:.4f}, random {rnd:.4f}); "
           f"training {train_seconds:.0f}s")


def test_criterion_6_pretrained_beats_random_embeddings(desk, desk_weights,
                                                        desk_embedding):
    pre, rnd = [], []
    for seed in range(5):
        cfg = AgentConfig(budget=10, episodes=150, seed=seed, weights=desk_weights)
        p, _ = train(desk, desk_embedding, cfg)
        pre.append(greedy_attack(desk, desk_embedding, p, 10,
                                 desk_weights).final_cum_reward)
        remb = random_embeddings(desk, 64, seed)
        p, _ = train(desk, remb, cfg)
        rnd.append(greedy_attack(desk, remb, p, 10,
                                 desk_weights).final_cum_reward)
    report(6, float(np.mean(pre)) >= float(np.mean(rnd)),
           f"mean final cum reward: pretrained {np.mean(pre):.4f} "
           f"vs random {np.mean(rnd):.4f} over 5 seeds")


def test_criterion_7_transfer_beats_ci(desk, desk_embedding, trained_agent):
    params, _, _ = trained_agent
    gm = mask_graph(desk, MaskSpec(delete_fraction=0.1, add_fraction=0.1, seed=0))
    wm = RewardWeights.normalized(gm)
    new_emb, _ = retrain(gm, desk_embedding,
                         RetrainConfig(epochs=50, distance_weight=1.0,
                                       lr=1e-3, seed=0))
    rep = transfer_attack(gm, new_emb, params, 10, wm)
    ci = baselines.ci_attack(gm, 10, radius=1, weights=wm).final_cum_reward
    report(7, rep.final_cum_reward >= ci,
           f"transfer {rep.final_cum_reward:.4f} vs CI {ci:.4f} on masked graph")


def test_criterion_8_cli_determinism(tmp_path):
    graph = tmp_path / "g.json"
    invocations = {
        "generate": ["generate", "--seed", "3", "--road-nodes", "36",
                     "--coupling-fraction", "0.5"],
        "attack": None,   # filled once the graph exists
        "baseline": None,
        "embed": None,
    }
    cli_main(invocations["generate"] + ["--out", str(graph)])
    invocations["attack"] = ["attack", "--graph", str(graph), "--nodes", "0,1,2"]
    invocations["baseline"] = ["baseline", "--kind", "random", "--graph",
                               str(graph), "--budget", "4", "--seed", "7"]
    invocations["embed"] = ["embed", "--graph", str(graph), "--d", "6",
                            "--epochs", "5"]
    mismatches = []
    for name, args in invocations.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        cli_main(args + ["--out", str(a)])
        cli_main(args + ["--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            mismatches.append(name)
    report(8, not mismatches,
           f"byte-identical reruns for {len(invocations)} subcommands"
           + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_9_epsilon_greedy_statistics():
    rng = np.random.default_rng(0)
    n = 20
    counts = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    scores = rng.normal(size=n)
    for _ in range(10_000):
        counts[select_action(scores, 1.0, rng, alive)] += 1
    p = stats.chisquare(counts).pvalue
    argmax_ok = True
    for _ in range(1000):
        s = rng.normal(size=n)
        if select_action(s, 0.0, rng, alive) != int(np.argmax(s)):
            argmax_ok = False
            break
    report(9, p > 0.01 and argmax_ok,
           f"uniformity chi-square p={p:.4f} at 10^4 draws; "
           f"greedy equals argmax on 10^3 vectors: {argmax_ok}")
