"""Reference attack strategies: degree (DE), collective influence (CI),
supervised dismantling (GDM), and uniform random.

All emit the same AttackReport as the agent. DE and GDM rank once on the
intact graph; a ranked node that the cascade has already killed by its turn
is a recorded no-op step. CI re-scores the alive view before every pick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cascade
from .cascade import AttackReport, RewardWeights
from .graph import NORMAL, CoupledGraph


class BaselineError(ValueError):
    pass


def _check_budget(g: CoupledGraph, budget: int):
    if budget > int(np.sum(g.state == NORMAL)):
        raise BaselineError("budget exceeds the number of Normal nodes")


def de_ranking(g: CoupledGraph) -> np.ndarray:
    """Node ids by descending degree, lowest id first on ties."""
    deg = g.degrees()
    return np.lexsort((np.arange(g.n), -deg))


def de_attack(g: CoupledGraph, budget: int, weights: RewardWeights = None) -> AttackReport:
    _check_budget(g, budget)
    weights = weights or RewardWeights.normalized(g)
    order = de_ranking(g)[:budget]
    return cascade.replay_attack(g, order, weights, method="de")


def ci_scores(g: CoupledGraph, radius: int = 1) -> np.ndarray:
    """Collective influence on the alive view: (d_v - 1) * sum of (d_u - 1)
    over the ball boundary at the given radius. Dead nodes score -inf."""
    if radius < 1:
        raise BaselineError("CI radius must be >= 1")
    alive = g.state == NORMAL
    deg = np.zeros(g.n, dtype=np.int64)
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.all_edges():
        if alive[u] and alive[v]:
            deg[u] += 1
            deg[v] += 1
            adj[u].append(v)
            adj[v].append(u)
    scores = np.full(g.n, -np.inf)
    for v in np.flatnonzero(alive):
        # BFS out to the boundary at exactly `radius` hops
        dist = {int(v): 0}
        frontier = [int(v)]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        boundary = frontier
        scores[v] = (deg[v] - 1) * sum(deg[u] - 1 for u in boundary)
    return scores


def ci_attack(g: CoupledGraph, budget: int, radius: int = 1,
              weights: RewardWeights = None) -> AttackReport:
    _check_budget(g, budget)
    weights = weights or RewardWeights.normalized(g)

    def policy(graph, k):
        scores = ci_scores(graph, radius)
        return int(np.argmax(scores))

    return cascade.run_attack(g, policy, budget, weights, method="ci")


@dataclass(frozen=True)
class GdmConfig:
    sample_count: int = 200
    positive_quantile: float = 0.2   # top fraction of sampled rewards labeled positive
    hidden: int = 0                  # 0 = embedding dimension
    lr: float = 0.1
    epochs: int = 300
    seed: int = 0

    def validate(self):
        if not 0.0 < self.positive_quantile < 1.0:
            raise BaselineError("positive_quantile must lie in (0,1)")
        if self.sample_count < 2:
            raise BaselineError("need at least two labeled samples")


def gdm_labels(g: CoupledGraph, cfg: GdmConfig, weights: RewardWeights):
    """Sample single-node damages and label the top rewards positive."""
    rng = np.random.default_rng(cfg.seed)
    count = min(cfg.sample_count, g.n)
    nodes = rng.permutation(g.n)[:count]
    rewards = np.empty(count)
    env = cascade.AttackEnv(g, weights)
    for i, v in enumerate(nodes):
        env.reset()
        rewards[i] = env.step(v)[0]
    cut = np.quantile(rewards, 1.0 - cfg.positive_quantile)
    labels = rewards >= cut
    if labels.all():
        # ties at the cut: the cut equals the minimum reward
        labels = rewards > cut
    if labels.min() == labels.max():
        raise BaselineError("degenerate GDM labels: all samples in one class")
    return nodes, labels.astype(np.float64), rewards


def _train_mlp(X, y, hidden, lr, epochs, rng):
    """Two-layer perceptron with logistic loss, full-batch gradient descent."""
    d, m = X.shape
    bound = 1.0 / np.sqrt(d)
    W1 = rng.uniform(-bound, bound, size=(hidden, d))
    b1 = np.zeros(hidden)
    w2 = rng.uniform(-bound, bound, size=hidden)
    b2 = 0.0
    for _ in range(epochs):
        pre = W1 @ X + b1[:, None]
        h = np.maximum(pre, 0.0)
        logits = w2 @ h + b2
        p = 1.0 / (1.0 + np.exp(-logits))
        dlogit = (p - y) / m
        dw2 = h @ dlogit
        db2 = dlogit.sum()
        dh = np.outer(w2, dlogit) * (pre > 0)
        dW1 = dh @ X.T
        db1 = dh.sum(axis=1)
        W1 -= lr * dW1
        b1 -= lr * db1
        w2 -= lr * dw2
        b2 -= lr * db2
    return W1, b1, w2, b2


def gdm_scores(g: CoupledGraph, emb, cfg: GdmConfig, weights: RewardWeights):
    cfg.validate()
    Z = emb.Z if hasattr(emb, "Z") else np.asarray(emb)
    nodes, labels, _ = gdm_labels(g, cfg, weights)
    rng = np.random.default_rng(cfg.seed + 1)
    hidden = cfg.hidden or Z.shape[0]
    W1, b1, w2, b2 = _train_mlp(Z[:, nodes], labels, hidden, cfg.lr, cfg.epochs, rng)
    h = np.maximum(W1 @ Z + b1[:, None], 0.0)
    return w2 @ h + b2


def gdm_attack(g: CoupledGraph, emb, budget: int, cfg: GdmConfig = GdmConfig(),
               weights: RewardWeights = None) -> AttackReport:
    _check_budget(g, budget)
    weights = weights or RewardWeights.normalized(g)
    scores = gdm_scores(g, emb, cfg, weights)
    order = np.lexsort((np.arange(g.n), -scores))[:budget]
    return cascade.replay_attack(g, order, weights, method="gdm")


def random_attack(g: CoupledGraph, budget: int, seed: int = 0,
                  weights: RewardWeights = None) -> AttackReport:
    _check_budget(g, budget)
    weights = weights or RewardWeights.normalized(g)
    rng = np.random.default_rng(seed)
    normal = np.flatnonzero(g.state == NORMAL)
    order = rng.permutation(normal)[:budget]
    return cascade.replay_attack(g, order, weights, method="random")
