"""Reference attack strategies: degree (DE), collective influence (CI),
supervised dismantling (GDM), and uniform random.

All emit the same AttackReport as the agent. DE and GDM rank once on the
intact graph; a ranked node that the cascade has already killed by its turn
is a recorded no-op step. CI re-scores the alive view before every pick.
GDM's label cut is numpy's linear quantile, computed from a plain sort.

CI (Morone & Makse, Nature 524, 2015) works on the graph's all-layer edge
arrays (`edge_u`, `edge_v`) with the dead edges masked out. The ball
boundary at radius l is the set of nodes at exactly l hops; a node whose
ball ends sooner has an empty boundary and scores 0. Radius 1 is three
bincounts: about 1 ms a call on the paper preset (n=15,774). Radius l > 1
steps every source's breadth-first search together over the alive edges'
`graph.adjacency` CSR: about 35 ms and 25 MB at radius 2 on paper, 95 ms
and 61 MB at radius 3 (one BLAS thread, median of 9 calls; the memory is
the peak of numpy's allocations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cascade
from .cascade import AttackReport, RewardWeights
from .graph import NORMAL, CoupledGraph, adjacency, neighbors, unique_keys


class BaselineError(ValueError):
    pass


def de_ranking(g: CoupledGraph) -> np.ndarray:
    """Node ids by descending degree, lowest id first on ties."""
    deg = g.degrees()
    return np.lexsort((np.arange(g.n), -deg))


def de_attack(g: CoupledGraph, budget: int, weights: RewardWeights = None) -> AttackReport:
    cascade.check_budget(g, budget, BaselineError)
    order = de_ranking(g)[:budget]
    return cascade.replay_attack(g, order, weights, method="de")


def ci_scores(g: CoupledGraph, radius: int = 1) -> np.ndarray:
    """Collective influence on the alive view: (d_v - 1) * sum of (d_u - 1)
    over the nodes u at exactly `radius` hops from v, where d counts alive
    edges (both ends Normal). Dead nodes score -inf."""
    if not cascade.is_int(radius):
        raise BaselineError(f"CI radius must be an integer, got {radius!r}")
    if radius < 1:
        raise BaselineError(f"CI radius must be >= 1, got {radius}")
    n = g.n
    alive = g.state == NORMAL
    keep = alive[g.edge_u] & alive[g.edge_v]
    u, v = g.edge_u[keep], g.edge_v[keep]
    excess = np.bincount(u, minlength=n) + np.bincount(v, minlength=n) - 1
    # (source, node) pairs at exactly `radius` hops: the alive edges both ways
    # at radius 1, a breadth-first expansion beyond
    head, tail = np.concatenate([u, v]), np.concatenate([v, u])
    if radius > 1:
        head, tail = _ring(n, u, v, radius)
    # integer sums below 2**53 are exact in float64
    boundary = np.bincount(head, weights=excess[tail], minlength=n).astype(np.int64)
    scores = np.full(n, -np.inf)
    scores[alive] = (excess * boundary)[alive]
    return scores


def _ring(n: int, u: np.ndarray, v: np.ndarray, radius: int):
    """(source, node) pairs with node exactly `radius` hops from source over
    the undirected simple graph of the edges u-v.

    All sources step together from hop 0, each pair encoded as source * n +
    node. In an undirected graph the neighbours of hop-k nodes lie at hop
    k-1, k or k+1, so dropping the pairs of the last two hops leaves hop k+1.
    """
    start, nbr = adjacency(n, u, v)
    before, ring = np.empty(0, dtype=np.int64), np.arange(n, dtype=np.int64) * (n + 1)
    for _ in range(radius):
        if not len(ring):       # past the farthest node every ring is empty
            break
        src, node = np.divmod(ring, n)
        reach, count = neighbors(start, nbr, node)
        step = unique_keys(np.repeat(src * n, count) + reach)
        step = step[~np.isin(step, ring, assume_unique=True)
                    & ~np.isin(step, before, assume_unique=True)]
        before, ring = ring, step
    return np.divmod(ring, n)


def ci_attack(g: CoupledGraph, budget: int, radius: int = 1,
              weights: RewardWeights = None) -> AttackReport:
    cascade.check_budget(g, budget, BaselineError)

    def policy(graph, k):
        return np.argmax(ci_scores(graph, radius))

    return cascade.run_attack(g, policy, budget, weights, method="ci")


@dataclass(frozen=True)
class GdmConfig:
    sample_count: int = 200
    positive_quantile: float = 0.2   # top fraction of sampled rewards labeled positive
    hidden: int = 0                  # 0 = embedding dimension
    lr: float = 0.1
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        cascade.check_fields(self, BaselineError, lambda: (
            ("sample_count", self.sample_count >= 2, "be >= 2"),
            ("positive_quantile", 0.0 < self.positive_quantile < 1.0, "be in (0,1)"),
            ("hidden", self.hidden >= 0, "be >= 0"),
            ("lr", self.lr > 0, "be > 0"),
            ("lr", self.lr < np.inf, "be finite"),
            ("epochs", self.epochs >= 0, "be >= 0"),
            ("seed", self.seed >= 0, "be >= 0"),
        ))


def gdm_labels(g: CoupledGraph, cfg: GdmConfig, weights: RewardWeights):
    """Sample single-node damages and label the top rewards positive."""
    rng = np.random.default_rng(cfg.seed)
    count = min(cfg.sample_count, g.n)
    nodes = rng.permutation(g.n)[:count]
    rewards = np.empty(count)
    env = cascade.AttackEnv(g, weights)
    for i, v in enumerate(nodes):
        env.reset()
        rewards[i] = env.step(v)
    cut = _linear_quantile(rewards, 1.0 - cfg.positive_quantile)
    labels = rewards >= cut
    if labels.all():
        # ties at the cut: the cut equals the minimum reward
        labels = rewards > cut
    if labels.min() == labels.max():
        raise BaselineError("degenerate GDM labels: all samples in one class")
    return nodes, labels.astype(np.float64), rewards


def _linear_quantile(values: np.ndarray, q: float):
    """numpy's linear quantile of finite values, up to a zero's sign: its index
    rule and _lerp arithmetic over a plain sort, which imports no numpy.ma."""
    at = (len(values) - 1) * q
    i = int(at)                 # q <= 1, so i <= len - 1
    lo, hi = np.sort(values)[[i, min(i + 1, len(values) - 1)]]
    t, diff = at - i, hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


def _train_mlp(X, y, hidden, lr, epochs, rng):
    """Two-layer perceptron with logistic loss, full-batch gradient descent."""
    d, m = X.shape
    bound = 1.0 / np.sqrt(d)
    W1 = rng.uniform(-bound, bound, size=(hidden, d))
    b1 = np.zeros(hidden)
    w2 = rng.uniform(-bound, bound, size=hidden)
    b2 = 0.0
    for epoch in range(epochs):
        pre = W1 @ X + b1[:, None]
        h = np.maximum(pre, 0.0)
        logits = w2 @ h + b2
        if not np.isfinite(logits).all():
            raise BaselineError(f"GDM training diverged at epoch {epoch}")
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


@np.errstate(over="ignore", invalid="ignore")    # a diverging net raises below
def gdm_scores(g: CoupledGraph, emb, cfg: GdmConfig, weights: RewardWeights):
    Z = emb.Z
    if Z.shape[1] != g.n:
        raise BaselineError("embedding column count does not match the graph")
    nodes, labels, _ = gdm_labels(g, cfg, weights)
    rng = np.random.default_rng(cfg.seed + 1)
    hidden = cfg.hidden or Z.shape[0]
    W1, b1, w2, b2 = _train_mlp(Z[:, nodes], labels, hidden, cfg.lr, cfg.epochs, rng)
    h = np.maximum(W1 @ Z + b1[:, None], 0.0)
    scores = w2 @ h + b2
    if not np.isfinite(scores).all():      # the net can still overflow on unsampled nodes
        raise BaselineError("GDM scores are not finite")
    return scores


def gdm_attack(g: CoupledGraph, emb, budget: int, cfg: GdmConfig = GdmConfig(),
               weights: RewardWeights = None) -> AttackReport:
    cascade.check_budget(g, budget, BaselineError)
    scores = gdm_scores(g, emb, cfg, weights)
    order = np.lexsort((np.arange(g.n), -scores))[:budget]
    return cascade.replay_attack(g, order, weights, method="gdm")


def random_attack(g: CoupledGraph, budget: int, seed: int = 0,
                  weights: RewardWeights = None) -> AttackReport:
    cascade.check_budget(g, budget, BaselineError)
    rng = np.random.default_rng(seed)
    normal = np.flatnonzero(g.state == NORMAL)
    order = rng.permutation(normal)[:budget]
    return cascade.replay_attack(g, order, weights, method="random")
