"""DQN vulnerable-node detector over fixed node embeddings.

The environment state is the mean of the embeddings of not-yet-chosen nodes.
Each node's action value is the pooled state dotted with a two-layer
transform of the node's embedding. Training uses a FIFO replay buffer, a
periodically synced target network, an epsilon-greedy policy, and plain SGD
on the squared TD error; gradients are hand-derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cascade
from .cascade import AttackReport, RewardWeights
from .graph import NORMAL, CoupledGraph
from . import serial


class AgentError(ValueError):
    pass


@dataclass(frozen=True)
class AgentConfig:
    budget: int = 10
    gamma: float = 0.99
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 0      # 0 = half of episodes*budget
    buffer_size: int = 100_000
    batch_size: int = 64
    target_sync: int = 100        # env steps between target copies
    lr: float = 1e-3
    episodes: int = 500
    seed: int = 0
    weights: RewardWeights = None  # None = normalized per graph

    def validate(self):
        if self.budget < 1 or not 0.0 <= self.gamma <= 1.0:
            raise AgentError("need budget >= 1 and gamma in [0,1]")
        if self.buffer_size < self.batch_size:
            raise AgentError("buffer must hold at least one batch")


@dataclass
class QNetParams:
    theta1: np.ndarray            # (2d, d)
    theta2: np.ndarray            # (d, 2d)
    theta1_hat: np.ndarray = None
    theta2_hat: np.ndarray = None

    def __post_init__(self):
        if self.theta1_hat is None:
            self.sync_target()

    @classmethod
    def init(cls, d: int, rng) -> "QNetParams":
        bound = 1.0 / np.sqrt(d)
        return cls(
            theta1=rng.uniform(-bound, bound, size=(2 * d, d)),
            theta2=rng.uniform(-bound, bound, size=(d, 2 * d)),
        )

    def sync_target(self):
        self.theta1_hat = self.theta1.copy()
        self.theta2_hat = self.theta2.copy()

    def checksum(self) -> float:
        return float(np.sum(self.theta1) + np.sum(self.theta2))


@dataclass
class Transition:
    s: np.ndarray
    action: int
    r: float
    s_next: np.ndarray
    done: bool
    next_alive: np.ndarray        # bool mask; needed by the masked TD max


class ReplayBuffer:
    """FIFO ring of transitions; alive masks are stored bit-packed."""

    def __init__(self, capacity: int, d: int, n_nodes: int):
        self.capacity = capacity
        self.n_nodes = n_nodes
        self.s = np.zeros((capacity, d))
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, d))
        self.done = np.zeros(capacity, dtype=bool)
        self.masks = np.zeros((capacity, (n_nodes + 7) // 8), dtype=np.uint8)
        self.head = 0
        self.size = 0

    def push(self, t: Transition):
        i = self.head
        self.s[i] = t.s
        self.a[i] = t.action
        self.r[i] = t.r
        self.s_next[i] = t.s_next
        self.done[i] = t.done
        self.masks[i] = np.packbits(t.next_alive.astype(np.uint8))
        self.head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng):
        idx = rng.integers(0, self.size, size=batch)
        alive = np.unpackbits(self.masks[idx], axis=1)[:, : self.n_nodes].astype(bool)
        return (self.s[idx], self.a[idx], self.r[idx], self.s_next[idx],
                self.done[idx], alive)


# -- value network -----------------------------------------------------------

def pooled_state(Z: np.ndarray, removed) -> np.ndarray:
    """Column-wise mean of Z over the nodes not yet removed."""
    keep = np.ones(Z.shape[1], dtype=bool)
    removed = list(removed)
    if removed:
        keep[np.asarray(removed, dtype=np.int64)] = False
    if not keep.any():
        raise AgentError("all nodes removed; pooled state undefined")
    return Z[:, keep].mean(axis=1)


def node_values(Z: np.ndarray, params: QNetParams, target: bool = False) -> np.ndarray:
    """(d, n) transformed per-node embeddings; q(v) = s . column v."""
    t1 = params.theta1_hat if target else params.theta1
    t2 = params.theta2_hat if target else params.theta2
    return t2 @ np.maximum(t1 @ Z, 0.0)


def q_values(Z: np.ndarray, s: np.ndarray, params: QNetParams,
             alive_mask=None) -> np.ndarray:
    """Per-node action values; non-alive nodes are forced to -inf."""
    q = s @ node_values(Z, params)
    if alive_mask is not None:
        q = np.where(alive_mask, q, -np.inf)
    return q


def select_action(scores: np.ndarray, epsilon: float, rng,
                  alive_mask: np.ndarray) -> int:
    """Epsilon-greedy over alive nodes; ties break to the lowest id."""
    alive_ids = np.flatnonzero(alive_mask)
    if len(alive_ids) == 0:
        raise AgentError("no alive node to select")
    if epsilon > 0 and rng.random() < epsilon:
        return int(alive_ids[rng.integers(0, len(alive_ids))])
    masked = np.where(alive_mask, scores, -np.inf)
    return int(np.argmax(masked))


# -- TD loss ------------------------------------------------------------------

def _td_targets(batch, Z, params: QNetParams, gamma: float):
    s, a, r, s_next, done, alive = batch
    Y_hat = node_values(Z, params, target=True)       # (d, n)
    next_scores = s_next @ Y_hat                      # (B, n)
    next_scores = np.where(alive, next_scores, -np.inf)
    next_max = next_scores.max(axis=1)
    next_max = np.where(np.isfinite(next_max), next_max, 0.0)
    return r + gamma * next_max * (~done)


def td_loss(batch, Z: np.ndarray, params: QNetParams, gamma: float,
            want_grad: bool = False):
    """Mean squared TD error; optionally with gradients wrt theta1/theta2."""
    s, a, r, s_next, done, alive = batch
    B = len(a)
    if B == 0:
        raise AgentError("empty batch")
    target = _td_targets(batch, Z, params, gamma)

    Za = Z[:, a]                                      # (d, B)
    pre = params.theta1 @ Za                          # (2d, B)
    h = np.maximum(pre, 0.0)
    y = params.theta2 @ h                             # (d, B)
    q = np.einsum("bd,db->b", s, y)
    err = q - target
    loss = float(np.mean(err ** 2))
    if not want_grad:
        return loss

    dq = 2.0 * err / B                                # (B,)
    U = s.T * dq                                      # (d, B)
    dtheta2 = U @ h.T                                 # (d, 2d)
    dh = params.theta2.T @ U                          # (2d, B)
    dpre = dh * (pre > 0)
    dtheta1 = dpre @ Za.T                             # (2d, d)
    return loss, dtheta1, dtheta2


# -- training loop ----------------------------------------------------------

@dataclass
class TrainLog:
    episode: list = field(default_factory=list)
    cum_reward: list = field(default_factory=list)
    loss_mean: list = field(default_factory=list)
    epsilon: list = field(default_factory=list)

    def save_csv(self, path):
        import csv

        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(("episode", "cum_reward", "loss_mean", "epsilon"))
            for row in zip(self.episode, self.cum_reward, self.loss_mean, self.epsilon):
                wr.writerow((row[0], repr(row[1]), repr(row[2]), repr(row[3])))


def _epsilon_at(step: int, cfg: AgentConfig) -> float:
    decay = cfg.eps_decay_steps or max(1, cfg.episodes * cfg.budget // 2)
    frac = min(1.0, step / decay)
    return cfg.eps_start + frac * (cfg.eps_end - cfg.eps_start)


def train(g: CoupledGraph, emb, cfg: AgentConfig):
    """Train the value network against the cascade environment.

    Returns (QNetParams, TrainLog). Deterministic per cfg.seed.
    """
    cfg.validate()
    Z = emb.Z if hasattr(emb, "Z") else np.asarray(emb)
    if Z.shape[1] != g.n:
        raise AgentError("embedding column count does not match the graph")
    rng = np.random.default_rng(cfg.seed)
    params = QNetParams.init(Z.shape[0], rng)
    weights = cfg.weights or RewardWeights.normalized(g)
    buf = ReplayBuffer(cfg.buffer_size, Z.shape[0], g.n)
    log = TrainLog()
    env = cascade.AttackEnv(g, weights)
    step = 0
    for ep in range(cfg.episodes):
        env.reset()
        removed = []
        s = pooled_state(Z, removed)
        cum = 0.0
        losses = []
        eps = _epsilon_at(step, cfg)
        for k in range(cfg.budget):
            alive = env.state == NORMAL
            eps = _epsilon_at(step, cfg)
            scores = q_values(Z, s, params)
            a = select_action(scores, eps, rng, alive)
            r, _ = env.step(a)
            removed.append(a)
            s_next = pooled_state(Z, removed)
            done = k == cfg.budget - 1
            buf.push(Transition(s, a, r, s_next, done, env.state == NORMAL))
            s = s_next
            cum += r
            step += 1
            if buf.size >= cfg.batch_size:
                batch = buf.sample(cfg.batch_size, rng)
                loss, d1, d2 = td_loss(batch, Z, params, cfg.gamma, want_grad=True)
                if not np.isfinite(loss):
                    raise AgentError(f"TD loss diverged at episode {ep}, step {step}")
                params.theta1 -= cfg.lr * d1
                params.theta2 -= cfg.lr * d2
                losses.append(loss)
            if step % cfg.target_sync == 0:
                params.sync_target()
        log.episode.append(ep)
        log.cum_reward.append(cum)
        log.loss_mean.append(float(np.mean(losses)) if losses else 0.0)
        log.epsilon.append(eps)
    return params, log


def greedy_attack(g: CoupledGraph, emb, params: QNetParams, budget: int,
                  weights: RewardWeights = None, method: str = "agent") -> AttackReport:
    """One evaluation episode with epsilon = 0; never touches params."""
    Z = emb.Z if hasattr(emb, "Z") else np.asarray(emb)
    weights = weights or RewardWeights.normalized(g)
    removed = []

    def policy(graph, k):
        alive = graph.state == NORMAL
        s = pooled_state(Z, removed)
        q = q_values(Z, s, params, alive_mask=alive)
        a = int(np.argmax(q))
        removed.append(a)
        return a

    return cascade.run_attack(g, policy, budget, weights, method=method)


# -- persistence ---------------------------------------------------------------

def save_qnet(path, params: QNetParams, cfg: AgentConfig = None):
    sidecar = None
    if cfg is not None:
        from dataclasses import asdict

        sidecar = {"config": asdict(cfg)}
    d = params.theta2.shape[0]
    serial.write_tensors(path, [params.theta1, params.theta2], d=d, n_nodes=0,
                         depth=2, sidecar=sidecar)


def load_qnet(path) -> QNetParams:
    arrays, _ = serial.read_tensors(path)
    return QNetParams(theta1=arrays[0], theta2=arrays[1])
