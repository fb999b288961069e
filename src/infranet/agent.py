"""DQN vulnerable-node detector over fixed node embeddings.

The environment state is the mean of the embeddings of not-yet-chosen nodes.
Each node's action value is the pooled state dotted with a two-layer
transform of the node's embedding. Training uses a FIFO replay buffer, a
periodically synced target network, an epsilon-greedy policy, and plain SGD
on the squared TD error; gradients are hand-derived.

Every greedy pick, a training run's exploit steps and each step of a
greedy attack, scores the nodes with `q_values`: (s @ theta2) @ H against
the (2d, n) hidden array H = relu(theta1 @ Z). A greedy attack computes H
once; training recomputes it at the first exploit step after an SGD update.
The TD targets read the target network's (d, n) node values Y_hat,
recomputed at the first TD loss after a target sync, since many replay rows
are scored against one frozen target net. Both training passes write one
(2d, n) hidden buffer, so a target pass also drops the online hidden array.
Exact ties break to the lowest id.

The TD target of a transition is r + gamma * next_max * ~done, where
next_max is the max of s_next @ Y_hat over the nodes alive after the step
(Mnih et al., Nature 518, 2015). A stored transition never changes and the
target values Y_hat change only at a target sync, so the replay buffer caches
each slot's next_max until its slot is pushed again or the target syncs. An
SGD step computes the max only for its batch's distinct stale slots, in one
product, and unpacks only their alive masks. The bits of a product row can
depend on the row count: a 1-row product takes BLAS's gemv path, and at
n mod 8 != 0 the last columns can take other bits. So a lone stale slot of a
batch of 2 or more is computed in a 2-row product, and a cached max is the
result of the product that computed it. On the desk preset (n mod 8 = 0) the
tests find the bits of recomputing the whole batch at every step.

For the pooled state a run keeps one C-ordered node-major (n, d) copy of Z
and sets each picked node's row to -0.0; `train` restores the picked rows
from Z at every episode reset. The state is the copy's sum over axis 0 over
the kept count. For d >= 2 numpy adds the rows of a C-ordered array one
after another in id order, and -0.0 is the exact identity of IEEE addition
(x + -0.0 == x for every x, +0.0 included, while -0.0 + +0.0 == +0.0), so
however numpy seeds the sum, the state has the float bits of the column
mean over the kept nodes, `Z[:, keep].mean(axis=1)`. For d = 1 numpy sums
the one contiguous column pairwise, and the inserted rows would move the
block boundaries, so d = 1 takes the mean over the kept nodes directly.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field

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

    def __post_init__(self):
        cascade.check_fields(self, AgentError, lambda: (
            ("budget", self.budget >= 1, "be >= 1"),
            ("gamma", 0.0 <= self.gamma <= 1.0, "be in [0,1]"),
            ("episodes", self.episodes >= 0, "be >= 0"),
            ("lr", self.lr > 0, "be > 0"),
            ("lr", self.lr < np.inf, "be finite"),
            ("batch_size", self.batch_size >= 1, "be >= 1"),
            ("target_sync", self.target_sync >= 1, "be >= 1"),
            ("eps_decay_steps", self.eps_decay_steps >= 0, "be >= 0"),
            ("eps_start", 0.0 <= self.eps_start <= 1.0, "be in [0,1]"),
            ("eps_end", 0.0 <= self.eps_end <= 1.0, "be in [0,1]"),
            ("buffer_size", self.buffer_size >= self.batch_size, "be >= batch_size"),
            ("seed", self.seed >= 0, "be >= 0"),
            ("weights", self.weights is None or isinstance(self.weights, RewardWeights),
             "be None or a RewardWeights"),
        ))


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


class ReplayBuffer:
    """FIFO ring of transitions; alive masks are stored bit-packed.

    Each slot also caches its masked next-state max, `next_max`, valid while
    its `fresh` flag is set. `push` clears its slot's flag; the owner clears
    every flag when the target network changes.
    """

    def __init__(self, capacity: int, d: int, n_nodes: int):
        self.capacity = capacity
        self.n_nodes = n_nodes
        self.s = np.zeros((capacity, d))
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, d))
        self.done = np.zeros(capacity, dtype=bool)
        self.masks = np.zeros((capacity, (n_nodes + 7) // 8), dtype=np.uint8)
        self.next_max = np.zeros(capacity)
        self.fresh = np.zeros(capacity, dtype=bool)
        self.head = 0
        self.size = 0

    def push(self, s, action: int, r: float, s_next, done: bool, next_alive):
        """Store one transition; next_alive is the bool mask the masked TD max needs."""
        i = self.head
        self.s[i] = s
        self.a[i] = action
        self.r[i] = r
        self.s_next[i] = s_next
        self.done[i] = done
        self.masks[i] = np.packbits(next_alive.astype(np.uint8))
        self.fresh[i] = False
        self.head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng) -> np.ndarray:
        """Slot indices of `batch` transitions drawn uniformly with replacement."""
        return rng.integers(0, self.size, size=batch)

    def cached_max(self, idx: np.ndarray, Y_hat: np.ndarray) -> np.ndarray:
        """The masked next-state max of each slot in idx against Y_hat,
        computing only the distinct stale slots (see the module docstring:
        a lone stale slot of a larger batch fills a 2-row product)."""
        stale = np.unique(idx[~self.fresh[idx]])
        if len(stale):
            rows = np.repeat(stale, 2) if len(stale) == 1 < len(idx) else stale
            got = masked_max(self.s_next[rows], self.alive(rows), Y_hat)
            self.next_max[stale] = got[: len(stale)]
            self.fresh[stale] = True
        return self.next_max[idx]

    def alive(self, rows: np.ndarray) -> np.ndarray:
        """The bool next-state alive masks of the slots `rows`, unpacked."""
        return np.unpackbits(self.masks[rows], axis=1)[:, : self.n_nodes].astype(bool)


# -- value network -----------------------------------------------------------

def pooled_state(Z: np.ndarray, removed, pool: np.ndarray = None) -> np.ndarray:
    """Column-wise mean of Z over the nodes not yet removed.

    `pool` is a C-ordered (n, d) copy of Z whose rows hold Z's values except
    at removed ids; those rows are set to -0.0 here. It is made when not
    given.
    """
    n = Z.shape[1]
    cut = np.unique(np.asarray(list(removed), dtype=np.int64))
    if len(cut) and (cut[0] < 0 or cut[-1] >= n):
        raise AgentError(f"removed node ids must lie in [0, {n})")
    kept = n - len(cut)
    if kept == 0:
        raise AgentError("all nodes removed; pooled state undefined")
    if Z.shape[0] == 1:
        keep = np.ones(n, dtype=bool)
        keep[cut] = False
        return Z[:, keep].mean(axis=1)
    if pool is None:
        pool = np.array(Z.T, order="C")
    pool[cut] = -0.0
    return pool.sum(axis=0) / kept


def hidden_layer(Z: np.ndarray, params: QNetParams, target: bool = False,
                 out: np.ndarray = None) -> np.ndarray:
    """(2d, n) hidden array relu(theta1 @ Z), written into `out` when given."""
    h = np.matmul(params.theta1_hat if target else params.theta1, Z, out=out)
    return np.maximum(h, 0.0, out=h)


def node_values(Z: np.ndarray, params: QNetParams, target: bool = False,
                hidden: np.ndarray = None, out: np.ndarray = None) -> np.ndarray:
    """(d, n) transformed per-node embeddings; q(v) = s . column v.

    The (2d, n) `hidden` and (d, n) `out` arrays are written in place when
    given, and allocated otherwise.
    """
    h = hidden_layer(Z, params, target, out=hidden)
    return np.matmul(params.theta2_hat if target else params.theta2, h, out=out)


def q_values(s: np.ndarray, params: QNetParams, hidden: np.ndarray,
             alive_mask=None) -> np.ndarray:
    """Per-node action values (s @ theta2) @ hidden_layer(Z); -inf where not alive."""
    q = (s @ params.theta2) @ hidden
    if alive_mask is not None:
        q = np.where(alive_mask, q, -np.inf)
    return q


def select_action(scores, epsilon: float, rng, alive_mask: np.ndarray) -> int:
    """Epsilon-greedy over alive nodes; ties break to the lowest id.

    `scores` is a per-node array, or a zero-argument callable returning one
    that is called only when the draw exploits.
    """
    alive_ids = np.flatnonzero(alive_mask)
    if len(alive_ids) == 0:
        raise AgentError("no alive node to select")
    if epsilon > 0 and rng.random() < epsilon:
        return int(alive_ids[rng.integers(0, len(alive_ids))])
    if callable(scores):
        scores = scores()
    masked = np.where(alive_mask, scores, -np.inf)
    return int(np.argmax(masked))


# -- TD loss ------------------------------------------------------------------

def masked_max(s_next: np.ndarray, alive: np.ndarray, Y_hat: np.ndarray) -> np.ndarray:
    """Per row, the max of s_next @ Y_hat over the row's alive nodes; 0 for a
    row with no alive node (or a non-finite max)."""
    next_scores = s_next @ Y_hat                      # (B, n)
    next_scores[~alive] = -np.inf
    best = next_scores.max(axis=1)
    return np.where(np.isfinite(best), best, 0.0)


def td_loss(batch, Z: np.ndarray, params: QNetParams, gamma: float,
            want_grad: bool = False, next_max: np.ndarray = None):
    """Mean squared TD error; optionally with gradients wrt theta1/theta2.

    `batch` is (s, a, r, s_next, done, alive). The target of a transition is
    r + gamma * next_max * ~done, where `next_max` is the masked max of
    s_next against the target network's node values; it is computed here
    from s_next and alive when not given, and only then are they read.
    """
    s, a, r, s_next, done, alive = batch
    B = len(a)
    if B == 0:
        raise AgentError("empty batch")
    if next_max is None:
        next_max = masked_max(s_next, alive, node_values(Z, params, target=True))
    target = r + gamma * next_max * (~done)

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
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(("episode", "cum_reward", "loss_mean", "epsilon"))
            for row in zip(self.episode, self.cum_reward, self.loss_mean, self.epsilon):
                wr.writerow((row[0], repr(row[1]), repr(row[2]), repr(row[3])))


def _epsilon_at(step: int, cfg: AgentConfig) -> float:
    decay = cfg.eps_decay_steps or max(1, cfg.episodes * cfg.budget // 2)
    frac = min(1.0, step / decay)
    return cfg.eps_start + frac * (cfg.eps_end - cfg.eps_start)


class _RunValues:
    """The node values a training run reads, each cached per parameter set.

    One (2d, n) buffer holds either the online hidden array that exploit
    steps score against, or the target pass's hidden array on its way to the
    target node values; so computing the target values drops the online
    array. The caller sets `online` to None after an SGD update and `target`
    to None after a target sync.
    """

    def __init__(self, Z: np.ndarray, params: QNetParams):
        d, n = Z.shape
        self.Z, self.params = Z, params
        self.hidden = np.empty((2 * d, n))
        self.target_out = np.empty((d, n))
        self.online = None        # relu(theta1 @ Z), in `hidden`
        self.target = None        # target node values, in `target_out`

    def scores(self, s: np.ndarray) -> np.ndarray:
        """Exploit scores `q_values` of every node against the online hidden array."""
        if self.online is None:
            self.online = hidden_layer(self.Z, self.params, out=self.hidden)
        return q_values(s, self.params, self.online)

    def target_values(self) -> np.ndarray:
        if self.target is None:
            self.online = None    # the target pass overwrites `hidden`
            self.target = node_values(self.Z, self.params, target=True,
                                      hidden=self.hidden, out=self.target_out)
        return self.target


@np.errstate(over="ignore", invalid="ignore")    # a diverging run raises below
def train(g: CoupledGraph, emb, cfg: AgentConfig):
    """Train the value network against the cascade environment.

    Returns (QNetParams, TrainLog). Deterministic per cfg.seed.
    """
    Z = emb.Z
    if Z.shape[1] != g.n:
        raise AgentError("embedding column count does not match the graph")
    cascade.check_budget(g, cfg.budget, AgentError)
    rng = np.random.default_rng(cfg.seed)
    params = QNetParams.init(Z.shape[0], rng)
    # no run pushes more than episodes * budget transitions
    buf = ReplayBuffer(min(cfg.buffer_size, cfg.episodes * cfg.budget), Z.shape[0], g.n)
    log = TrainLog()
    env = cascade.AttackEnv(g, cfg.weights)
    values = _RunValues(Z, params)
    pool = np.array(Z.T, order="C")
    removed = []
    step = 0
    for ep in range(cfg.episodes):
        env.reset()
        pool[removed] = Z.T[removed]      # undo the last episode's -0.0 rows
        removed = []
        s = pooled_state(Z, removed, pool)
        cum = 0.0
        losses = []
        for k in range(cfg.budget):
            eps = _epsilon_at(step, cfg)
            a = select_action(lambda: values.scores(s), eps, rng, env.state == NORMAL)
            r = env.step(a)
            removed.append(a)
            alive = env.state == NORMAL
            # an episode ends early once no Normal node is left; the TD target
            # never reads s_next of a done step, which may have no node to pool
            done = k == cfg.budget - 1 or not alive.any()
            s_next = (pooled_state(Z, removed, pool) if len(removed) < g.n
                      else np.zeros_like(s))
            buf.push(s, a, r, s_next, done, alive)
            s = s_next
            cum += r
            step += 1
            if buf.size >= cfg.batch_size:
                idx = buf.sample(cfg.batch_size, rng)
                batch = (buf.s[idx], buf.a[idx], buf.r[idx], None, buf.done[idx], None)
                loss, d1, d2 = td_loss(batch, Z, params, cfg.gamma, want_grad=True,
                                       next_max=buf.cached_max(idx, values.target_values()))
                if not np.isfinite(loss):
                    raise AgentError(f"TD loss diverged at episode {ep}, step {step}")
                params.theta1 -= cfg.lr * d1
                params.theta2 -= cfg.lr * d2
                values.online = None
                losses.append(loss)
            if step % cfg.target_sync == 0:
                params.sync_target()
                values.target = None
                buf.fresh[:] = False
            if done:
                break
        log.episode.append(ep)
        log.cum_reward.append(cum)
        log.loss_mean.append(float(np.mean(losses)) if losses else 0.0)
        log.epsilon.append(eps)
    return params, log


def greedy_attack(g: CoupledGraph, emb, params: QNetParams, budget: int,
                  weights: RewardWeights = None, method: str = "agent") -> AttackReport:
    """One evaluation episode with epsilon = 0; never touches params.

    Once a cascade leaves no Normal node, every further pick is a dead node
    (node 0, the argmax over all -inf scores), which `run_attack` records as
    a no-op step with reward 0, so the report still has budget steps.
    """
    cascade.check_budget(g, budget, AgentError)
    Z = emb.Z
    d = params.theta2.shape[0]
    if Z.shape != (d, g.n):
        raise AgentError(f"embedding of shape {Z.shape} does not match the value net's "
                         f"d={d} and the graph's {g.n} nodes")
    H = hidden_layer(Z, params)
    pool = np.array(Z.T, order="C")
    removed = []

    def policy(graph, k):
        q = q_values(pooled_state(Z, removed, pool), params, H, graph.state == NORMAL)
        a = int(np.argmax(q))
        removed.append(a)
        return a

    return cascade.run_attack(g, policy, budget, weights, method=method)


# -- persistence ---------------------------------------------------------------

def save_qnet(path, params: QNetParams, cfg: AgentConfig = None):
    sidecar = None if cfg is None else {"config": asdict(cfg)}
    d = params.theta2.shape[0]
    serial.write_tensors(path, [params.theta1, params.theta2], d=d, n_nodes=0,
                         depth=2, sidecar=sidecar)


def load_qnet(path) -> QNetParams:
    """Raises serial.FormatError unless the file holds a finite (2d, d) and
    (d, 2d) pair for the d its header states."""
    arrays, header = serial.read_tensors(path)
    d = header["d"]
    shapes = [a.shape for a in arrays]
    if shapes != [(2 * d, d), (d, 2 * d)]:
        raise serial.FormatError(f"{path}: expected thetas of shapes {(2 * d, d)} and "
                                 f"{(d, 2 * d)} for d={d}, got {shapes}")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise serial.FormatError(f"{path}: non-finite value-net entries")
    return QNetParams(theta1=arrays[0], theta2=arrays[1])
