"""From-scratch GNN node embeddings trained by margin-loss link prediction.

Forward pass per layer: neighbor features are aggregated (sum by default,
mean behind a flag), averaged with the node's own feature, linearly mixed
and passed through ReLU. Training pits observed edges against sampled
non-edges under a hinge margin; gradients are hand-derived, and the neighbor
sums of both passes and the hinge gradient are one scatter-add, `_scatter`.

Pretraining runs the same machinery on each layer's subgraph alone, over
that layer's own nodes: its edges are relabelled onto its sorted pool, so
every pass works on the pool's columns only. The coupled-graph training then
starts from those columns, written back into the graph's station and
junction columns. Transfer retraining (`transfer.retrain`) is `train` on a
mask graph from the old embedding as the fixed input, with a `pull` term
that keeps the output near that input.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cascade import check_fields, is_int
from .graph import CoupledGraph
from . import serial

PRETRAINED = "pretrained"
RANDOM = "random"

DEFAULT_EDGE_TYPE_WEIGHTS = {"elec": 1.0, "road": 1.0, "dep": 1.0}
AGGREGATORS = ("sum", "mean")


# embedding rows per np.bincount call in _scatter, and edges per einsum
# call in score. Small blocks keep each call's temporaries small, and a fresh
# process then faults in far fewer pages than for whole-array temporaries.
_CHUNK = 4
_EDGE_BLOCK = 1024


class EmbedError(ValueError):
    pass


@dataclass(frozen=True)
class EmbedConfig:
    d: int = 64
    depth: int = 2
    margin: float = 1.0
    l2: float = 1e-4
    lr: float = 1e-3
    epochs: int = 200
    neg_ratio: int = 1
    seed: int = 0
    aggregator: str = "sum"  # 'sum' (literal reading) or 'mean'
    edge_type_weights: dict = field(default_factory=lambda: dict(DEFAULT_EDGE_TYPE_WEIGHTS))

    def __post_init__(self):
        tw, keys = self.edge_type_weights, list(DEFAULT_EDGE_TYPE_WEIGHTS)
        check_fields(self, EmbedError, lambda: (
            ("d", self.d >= 1, "be >= 1"),
            ("depth", self.depth >= 1, "be >= 1"),
            ("margin", self.margin > 0, "be > 0"),
            ("margin", self.margin < np.inf, "be finite"),
            ("l2", self.l2 >= 0, "be >= 0"),
            ("l2", self.l2 < np.inf, "be finite"),
            ("lr", self.lr > 0, "be > 0"),
            ("lr", self.lr < np.inf, "be finite"),
            ("epochs", self.epochs >= 0, "be >= 0"),
            ("neg_ratio", self.neg_ratio >= 1, "be >= 1"),
            ("aggregator", self.aggregator in AGGREGATORS,
             f"be {' or '.join(map(repr, AGGREGATORS))}"),
            ("seed", self.seed >= 0, "be >= 0"),
            ("edge_type_weights", isinstance(tw, dict) and set(tw) == set(keys),
             f"be a dict with exactly the keys {keys}"),
        ))
        for layer, w in tw.items():
            if not (is_int(w) or isinstance(w, (float, np.floating))) or not 0 <= w < np.inf:
                raise EmbedError(f"edge_type_weights[{layer!r}] must be a finite "
                                 f"number >= 0, got {w!r}")


@dataclass
class EmbeddingMatrix:
    Z: np.ndarray            # (d, n)
    provenance: str = PRETRAINED

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=np.float64)
        if self.Z.ndim != 2:
            raise EmbedError("embedding matrix must be 2-D")
        if self.Z.shape[0] == 0:
            raise EmbedError("embedding matrix has no rows")
        if not np.all(np.isfinite(self.Z)):
            raise EmbedError("non-finite embedding entries")

    @property
    def d(self):
        return self.Z.shape[0]

    @property
    def n(self):
        return self.Z.shape[1]


@dataclass
class EmbedProblem:
    """One training instance: edges with type weights plus the sampling pool.

    Edges must be distinct undirected pairs inside the pool, no self-loops, as
    in every `problem_for` scope: a CoupledGraph refuses duplicate edges,
    self-loops, second parents or suppliers, and node kinds keep layers apart.
    The p pool nodes then have a non-edge pair iff edges < p*(p-1)/2.

    A problem's n columns may be some of the nodes of a wider graph: column j
    is graph node ids[j] of `width` nodes. ids None means column j is node j,
    and width is n."""

    n: int
    edges: np.ndarray        # (m, 2) undirected pairs
    edge_weights: np.ndarray # (m,)
    pool: np.ndarray         # node ids eligible for negative endpoints
    ids: np.ndarray = None   # (n,) graph id of each column, or None
    width: int = None        # node count of the graph the columns come from

    def __post_init__(self):
        if self.width is None:
            self.width = self.n
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.edge_weights = np.asarray(self.edge_weights, dtype=np.float64)
        self.pool = np.asarray(self.pool, dtype=np.int64)
        if self.edges.size and not 0 <= self.edges.min() <= self.edges.max() < self.n:
            raise EmbedError(f"edge endpoints must lie in [0, {self.n})")
        # sorted undirected edge keys min*n+max, for the rejection in sample_negatives
        self.edge_keys = np.unique(self.edges.min(axis=1) * self.n + self.edges.max(axis=1))
        p = len(np.unique(self.pool))
        self.has_non_edge = len(self.edge_keys) < p * (p - 1) // 2
        # the symmetric adjacency as neighbor pairs in CSR order (rows
        # ascending, columns ascending within a row)
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        self.nbr_rows, self.nbr_cols = np.divmod(np.sort(rows * self.n + cols), self.n)
        # the degree clamped to >= 1, the divisor of the mean aggregator
        self.deg = np.maximum(np.bincount(rows, minlength=self.n), 1).astype(np.float64)


def problem_for(g: CoupledGraph, scope: str, cfg: EmbedConfig) -> EmbedProblem:
    """scope: 'elec', 'road', or 'coupled' (all layers, type-weighted)."""
    tw = cfg.edge_type_weights
    if scope in ("elec", "road"):
        # the layer's own nodes, in id order: its edges relabelled onto them
        ids = g.station_ids() if scope == "elec" else g.junction_ids()
        layer = g.elec_edges if scope == "elec" else g.road_edges
        edges = np.searchsorted(ids, layer)
        w = np.full(len(edges), tw[scope])
    elif scope == "coupled":
        ids = None
        edges = np.stack([g.edge_u, g.edge_v], axis=1)
        counts = [len(g.elec_edges), len(g.road_edges), len(g.dep_edges)]
        w = np.repeat([tw["elec"], tw["road"], tw["dep"]], counts)
    else:
        raise EmbedError(f"unknown scope {scope!r}")
    if len(edges) == 0:
        raise EmbedError(f"scope {scope!r} has no edges to train on")
    n = g.n if ids is None else len(ids)
    return EmbedProblem(n=n, edges=edges, edge_weights=w, pool=np.arange(n), ids=ids,
                        width=g.n)


# -- initial features ------------------------------------------------------

def _uniform(rng, shape, d):
    bound = 1.0 / np.sqrt(d)
    return rng.uniform(-bound, bound, size=shape)


def init_features(g: CoupledGraph, d: int, emb_e: EmbeddingMatrix,
                  emb_r: EmbeddingMatrix) -> EmbeddingMatrix:
    """Initial feature columns from the per-layer pretrained embeddings, each
    one column per node of its layer in id order: the station columns are
    `emb_e`, the junction columns `emb_r`. Every node is one or the other."""
    st, ju = g.station_ids(), g.junction_ids()
    if emb_e.d != d or emb_r.d != d or emb_e.n != len(st) or emb_r.n != len(ju):
        raise EmbedError("sub-embedding dimensions do not match")
    F = np.empty((d, g.n))
    F[:, st] = emb_e.Z
    F[:, ju] = emb_r.Z
    return EmbeddingMatrix(F, provenance=PRETRAINED)


def random_embeddings(g: CoupledGraph, d: int, seed: int) -> EmbeddingMatrix:
    """Ablation arm: i.i.d. uniform embeddings, no training."""
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(_uniform(rng, (d, g.n), d), provenance=RANDOM)


# -- forward / backward -----------------------------------------------------

def _scatter(X: np.ndarray, rows: np.ndarray, other: np.ndarray, c: np.ndarray = None):
    """The package's one scatter-add: the C-ordered (d, n) array out with
    out[:, rows[i]] += c[i] * X[:, other[i]] for each i in order, from +0.0
    (c defaults to all ones).

    np.bincount adds each bin's weights in input order, so every cell sums
    its terms as a scatter-add loop does. One bincount, over the keys
    row_in_chunk * n + rows, serves _CHUNK rows of X.
    """
    d, n = X.shape
    keys = (np.arange(_CHUNK)[:, None] * n + rows).ravel()
    out = np.empty((d, n))
    for j in range(0, d, _CHUNK):
        k = min(_CHUNK, d - j)
        terms = np.take(X[j:j + k], other, axis=1)
        if c is not None:
            terms *= c
        out[j:j + k] = np.bincount(keys[:k * len(other)], weights=terms.ravel(),
                                   minlength=k * n).reshape(k, n)
    return out


def _neighbor_sum(problem: EmbedProblem, X: np.ndarray) -> np.ndarray:
    """(adj @ X.T).T, each entry's neighbor terms added in CSR order."""
    return _scatter(X, problem.nbr_rows, problem.nbr_cols)


def _aggregate(H: np.ndarray, problem: EmbedProblem, aggregator: str) -> np.ndarray:
    """A layer's input M = 0.5 * (H + neighbor aggregate of H), made in the
    C-ordered aggregate buffer whatever H's memory order."""
    HN = _neighbor_sum(problem, H)
    if aggregator == "mean":
        HN /= problem.deg
    M = np.add(H, HN, out=HN)
    M *= 0.5
    return M


def forward(F: np.ndarray, params: list, problem: EmbedProblem,
            aggregator: str = "sum", want_cache: bool = False, M0: np.ndarray = None):
    """params: the depth weight matrices, each (d, d).

    M0, when given, is layer 0's input `_aggregate(F, problem, aggregator)`;
    it depends on F alone, so a training run computes it once."""
    H = np.asarray(F, dtype=np.float64)
    M = _aggregate(H, problem, aggregator) if M0 is None else M0
    caches = []
    for W in params:
        if caches:
            M = _aggregate(H, problem, aggregator)
        pre = W @ M
        caches.append((M, pre))
        H = np.maximum(pre, 0.0)
    return (H, caches) if want_cache else H


def _backward(dZ, params: list, caches, problem: EmbedProblem, aggregator: str):
    """Backprop dLoss/dZ through the layer stack; returns the per-matrix grads.

    The gradient with respect to the input features is not formed."""
    dWs = [None] * len(params)
    dH = dZ
    for i in range(len(params) - 1, -1, -1):
        M, pre = caches[i]
        G = dH * (pre > 0)
        dWs[i] = G @ M.T
        if i == 0:
            break
        half = 0.5 * (params[i].T @ G)
        dHN = half / problem.deg if aggregator == "mean" else half
        dH = half + _neighbor_sum(problem, dHN)
    return dWs


# -- scoring and loss ---------------------------------------------------------

def score(Z: np.ndarray, edges) -> np.ndarray:
    """Inner product of the endpoint embeddings, one score per edge.

    The edges go through the einsum _EDGE_BLOCK at a time, so the gathered
    endpoint columns stay small; each score is the same einsum reduction over
    its own column, whatever the block.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    out = np.empty(len(e))
    for s in range(0, len(e), _EDGE_BLOCK):
        b = e[s:s + _EDGE_BLOCK]
        out[s:s + _EDGE_BLOCK] = np.einsum("ij,ij->j", Z[:, b[:, 0]], Z[:, b[:, 1]])
    return out


def draw_pairs(rng, pool, count, keep) -> np.ndarray:
    """The `count` pairs the loop

        while len(out) < count:
            u, v = pool[rng.integers(0, len(pool), size=2)]
            if keep(u, v): out.append((u, v))

    returns, drawn in bulk as a (count, 2) array; `rng` ends where that loop
    leaves it. One `rng.integers(0, len(pool), size=2 * k)` call draws the
    values of k such calls of size 2, so the bulk draw is the loop's own
    stream; the generator is then reset and made to draw exactly the values
    the loop takes. `keep` maps the arrays u, v of every pair drawn so far, in
    draw order, to a bool mask; the verdict on a pair must not depend on
    later pairs, and some pair must pass, or this never returns.
    """
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    bound = len(pool)
    start = rng.bit_generator.state
    draws = rng.integers(0, bound, size=2 * (count + count // 8 + 8))
    while True:
        u, v = pool[draws[0::2]], pool[draws[1::2]]
        kept = np.flatnonzero(keep(u, v))
        if len(kept) >= count:
            break
        need = (count - len(kept)) * (len(u) + 1) // (len(kept) + 1)
        draws = np.concatenate([draws, rng.integers(0, bound, size=2 * max(need, len(u)))])
    kept = kept[:count]
    rng.bit_generator.state = start
    rng.integers(0, bound, size=2 * (int(kept[-1]) + 1))
    return np.stack([u[kept], v[kept]], axis=1)


def draw_new_pairs(rng, pool, count, n, taken) -> np.ndarray:
    """`draw_pairs` keeping each pair u != v whose key min*n+max is not in
    `taken` and was not drawn before: `count` new distinct edges of a node
    set whose ids are below n."""
    def new(u, v):
        key = np.minimum(u, v) * n + np.maximum(u, v)
        first = np.zeros(len(key), dtype=bool)
        first[np.unique(key, return_index=True)[1]] = True
        return (u != v) & first & ~np.isin(key, taken)

    return draw_pairs(rng, pool, count, new)


def _member(sorted_keys, keys):
    """Bool mask: which of keys occur in the sorted array sorted_keys."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    i = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[i] == keys


def sample_negatives(rng, problem: EmbedProblem, count: int) -> np.ndarray:
    """Uniform non-edges within the pool, excluding self-loops.

    The draws are those of a loop of `rng.integers(0, len(pool), size=2)`
    pairs that keeps each pair u != v that is not an edge.
    """
    if len(problem.pool) < 2:
        raise EmbedError("pool too small to sample negatives")
    if not problem.has_non_edge:
        raise EmbedError("pool has no non-edge pair")
    n, edge_keys = problem.n, problem.edge_keys

    def non_edge(u, v):
        return (u != v) & ~_member(edge_keys, np.minimum(u, v) * n + np.maximum(u, v))

    return draw_pairs(rng, problem.pool, count, non_edge)


def margin_loss(Z: np.ndarray, pos, neg, cfg: EmbedConfig,
                pos_weights=None, params: list = None,
                want_grad: bool = False):
    """Hinge margin loss over (positive, negative) edge pairs.

    neg must hold neg_ratio sampled negatives per positive, grouped so that
    neg[i*r:(i+1)*r] belong to positive i. Returns the scalar loss, plus
    dLoss/dZ when want_grad is set (L2 term excluded from dZ; it only
    touches params).
    """
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 2)
    neg = np.asarray(neg, dtype=np.int64).reshape(-1, 2)
    if len(pos) == 0 or len(neg) == 0:
        raise EmbedError("positive and negative sets must be nonempty")
    if len(neg) % len(pos) != 0:
        raise EmbedError("negatives must be a multiple of positives")
    r = len(neg) // len(pos)
    w = np.ones(len(pos)) if pos_weights is None else np.asarray(pos_weights, float)

    pos_rep = np.repeat(pos, r, axis=0)
    w_rep = np.repeat(w, r)
    s_pos = score(Z, pos_rep)
    s_neg = score(Z, neg)
    hinge = cfg.margin - s_pos + s_neg
    active = hinge > 0
    P = len(pos_rep)
    loss = float(np.sum(w_rep * np.maximum(hinge, 0.0)) / P)
    if params is not None:
        loss += cfg.l2 * sum(float(np.sum(W * W)) for W in params)
    if not want_grad:
        return loss

    # dZ[:, rows[i]] += c[i] * Z[:, other[i]], in the order of the pairs
    coef = (w_rep * active) / P
    rows = np.concatenate([pos_rep[:, 0], pos_rep[:, 1], neg[:, 0], neg[:, 1]])
    other = np.concatenate([pos_rep[:, 1], pos_rep[:, 0], neg[:, 1], neg[:, 0]])
    c = np.concatenate([-coef, -coef, coef, coef])
    return loss, _scatter(Z, rows, other, c)


def loss_and_grads(F, params: list, problem: EmbedProblem, neg, cfg: EmbedConfig,
                   pull: float = 0.0, M0: np.ndarray = None):
    """Full-pipeline loss (forward + hinge + L2) and gradients per weight matrix.

    A nonzero `pull` adds pull times the mean squared deviation of the
    output Z from the input F to the loss. M0 is passed on to forward.
    """
    Z, caches = forward(F, params, problem, cfg.aggregator, want_cache=True, M0=M0)
    loss, dZ = margin_loss(
        Z, problem.edges, neg, cfg, pos_weights=problem.edge_weights,
        params=params, want_grad=True,
    )
    if pull:
        diff = Z - F
        loss += pull * float(np.sum(diff ** 2) / F.size)
        dZ = dZ + pull * 2.0 * diff / F.size
    dWs = _backward(dZ, params, caches, problem, cfg.aggregator)
    for dW, W in zip(dWs, params):
        dW += 2.0 * cfg.l2 * W
    return loss, dWs


# -- training ------------------------------------------------------------

def init_params(cfg: EmbedConfig, rng) -> list:
    return [_uniform(rng, (cfg.d, cfg.d), cfg.d) for _ in range(cfg.depth)]


@np.errstate(over="ignore", invalid="ignore")    # a diverging run raises below
def train(problem: EmbedProblem, cfg: EmbedConfig, F: np.ndarray = None,
          pull: float = 0.0):
    """Gradient-descent training; negatives are resampled every epoch.

    `pull` weighs the deviation of the output from F (see loss_and_grads).
    F None draws features for every node of the problem's graph and keeps
    the problem's columns, so the weights and negatives that follow come
    from the same stream whatever the problem's width.
    Returns (EmbeddingMatrix, weight matrices, per-epoch loss list).
    """
    rng = np.random.default_rng(cfg.seed)
    if F is None:
        F = _uniform(rng, (cfg.d, problem.width), cfg.d)
        if problem.ids is not None:
            F = F.take(problem.ids, axis=1)
    params = init_params(cfg, rng)
    M0 = _aggregate(np.asarray(F, dtype=np.float64), problem, cfg.aggregator)
    losses = []
    for epoch in range(cfg.epochs):
        neg = sample_negatives(rng, problem, len(problem.edges) * cfg.neg_ratio)
        loss, dWs = loss_and_grads(F, params, problem, neg, cfg, pull, M0)
        if not np.isfinite(loss):
            raise EmbedError(f"training diverged at epoch {epoch}")
        for W, dW in zip(params, dWs):
            W -= cfg.lr * dW
        losses.append(loss)
    Z = forward(F, params, problem, cfg.aggregator, M0=M0)
    return EmbeddingMatrix(Z, provenance=PRETRAINED), params, losses


def train_coupled(g: CoupledGraph, cfg: EmbedConfig):
    """Eq-1 pipeline: pretrain each layer's subgraph, then the coupled graph.

    Per-stage seeds are derived from cfg.seed so the whole pipeline is a
    pure function of (g, cfg). Each layer is pretrained over its own nodes; a
    layer without edges gets its nodes' columns of `random_embeddings`.
    """
    F = init_features(g, cfg.d, *(
        train(problem_for(g, scope, cfg), replace(cfg, seed=seed))[0] if len(edges)
        else EmbeddingMatrix(random_embeddings(g, cfg.d, seed).Z[:, ids], RANDOM)
        for seed, scope, edges, ids in ((cfg.seed + 1, "elec", g.elec_edges, g.station_ids()),
                                        (cfg.seed + 2, "road", g.road_edges, g.junction_ids()))))
    return train(problem_for(g, "coupled", cfg), cfg, F=F.Z)


# -- persistence -----------------------------------------------------------

def save_embedding(path, emb: EmbeddingMatrix, cfg: EmbedConfig = None):
    sidecar = {"provenance": emb.provenance}
    if cfg is not None:
        sidecar["config"] = asdict(cfg)
    depth = cfg.depth if cfg is not None else 0
    serial.write_tensors(path, [emb.Z], d=emb.d, n_nodes=emb.n, depth=depth,
                         sidecar=sidecar)


def load_embedding(path) -> EmbeddingMatrix:
    """Raises serial.FormatError unless the file holds one finite array of
    the (d, n_nodes) shape its header states."""
    arrays, header = serial.read_tensors(path)
    shape = (header["d"], header["n_nodes"])
    if [a.shape for a in arrays] != [shape]:
        raise serial.FormatError(f"{path}: expected one {shape} array as the header "
                                 f"states, got shapes {[a.shape for a in arrays]}")
    if not np.all(np.isfinite(arrays[0])):
        raise serial.FormatError(f"{path}: non-finite embedding entries")
    prov = (header["sidecar"] or {}).get("provenance", PRETRAINED)
    if prov not in (PRETRAINED, RANDOM):
        raise serial.FormatError(f"{path}.json: unknown provenance {prov!r}")
    return EmbeddingMatrix(arrays[0], provenance=prov)
