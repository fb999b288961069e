import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from infranet import agent, cascade, embed, netgen, transfer
from infranet.cascade import (
    AttackReport,
    anc,
    damage,
    gcc,
    power,
    sigma,
)
from infranet.graph import DAMAGED, INVALID, JUNCTION, NORMAL, STATION, CoupledGraph, GraphError
from infranet.netgen import GenConfig, generate


# arbitrary JSON values, for fuzzing the readers
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=12,
)


def assert_same_document(got: str, want: str):
    """got == want, for documents too long for pytest's string diff: compares
    sha256 digests, and on a mismatch fails with the first differing offset
    and about 80 characters of each side around it."""
    __tracebackhide__ = True
    if hashlib.sha256(got.encode()).digest() == hashlib.sha256(want.encode()).digest():
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(0, at - 40)
    pytest.fail(f"documents differ at offset {at} (lengths {len(got)} and {len(want)}):\n"
                f"  got:  {got[lo:at + 40]!r}\n  want: {want[lo:at + 40]!r}")


def make_toy_chain():
    """220 -> 110 -> 10(load 100) supplying junction 3; junctions 3-4-5 a path."""
    return CoupledGraph(
        kind=[STATION, STATION, STATION, JUNCTION, JUNCTION, JUNCTION],
        level=[220, 110, 10, 0, 0, 0],
        load=[0, 0, 100.0, 0, 0, 0],
        elec_edges=[(0, 1), (1, 2)],
        road_edges=[(3, 4), (4, 5)],
        dep_edges=[(2, 3)],
    )


@pytest.fixture
def toy_chain():
    return make_toy_chain()


def random_coupled(seed, scale=1.0):
    """Small random coupled graph via the generator (varied shape per seed)."""
    rng = np.random.default_rng(seed)
    cfg = GenConfig(
        seed=int(rng.integers(0, 2**31)),
        n_220=int(rng.integers(1, 4)),
        fanout_110=(int(rng.integers(1, 3)), int(rng.integers(3, 5))),
        fanout_10=(int(rng.integers(1, 3)), int(rng.integers(3, 6))),
        road_nodes=int(rng.integers(10, int(60 * scale))),
        road_model="grid" if rng.random() < 0.5 else "random",
        coupling_fraction=float(rng.uniform(0.0, 1.0)),
    )
    return generate(cfg)


def _oracle_ring_chord_edges(n, offset, rng):
    if n < 3:
        return [(offset + i, offset + i + 1) for i in range(n - 1)]
    order = rng.permutation(n)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, np.roll(order, -1))}
    want = len(edges) + int(np.floor(netgen.RANDOM_ROAD_CHORD_FRACTION * n))
    while len(edges) < want:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return [(offset + u, offset + v) for u, v in sorted(edges)]


def oracle_generate(cfg):
    """netgen.generate with one Python record per node, one scalar draw per
    count and load, and road chords drawn one pair at a time into a set."""
    rng = np.random.default_rng(cfg.seed)

    kinds, levels, loads = [], [], []
    elec_edges = []

    def add_station(level, load=0.0):
        kinds.append(STATION)
        levels.append(level)
        loads.append(load)
        return len(kinds) - 1

    roots = [add_station(220) for _ in range(cfg.n_220)]
    mids = []
    for r in roots:
        k = int(rng.integers(cfg.fanout_110[0], cfg.fanout_110[1] + 1))
        for _ in range(k):
            m = add_station(110)
            elec_edges.append((r, m))
            mids.append(m)
    leaves = []
    for m in mids:
        k = int(rng.integers(cfg.fanout_10[0], cfg.fanout_10[1] + 1))
        for _ in range(k):
            lo, hi = cfg.load_range
            s = add_station(10, load=float(rng.integers(lo, hi + 1)))
            elec_edges.append((m, s))
            leaves.append(s)

    offset = len(kinds)
    kinds += [JUNCTION] * cfg.road_nodes
    levels += [0] * cfg.road_nodes
    loads += [0.0] * cfg.road_nodes
    if cfg.road_model == netgen.ROAD_GRID:
        road_edges = netgen._grid_edges(cfg.road_nodes, offset)
    else:
        road_edges = _oracle_ring_chord_edges(cfg.road_nodes, offset, rng)

    n_coupled = int(round(cfg.coupling_fraction * cfg.road_nodes))
    dep_edges = []
    if n_coupled > 0:
        if not leaves:
            raise GraphError("coupling requested but the grid has no 10kV stations")
        picked = rng.permutation(cfg.road_nodes)[:n_coupled] + offset
        suppliers = rng.integers(0, len(leaves), size=n_coupled)
        dep_edges = [(leaves[s], int(j)) for s, j in zip(suppliers, picked)]

    return CoupledGraph(
        kind=np.array(kinds), level=np.array(levels), load=np.array(loads),
        elec_edges=elec_edges, road_edges=road_edges, dep_edges=dep_edges,
    )


def central_diff_check(loss_fn, matrices, grads, rng, probes=6, eps=1e-6, rtol=1e-3):
    """Compare analytic grads against central differences at random entries.

    Probes where two step sizes disagree are skipped: there the loss has a
    hinge/ReLU kink inside the stencil and no derivative exists. Returns the
    number of entries actually checked; asserts on every checked entry.
    """
    checked = 0
    for W, dW in zip(matrices, grads):
        for _ in range(probes):
            i = int(rng.integers(0, W.shape[0]))
            j = int(rng.integers(0, W.shape[1]))
            orig = W[i, j]

            def fd(step):
                W[i, j] = orig + step
                lp = loss_fn()
                W[i, j] = orig - step
                lm = loss_fn()
                W[i, j] = orig
                return (lp - lm) / (2 * step)

            f1, f2 = fd(eps), fd(2 * eps)
            if abs(f1 - f2) > 1e-4 * max(abs(f1), abs(f2), 1e-8):
                continue  # kink inside the stencil
            denom = max(abs(f1), abs(dW[i, j]), 1e-8)
            assert abs(f1 - dW[i, j]) / denom < rtol, (
                f"grad mismatch at ({i},{j}): fd={f1} analytic={dW[i, j]}"
            )
            checked += 1
    return checked


# -- independent oracles (straight-line reimplementations, kept test-side) --

def oracle_components(g):
    """Connected components of the alive road view by plain BFS."""
    alive = [
        v for v in range(g.n)
        if g.kind[v] == JUNCTION and g.state[v] == 0
    ]
    alive_set = set(alive)
    adj = {v: [] for v in alive}
    for u, v in g.road_edges:
        if u in alive_set and v in alive_set:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    comps = []
    for start in alive:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(len(comp))
    return comps


def oracle_sigma(g):
    return float(sum(s * (s - 1) / 2 for s in oracle_components(g)))


def oracle_gcc(g):
    comps = oracle_components(g)
    return max(comps) if comps else 0


def oracle_power(g):
    """Loads of 10kV stations reachable from 220kV tree roots over Normal nodes."""
    children = {v: [] for v in range(g.n)}
    has_parent = set()
    for p, c in g.elec_edges:
        children[p].append(c)
        has_parent.add(c)
    total = 0.0
    for root in range(g.n):
        if g.kind[root] != STATION or g.level[root] != 220 or root in has_parent:
            continue
        if g.state[root] != 0:
            continue
        queue = [root]
        while queue:
            u = queue.pop()
            if g.level[u] == 10:
                total += float(g.load[u])
            for c in children[u]:
                if g.state[c] == 0:
                    queue.append(c)
    return total


def oracle_propagate(g, v):
    """Damage Normal node v in place; returns the set the cascade made Invalid.

    A station takes every Normal descendant down the parent map, whatever
    the state of the nodes between, then every Normal light of a lost 10kV
    station (v or a descendant it just made Invalid).
    """
    parent = {c: p for p, c in g.elec_edges.tolist()}

    def descends_from_v(u):
        while u in parent:
            u = parent[u]
            if u == v:
                return True
        return False

    g.state[v] = DAMAGED
    newly_invalid = set()
    if g.kind[v] != STATION:
        return newly_invalid
    for u in range(g.n):
        if g.state[u] == NORMAL and descends_from_v(u):
            g.state[u] = INVALID
            newly_invalid.add(u)
    lost = {v} | newly_invalid
    for s, j in g.dep_edges.tolist():
        if s in lost and g.level[s] == 10 and g.state[j] == NORMAL:
            g.state[j] = INVALID
            newly_invalid.add(j)
    return newly_invalid


def oracle_degree(g, v):
    count = 0
    for edges in (g.elec_edges, g.road_edges, g.dep_edges):
        for a, b in edges:
            if a == v or b == v:
                count += 1
    return count


def oracle_ci(g, radius=1):
    """CI over the alive all-layer view; returns {alive node: score}."""
    alive = {v for v in range(g.n) if g.state[v] == 0}
    adj = {v: set() for v in alive}
    for edges in (g.elec_edges, g.road_edges, g.dep_edges):
        for a, b in edges:
            if a in alive and b in alive:
                adj[a].add(b)
                adj[b].add(a)
    deg = {v: len(adj[v]) for v in alive}
    scores = {}
    for v in alive:
        dist = {v: 0}
        frontier = [v]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        scores[v] = (deg[v] - 1) * sum(deg[u] - 1 for u in frontier)
    return scores


def reward_from_outcome(out, g, w):
    """Composite reward of one damage() outcome: a_r * sigma drop, plus
    a_e * power drop when the damaged node is a station."""
    r = w.a_r * (out.sigma_before - out.sigma_after)
    if g.kind[out.node] == STATION:
        r += w.a_e * (out.power_before - out.power_after)
    return float(r)


def reward(g, v, w):
    """Composite reward of damaging v; applies the damage to g."""
    return reward_from_outcome(damage(g, v), g, w)


def reference_run_attack(g, policy, budget, weights, method="attack"):
    """The from-scratch episode loop: a fresh damage() per step and every
    metric recomputed after it. Drop-in for cascade.run_attack."""
    env = g.fork()
    sigma0 = sigma(env)
    rep = AttackReport(
        method=method,
        nodes=[],
        power=[power(env)],
        sigma=[sigma0],
        gcc=[gcc(env)],
        anc=[1.0],
        reward=[0.0],
        cum_reward=[0.0],
    )
    for k in range(budget):
        v = int(policy(env, k))
        if env.state[v] == NORMAL:
            out = damage(env, v)
            r = reward_from_outcome(out, env, weights)
        else:
            r = 0.0
        rep.nodes.append(v)
        rep.power.append(power(env))
        rep.sigma.append(sigma(env))
        rep.gcc.append(gcc(env))
        rep.anc.append(anc(rep.sigma[1:], sigma0) if sigma0 > 0 else 0.0)
        rep.reward.append(r)
        rep.cum_reward.append(rep.cum_reward[-1] + r)
    return rep


def oracle_pooled_state(Z, removed):
    """The pooled state as a column mean over a boolean mask of the kept
    nodes. Drop-in for agent.pooled_state."""
    keep = np.ones(Z.shape[1], dtype=bool)
    keep[np.asarray(list(removed), dtype=np.int64)] = False
    if not keep.any():
        raise agent.AgentError("all nodes removed; pooled state undefined")
    return Z[:, keep].mean(axis=1)


def oracle_node_values(Z, params, target=False):
    """The node-value matrix as one allocating expression. Drop-in for
    agent.node_values without buffers."""
    t1 = params.theta1_hat if target else params.theta1
    t2 = params.theta2_hat if target else params.theta2
    return t2 @ np.maximum(t1 @ Z, 0.0)


def oracle_q_values(Z, s, params, alive_mask=None):
    q = s @ oracle_node_values(Z, params)
    return q if alive_mask is None else np.where(alive_mask, q, -np.inf)


def oracle_train(g, emb, cfg):
    """The per-step DQN training loop: the node values and the pooled state
    from scratch at every step, and every sampled transition's alive mask
    unpacked and its masked next-state max recomputed, against target node
    values recomputed inside every `td_loss`. Drop-in for agent.train."""
    Z = emb.Z
    rng = np.random.default_rng(cfg.seed)
    params = agent.QNetParams.init(Z.shape[0], rng)
    buf = agent.ReplayBuffer(cfg.buffer_size, Z.shape[0], g.n)
    log = agent.TrainLog()
    env = cascade.AttackEnv(g, cfg.weights)
    step = 0
    for ep in range(cfg.episodes):
        env.reset()
        removed = []
        s = oracle_pooled_state(Z, removed)
        cum = 0.0
        losses = []
        for k in range(cfg.budget):
            eps = agent._epsilon_at(step, cfg)
            a = agent.select_action(oracle_q_values(Z, s, params), eps, rng,
                                    env.state == NORMAL)
            r, _ = env.step(a)
            removed.append(a)
            alive = env.state == NORMAL
            done = k == cfg.budget - 1 or not alive.any()
            s_next = (oracle_pooled_state(Z, removed) if len(removed) < g.n
                      else np.zeros_like(s))
            buf.push(s, a, r, s_next, done, alive)
            s = s_next
            cum += r
            step += 1
            if buf.size >= cfg.batch_size:
                idx = rng.integers(0, buf.size, size=cfg.batch_size)
                alive_next = np.unpackbits(buf.masks[idx], axis=1)[:, :g.n].astype(bool)
                batch = (buf.s[idx], buf.a[idx], buf.r[idx], buf.s_next[idx], buf.done[idx],
                         alive_next)
                loss, d1, d2 = agent.td_loss(batch, Z, params, cfg.gamma, want_grad=True)
                params.theta1 -= cfg.lr * d1
                params.theta2 -= cfg.lr * d2
                losses.append(loss)
            if step % cfg.target_sync == 0:
                params.sync_target()
            if done:
                break
        log.episode.append(ep)
        log.cum_reward.append(cum)
        log.loss_mean.append(float(np.mean(losses)) if losses else 0.0)
        log.epsilon.append(eps)
    return params, log


def oracle_greedy_attack(g, emb, params, budget, weights=None, method="agent"):
    """The per-step greedy attack: the node values and the pooled state from
    scratch at every step. Drop-in for agent.greedy_attack."""
    Z = emb.Z
    removed = []

    def policy(graph, k):
        s = oracle_pooled_state(Z, removed)
        q = oracle_q_values(Z, s, params, alive_mask=graph.state == NORMAL)
        a = int(np.argmax(q))
        removed.append(a)
        return a

    return cascade.run_attack(g, policy, budget, weights, method=method)


def oracle_adjacency(problem):
    """The symmetric adjacency of problem's edges as a scipy CSR matrix, and
    its row sums as the degree vector."""
    m = len(problem.edges)
    rows = np.concatenate([problem.edges[:, 0], problem.edges[:, 1]])
    cols = np.concatenate([problem.edges[:, 1], problem.edges[:, 0]])
    adj = sp.csr_matrix((np.ones(2 * m), (rows, cols)), shape=(problem.n, problem.n))
    return adj, np.asarray(adj.sum(axis=1)).ravel()


def oracle_forward(F, params, problem, aggregator="sum", want_cache=False, M0=None):
    """The GNN forward pass with the sparse aggregation on transposes,
    `(adj @ H.T).T`. Drop-in for embed.forward; it ignores M0 and
    aggregates layer 0 itself."""
    adj, deg = oracle_adjacency(problem)
    H = np.asarray(F, dtype=np.float64)
    caches = []
    for W in params:
        HN = (adj @ H.T).T
        if aggregator == "mean":
            HN = HN / np.maximum(deg, 1.0)
        M = 0.5 * (H + HN)
        pre = W @ M
        caches.append((M, pre))
        H = np.maximum(pre, 0.0)
    return (H, caches) if want_cache else H


def oracle_backward(dZ, params, caches, problem, aggregator):
    """Backprop through oracle_forward's caches down to the input features;
    returns (per-matrix grads, input gradient)."""
    adj, deg = oracle_adjacency(problem)
    dWs = [None] * len(params)
    dH = dZ
    for i in range(len(params) - 1, -1, -1):
        M, pre = caches[i]
        G = dH * (pre > 0)
        dWs[i] = G @ M.T
        dM = params[i].T @ G
        dHN = 0.5 * dM
        if aggregator == "mean":
            dHN = dHN / np.maximum(deg, 1.0)
        dH = 0.5 * dM + (adj @ dHN.T).T
    return dWs, dH


def oracle_retrain(g_mask, old_emb, cfg):
    """The transfer retraining loop as a separate epoch loop: forward, hinge
    loss, pull-back term, backward and update written out. Drop-in for
    transfer.retrain."""
    F_old = old_emb.Z
    ecfg = embed.EmbedConfig(d=F_old.shape[0], seed=cfg.seed)
    problem = embed.problem_for(g_mask, "coupled", ecfg)
    rng = np.random.default_rng(cfg.seed)
    params = embed.init_params(ecfg, rng)
    scale = F_old.size
    losses = []
    for epoch in range(cfg.epochs):
        neg = embed.sample_negatives(rng, problem, len(problem.edges) * ecfg.neg_ratio)
        Z, caches = oracle_forward(F_old, params, problem, ecfg.aggregator,
                                   want_cache=True)
        recon, dZ = oracle_margin_loss(Z, problem.edges, neg, ecfg,
                                       pos_weights=problem.edge_weights, params=params)
        diff = Z - F_old
        distant = float(np.sum(diff ** 2) / scale)
        loss = recon + cfg.distance_weight * distant
        losses.append(loss)
        dZ = dZ + cfg.distance_weight * 2.0 * diff / scale
        dWs, _ = oracle_backward(dZ, params, caches, problem, ecfg.aggregator)
        for W, dW in zip(params, dWs):
            W -= cfg.lr * (dW + 2.0 * ecfg.l2 * W)
    Z = oracle_forward(F_old, params, problem, ecfg.aggregator)
    return embed.EmbeddingMatrix(Z, provenance=embed.PRETRAINED), losses


def oracle_sample_negatives(rng, problem, count):
    """The one-pair-at-a-time negative sampler: draw two pool indices with
    `rng.integers`, keep the pair if it is no self-pair and no edge. Drop-in
    for embed.sample_negatives on a pool that has a non-edge pair."""
    pool, n = problem.pool, problem.n
    edge_set = set((problem.edges.min(axis=1) * n + problem.edges.max(axis=1)).tolist())
    out = np.empty((count, 2), dtype=np.int64)
    k = 0
    while k < count:
        u, v = pool[rng.integers(0, len(pool), size=2)].tolist()
        if u != v and min(u, v) * n + max(u, v) not in edge_set:
            out[k] = (u, v)
            k += 1
    return out


def oracle_score(Z, edges):
    """Inner product of the endpoint columns of Z, one score per edge."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.einsum("ij,ij->j", Z[:, e[:, 0]], Z[:, e[:, 1]])


def oracle_margin_loss(Z, pos, neg, cfg, pos_weights=None, params=None):
    """The hinge loss with its gradient written as four scatter-adds
    (`np.add.at`) over the (node, column) cells. Drop-in for
    embed.margin_loss(..., want_grad=True)."""
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 2)
    neg = np.asarray(neg, dtype=np.int64).reshape(-1, 2)
    r = len(neg) // len(pos)
    w = np.ones(len(pos)) if pos_weights is None else np.asarray(pos_weights, float)
    pos_rep = np.repeat(pos, r, axis=0)
    w_rep = np.repeat(w, r)
    hinge = cfg.margin - oracle_score(Z, pos_rep) + oracle_score(Z, neg)
    P = len(pos_rep)
    loss = float(np.sum(w_rep * np.maximum(hinge, 0.0)) / P)
    if params is not None:
        loss += cfg.l2 * sum(float(np.sum(W * W)) for W in params)
    coef = (w_rep * (hinge > 0)) / P
    dZT = np.zeros((Z.shape[1], Z.shape[0]))
    ZT = Z.T
    np.add.at(dZT, pos_rep[:, 0], -coef[:, None] * ZT[pos_rep[:, 1]])
    np.add.at(dZT, pos_rep[:, 1], -coef[:, None] * ZT[pos_rep[:, 0]])
    np.add.at(dZT, neg[:, 0], coef[:, None] * ZT[neg[:, 1]])
    np.add.at(dZT, neg[:, 1], coef[:, None] * ZT[neg[:, 0]])
    return loss, dZT.T


def oracle_mask_graph(g, spec):
    """transfer.mask_graph with one scalar draw per electricity parent and per
    dependency supplier, and road additions drawn one pair at a time against
    a growing set of keys. Drop-in for transfer.mask_graph on specs it can
    satisfy."""
    rng = np.random.default_rng(spec.seed)
    elec = transfer._sample_keep(g.elec_edges, spec.delete_fraction, rng)
    road = transfer._sample_keep(g.road_edges, spec.delete_fraction, rng)
    dep = transfer._sample_keep(g.dep_edges, spec.delete_fraction, rng)
    add_elec = int(round(spec.add_fraction * len(g.elec_edges)))
    orphans = np.setdiff1d(np.flatnonzero(np.isin(g.level, (110, 10))), elec[:, 1])
    parents = {110: g.station_ids(level=220), 10: g.station_ids(level=110)}
    new_elec = []
    for v in orphans[rng.permutation(len(orphans))[:add_elec]]:
        cand = parents[int(g.level[v])]
        new_elec.append((cand[rng.integers(0, len(cand))], v))
    add_road = int(round(spec.add_fraction * len(g.road_edges)))
    junctions = g.junction_ids()
    existing = set((road[:, 0] * g.n + road[:, 1]).tolist())
    new_road = []
    while len(new_road) < add_road:
        u, v = junctions[rng.integers(0, len(junctions), size=2)].tolist()
        key = min(u, v) * g.n + max(u, v)
        if u != v and key not in existing:
            existing.add(key)
            new_road.append((u, v))
    add_dep = int(round(spec.add_fraction * len(g.dep_edges)))
    free = np.setdiff1d(junctions, dep[:, 1])
    leaves = g.station_ids(level=10)
    new_dep = [(leaves[rng.integers(0, len(leaves))], j)
               for j in free[rng.permutation(len(free))[:add_dep]]]
    def with_added(pairs, new):
        return np.concatenate([pairs, np.array(new, dtype=np.int64).reshape(-1, 2)])

    return CoupledGraph(
        kind=g.kind.copy(), level=g.level.copy(), load=g.load.copy(),
        elec_edges=with_added(elec, new_elec),
        road_edges=with_added(road, new_road),
        dep_edges=with_added(dep, new_dep),
    )
