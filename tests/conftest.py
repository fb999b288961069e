import numpy as np
import pytest

from infranet.cascade import (
    AttackReport,
    anc,
    damage,
    gcc,
    power,
    reward_from_outcome,
    sigma,
)
from infranet.graph import JUNCTION, NORMAL, STATION, CoupledGraph
from infranet.netgen import GenConfig, generate


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
