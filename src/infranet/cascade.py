"""Cascade-failure engine and environment metrics.

Power follows supply reachability: a 10kV station delivers its load while
every station on its path from a parentless 220kV root is Normal. Damaging
a station invalidates its whole live subtree and every traffic light fed by
a lost 10kV station; damaging a junction removes only that junction.

Road connectivity sigma = sum over components of size*(size-1)/2, computed
on the alive road view; gcc is the largest component size. Both come from
one vectorised component labelling of the alive junctions.

damage() is the from-scratch single step for a graph in any state.
AttackEnv runs episodes on a private fork: it caches the intact metrics
once, updates power by subtraction and labels the road view again only when
a junction dies, so a step costs about 1 ms on the paper preset (n=15,774)
where a fork plus damage() costs about 65 ms. run_attack, agent training and
GDM labelling all step an AttackEnv.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .graph import DAMAGED, INVALID, NORMAL, STATION, CoupledGraph


class CascadeError(ValueError):
    pass


@dataclass(frozen=True)
class RewardWeights:
    """Coefficients of the composite reward: a_e * power drop + a_r * sigma drop."""

    a_e: float = 1.0
    a_r: float = 1.0

    def __post_init__(self):
        if self.a_e < 0 or self.a_r < 0 or self.a_e + self.a_r <= 0:
            raise CascadeError("weights must be nonnegative with positive sum")

    @classmethod
    def normalized(cls, g: CoupledGraph) -> "RewardWeights":
        """Each term scaled by its intact total, so both start with unit budget."""
        p0 = power(g)
        s0 = sigma(g)
        return cls(a_e=1.0 / p0 if p0 > 0 else 0.0, a_r=1.0 / s0 if s0 > 0 else 1.0)


@dataclass
class CascadeOutcome:
    node: int
    newly_invalid: set
    power_before: float
    power_after: float
    sigma_before: float
    sigma_after: float
    gcc_after: int


def power(g: CoupledGraph) -> float:
    """Total delivered load: 10kV loads reachable from live 220kV roots."""
    total = 0.0
    stack = [int(r) for r in g.elec_roots() if g.state[r] == NORMAL]
    while stack:
        v = stack.pop()
        if g.level[v] == 10:
            total += g.load[v]
        for c in g.elec_children[v]:
            if g.state[c] == NORMAL:
                stack.append(int(c))
    return float(total)


def _component_labels(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Connected-component labels of nodes 0..n-1 over the given edges.

    Every node is labelled with the smallest id in its component. Min-label
    hooking (each root adopts the smallest label across its edges) alternates
    with pointer jumping until no edge joins two labels. Labels only ever
    decrease, so the loop terminates.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[edge_u], label[edge_v]
        cross = lu != lv
        if not cross.any():
            return label
        lu, lv = lu[cross], lv[cross]
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _road_metrics(g: CoupledGraph):
    """(sigma, gcc) of the alive road view in one labelling pass."""
    alive = g.state[g.junctions] == NORMAL
    keep = alive[g.road_u] & alive[g.road_v]
    label = _component_labels(len(alive), g.road_u[keep], g.road_v[keep])
    sizes = np.bincount(label[alive])
    return float(np.sum(sizes * (sizes - 1) // 2)), int(sizes.max(initial=0))


def sigma(g: CoupledGraph) -> float:
    """Pairwise-connectivity count of the alive road view."""
    return _road_metrics(g)[0]


def gcc(g: CoupledGraph) -> int:
    """Largest alive road component size; 0 for an empty view."""
    return _road_metrics(g)[1]


def anc(sigmas, sigma0: float) -> float:
    """Accumulated normalized connectivity of the post-removal sigma series."""
    if len(sigmas) == 0:
        raise CascadeError("anc needs at least one post-removal value")
    if sigma0 <= 0:
        raise CascadeError("sigma0 must be positive")
    return float(np.mean(np.asarray(sigmas, dtype=np.float64) / sigma0))


def _check_normal(g: CoupledGraph, v: int):
    if not 0 <= v < g.n:
        raise CascadeError(f"node id {v} out of range")
    if g.state[v] != NORMAL:
        raise CascadeError(f"node {v} is not Normal; mask such actions")


def _propagate(g: CoupledGraph, v: int) -> set:
    """Damage Normal node v and propagate the cascade to a fixed point.

    Returns the nodes the cascade made Invalid (v itself excluded).
    """
    newly_invalid = set()
    g.state[v] = DAMAGED
    if g.kind[v] == STATION:
        # whole live subtree loses supply
        stack = [v]
        while stack:
            u = stack.pop()
            for c in g.elec_children[u]:
                c = int(c)
                if g.state[c] == NORMAL:
                    g.state[c] = INVALID
                    newly_invalid.add(c)
                stack.append(c)
        # lights fed by the damaged station or a freshly lost 10kV station
        lost = {v} | newly_invalid
        for s in list(lost):
            if g.level[s] == 10:
                for j in g.dep_lights[s]:
                    j = int(j)
                    if g.state[j] == NORMAL:
                        g.state[j] = INVALID
                        newly_invalid.add(j)
    return newly_invalid


def damage(g: CoupledGraph, v: int) -> CascadeOutcome:
    """Damage one Normal node and propagate the cascade to a fixed point.

    Every metric is computed from scratch, so g may be in any state; this is
    the single-step reference that AttackEnv.step must agree with.
    """
    v = int(v)
    _check_normal(g, v)
    p_before = power(g)
    s_before = sigma(g)
    newly_invalid = _propagate(g, v)
    return CascadeOutcome(
        node=v,
        newly_invalid=newly_invalid,
        power_before=p_before,
        power_after=power(g),
        sigma_before=s_before,
        sigma_after=sigma(g),
        gcc_after=gcc(g),
    )


def _reward(w: RewardWeights, station: bool, power_drop: float, sigma_drop: float) -> float:
    r = w.a_r * sigma_drop
    if station:
        r += w.a_e * power_drop
    return float(r)


def reward_from_outcome(out: CascadeOutcome, g: CoupledGraph, w: RewardWeights) -> float:
    return _reward(w, g.kind[out.node] == STATION, out.power_before - out.power_after,
                   out.sigma_before - out.sigma_after)


def reward(g: CoupledGraph, v: int, w: RewardWeights) -> float:
    """Composite reward of damaging v; applies the damage to g."""
    return reward_from_outcome(damage(g, v), g, w)


class AttackEnv:
    """Attack episodes on one private fork of a graph, with cached metrics.

    The intact power, sigma and gcc are computed once per env; reset()
    returns to the intact state without recomputing them. step(v) updates
    them incrementally:

    - power is the sum of ``feeds`` over Normal nodes: the fork starts
      all-Normal and a cascade always takes a whole live subtree, so a
      Normal station always has Normal ancestors. A step subtracts
      ``feeds`` of v and of each node the cascade made Invalid. Integer
      loads keep every sum exact, so it equals power() of the same state.
    - sigma and gcc are labelled again only when a junction died.

    A step costs about 1 ms on the paper preset (n=15,774), against about
    65 ms for a fork plus a from-scratch damage(). The state must change
    only through step() and reset().
    """

    def __init__(self, g: CoupledGraph, weights: RewardWeights):
        self.graph = g.fork()
        self.weights = weights
        self._intact = (float(g.feeds.sum()), *_road_metrics(self.graph))
        self.reset()

    @property
    def state(self) -> np.ndarray:
        return self.graph.state

    def reset(self):
        self.graph.state.fill(NORMAL)
        self.power, self.sigma, self.gcc = self._intact

    def step(self, v: int):
        """Damage Normal node v; returns (reward, newly_invalid)."""
        g = self.graph
        v = int(v)
        _check_normal(g, v)
        newly_invalid = _propagate(g, v)
        lost = np.array([v, *newly_invalid])
        p_before, s_before = self.power, self.sigma
        self.power = p_before - float(g.feeds[lost].sum())
        if np.any(g.kind[lost] != STATION):
            self.sigma, self.gcc = _road_metrics(g)
        r = _reward(self.weights, g.kind[v] == STATION, p_before - self.power,
                    s_before - self.sigma)
        return r, newly_invalid


@dataclass
class AttackReport:
    """Ordered damaged nodes plus per-step metric series (step 0 = intact)."""

    method: str
    nodes: list                      # length K; node picked at step k
    power: list                      # length K+1
    sigma: list
    gcc: list
    anc: list
    reward: list
    cum_reward: list
    wall_seconds: float = 0.0

    COLUMNS = ("step", "node", "power", "sigma", "gcc", "anc", "reward", "cum_reward")

    @property
    def budget(self) -> int:
        return len(self.nodes)

    @property
    def final_cum_reward(self) -> float:
        return self.cum_reward[-1]

    def rows(self):
        for k in range(len(self.power)):
            node = self.nodes[k - 1] if k > 0 else -1
            yield (
                k,
                node,
                repr(self.power[k]),
                repr(self.sigma[k]),
                self.gcc[k],
                repr(self.anc[k]),
                repr(self.reward[k]),
                repr(self.cum_reward[k]),
            )

    def save_csv(self, path):
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(self.COLUMNS)
            wr.writerows(self.rows())


def run_attack(g: CoupledGraph, policy, budget: int, weights: RewardWeights,
               method: str = "attack") -> AttackReport:
    """Run one attack episode on a fork of g.

    policy(graph, step) -> node id, where graph is the episode's fork; a
    node that is no longer Normal when its turn comes is recorded as a no-op
    step (zero reward, metrics unchanged).
    """
    t0 = time.perf_counter()
    env = AttackEnv(g, weights)
    sigma0 = env.sigma
    rep = AttackReport(
        method=method,
        nodes=[],
        power=[env.power],
        sigma=[sigma0],
        gcc=[env.gcc],
        anc=[1.0],
        reward=[0.0],
        cum_reward=[0.0],
    )
    for k in range(budget):
        v = int(policy(env.graph, k))
        r = env.step(v)[0] if env.state[v] == NORMAL else 0.0
        rep.nodes.append(v)
        rep.power.append(env.power)
        rep.sigma.append(env.sigma)
        rep.gcc.append(env.gcc)
        rep.anc.append(anc(rep.sigma[1:], sigma0) if sigma0 > 0 else 0.0)
        rep.reward.append(r)
        rep.cum_reward.append(rep.cum_reward[-1] + r)
    rep.wall_seconds = time.perf_counter() - t0
    return rep


def replay_attack(g: CoupledGraph, nodes, weights: RewardWeights,
                  method: str = "attack") -> AttackReport:
    """Apply a fixed node sequence and record the metric series."""
    seq = list(nodes)
    return run_attack(g, lambda env, k: seq[k], len(seq), weights, method=method)
