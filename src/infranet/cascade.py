"""Cascade-failure engine and environment metrics.

Power follows supply reachability: a 10kV station delivers its load while
every station on its chain up to a parentless 220kV root is Normal. Damaging
a station invalidates its whole live subtree and every traffic light fed by
a lost 10kV station; damaging a junction removes only that junction.

Both rules are array masks. Levels run 220 -> 110 -> 10, so a supply chain
is a node, its `elec_parent` and its `elec_grandparent`; power() sums `feeds`
over the nodes whose chain is all Normal (about 0.1 ms on paper, n=15,774).
Damaging a 220kV or 110kV station v invalidates every Normal node whose
parent or grandparent is v, then the Normal lights in `dep_edges` of the
10kV stations it cut off; a 10kV station's lights are one run of the sorted
`dep_edges`. On paper that takes about 80, 50 and 10 us at 220, 110 and 10kV.

Road connectivity sigma = sum over components of size*(size-1)/2, computed
on the alive road view; gcc is the largest component size. Both come from
one vectorised component labelling of the alive junctions
(`graph._component_labels`: min-label hooking and pointer jumping). The
graph numbers its road view breadth-first, so on paper a labelling after
junction deaths takes about 2.4 hooking rounds and 11 jumps, about 0.25 ms,
where the id order took 4.9 rounds and 17 jumps, about 0.55 ms.

damage() is the from-scratch single step for a graph in any state.
AttackEnv runs episodes on a private fork: it takes the intact metrics from
the graph's intact component sizes, updates power by subtraction and labels
the road view again only when a junction dies. On the paper preset a step
that kills a junction costs about 0.45 ms and any other about 0.1 ms, where
a fork plus damage() costs about 1.5 ms. run_attack, agent training and GDM
labelling all step an AttackEnv.

A step's reward is a_e * power drop + a_r * sigma drop. `weights=None`, the
default of every attack entry point, scales each term by its intact total;
AttackEnv alone resolves it, with RewardWeights.normalized(g).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields

import numpy as np

from .graph import DAMAGED, INVALID, NORMAL, STATION, CoupledGraph, _component_labels


class CascadeError(ValueError):
    pass


@dataclass(frozen=True)
class RewardWeights:
    """Coefficients of the composite reward: a_e * power drop + a_r * sigma drop."""

    a_e: float = 1.0
    a_r: float = 1.0

    def __post_init__(self):
        check_fields(self, CascadeError, lambda: (
            ("weights", self.a_e >= 0 and self.a_r >= 0 and 0 < self.a_e + self.a_r < np.inf,
             "be nonnegative and finite with positive sum"),
        ))

    @classmethod
    def normalized(cls, g: CoupledGraph) -> "RewardWeights":
        """The default weights of an attack on g: each term over its intact total."""
        p0, s0 = float(g.feeds.sum()), _size_metrics(g.road_sizes)[0]
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
    """Delivered load: `feeds` summed over the nodes whose supply chain is Normal."""
    ok = np.append(g.state == NORMAL, True)     # ok[-1] stands for "no ancestor"
    live = ok[:-1] & ok[g.elec_parent] & ok[g.elec_grandparent]
    return float(g.feeds[live].sum())


def _size_metrics(sizes: np.ndarray):
    """(sigma, gcc) of a road view whose components have the given sizes."""
    return float(np.sum(sizes * (sizes - 1) // 2)), int(sizes.max(initial=0))


def _road_metrics(g: CoupledGraph):
    """(sigma, gcc) of the alive road view in one labelling pass."""
    alive = g.state[g.junctions] == NORMAL
    keep = alive[g.road_u] & alive[g.road_v]
    label = _component_labels(len(alive), g.road_u[keep], g.road_v[keep])
    return _size_metrics(np.bincount(label[alive]))


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


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fields(cfg, error, rules):
    """Raise `error` at the first bad field of the config dataclass `cfg`:
    int-default fields need integers (not bools), float-default ones numbers,
    then each `(key, ok, rule)` row of `rules()`, built once the types hold,
    must be `ok`, else: "<key> must <rule>, got <field or cfg>"."""
    for f in fields(cfg):
        v, kind = getattr(cfg, f.name), type(f.default)
        if kind in (int, float) and not (is_int(v) or kind is float and isinstance(v, float)):
            raise error(f"{f.name} must be {'an integer' if kind is int else 'a number'}, "
                        f"got {v!r}")
    for key, ok, rule in rules():
        if not ok:
            raise error(f"{key} must {rule}, got {getattr(cfg, key, cfg)!r}")


def check_budget(g: CoupledGraph, budget: int, error=CascadeError):
    """Raise `error` unless 1 <= budget <= the number of Normal nodes."""
    normal = int(np.count_nonzero(g.state == NORMAL))
    if budget < 1:
        raise error(f"budget must be >= 1, got {budget}")
    if budget > normal:
        raise error(f"budget {budget} exceeds the {normal} Normal nodes of the graph")


def _check_normal(g: CoupledGraph, v: int):
    if not 0 <= v < g.n:
        raise CascadeError(f"node id {v} out of range")
    if g.state[v] != NORMAL:
        raise CascadeError(f"node {v} is not Normal; mask such actions")


def _propagate(g: CoupledGraph, v: int) -> np.ndarray:
    """Damage Normal node v and propagate the cascade to a fixed point.

    Returns the int64 ids of the nodes the cascade made Invalid (v excluded).
    """
    state = g.state
    state[v] = DAMAGED
    if g.kind[v] != STATION:
        return np.empty(0, dtype=np.int64)
    supplier, light = g.dep_edges[:, 0], g.dep_edges[:, 1]
    if g.level[v] == 10:        # no children; its lights are one run of dep_edges
        below = np.empty(0, dtype=np.int64)
        lights = light[slice(*np.searchsorted(supplier, (v, v + 1)))]
    else:
        lost = (state == NORMAL) & ((g.elec_parent == v) | (g.elec_grandparent == v))
        state[lost] = INVALID
        below = np.flatnonzero(lost)
        lights = light[lost[supplier]]
    dark = lights[state[lights] == NORMAL]
    state[dark] = INVALID
    return np.concatenate((below, dark))


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
        newly_invalid=set(newly_invalid.tolist()),
        power_before=p_before,
        power_after=power(g),
        sigma_before=s_before,
        sigma_after=sigma(g),
        gcc_after=gcc(g),
    )


class AttackEnv:
    """Attack episodes on one private fork of a graph, with cached metrics.

    The intact power, sigma and gcc are taken once per env from the graph
    (`feeds` and `road_sizes`, so building an env labels nothing); reset()
    returns to the intact state without recomputing them. step(v) updates
    them incrementally:

    - power is the sum of ``feeds`` over Normal nodes: the fork starts
      all-Normal and a cascade always takes a whole live subtree, so a
      Normal station always has Normal ancestors. A step subtracts
      ``feeds`` of v and of each node the cascade made Invalid. Integer
      loads keep every sum exact, so it equals power() of the same state.
    - sigma and gcc are labelled again only when a junction died.

    On the paper preset (n=15,774) a step that kills a junction costs about
    0.45 ms and any other about 0.1 ms, against about 1.5 ms for a fork plus
    a from-scratch damage(). The state must change only through step() and
    reset().
    """

    def __init__(self, g: CoupledGraph, weights: RewardWeights = None):
        self.graph = g.fork()
        self._intact = (float(g.feeds.sum()), *_size_metrics(g.road_sizes))
        self.weights = weights or RewardWeights.normalized(g)
        self.reset()

    @property
    def state(self) -> np.ndarray:
        return self.graph.state

    def reset(self):
        self.graph.state.fill(NORMAL)
        self.power, self.sigma, self.gcc = self._intact

    def step(self, v: int):
        """Damage Normal node v; returns the reward a_r * sigma drop + a_e * power drop."""
        g = self.graph
        v = int(v)
        _check_normal(g, v)
        lost = np.append(_propagate(g, v), v)
        p_before, s_before = self.power, self.sigma
        self.power = p_before - float(g.feeds[lost].sum())
        if np.any(g.kind[lost] != STATION):
            self.sigma, self.gcc = _road_metrics(g)
        w = self.weights
        return float(w.a_r * (s_before - self.sigma) + w.a_e * (p_before - self.power))


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
    seed: int = None                 # the plan seed of a report cell; run_plan sets it

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


def run_attack(g: CoupledGraph, policy, budget: int, weights: RewardWeights = None,
               method: str = "attack") -> AttackReport:
    """Run one attack episode on a fork of g.

    policy(graph, step) -> node id, where graph is the episode's fork; a
    node that is no longer Normal when its turn comes is recorded as a no-op
    step (zero reward, metrics unchanged). A node id outside the graph is a
    CascadeError.
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
        if not 0 <= v < g.n:
            raise CascadeError(f"step {k}: node id {v} out of range [0,{g.n})")
        r = env.step(v) if env.state[v] == NORMAL else 0.0
        rep.nodes.append(v)
        rep.power.append(env.power)
        rep.sigma.append(env.sigma)
        rep.gcc.append(env.gcc)
        rep.anc.append(anc(rep.sigma[1:], sigma0) if sigma0 > 0 else 0.0)
        rep.reward.append(r)
        rep.cum_reward.append(rep.cum_reward[-1] + r)
    rep.wall_seconds = time.perf_counter() - t0
    return rep


def replay_attack(g: CoupledGraph, nodes, weights: RewardWeights = None,
                  method: str = "attack") -> AttackReport:
    """Apply a fixed node sequence and record the metric series."""
    seq = list(nodes)
    return run_attack(g, lambda env, k: seq[k], len(seq), weights, method=method)
