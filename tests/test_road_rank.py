"""The breadth-first rank of each road view, built with the graph, checked
against a plain BFS: the rank itself, the bound on its search, the intact
component sizes AttackEnv reuses, and sigma/gcc after every step of a random
attack."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from infranet import cascade, netgen
from infranet.cascade import AttackEnv, gcc, sigma
from infranet.graph import JUNCTION, NORMAL, RANK_LEVELS, STATION, CoupledGraph

from conftest import oracle_components, oracle_gcc, oracle_power, oracle_sigma, random_coupled


def view_graph(kinds, edges):
    """A graph of 220kV stations with no edges and junctions joined by the
    given road edges; stations change the junctions' positions."""
    n = len(kinds)
    return CoupledGraph(kind=kinds, level=[220 if k == STATION else 0 for k in kinds],
                        load=[0.0] * n, elec_edges=[], road_edges=edges, dep_edges=[])


def piece_edges(shape, n, rng):
    """Road edges over 0..n-1 of one connected piece."""
    order = {"path_up": np.arange(n), "path_down": np.arange(n)[::-1]}.get(shape)
    if order is not None:
        return list(zip(order[:-1], order[1:]))
    order = rng.permutation(n)
    if shape == "path_shuffled":
        return list(zip(order[:-1], order[1:]))
    if shape == "ring_chords":
        edges = {tuple(sorted(e)) for e in zip(order, np.roll(order, -1)) if e[0] != e[1]}
        for _ in range(n // 5):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)
    return netgen._grid_edges(n, 0).tolist()


SHAPES = ("path_up", "path_down", "path_shuffled", "ring_chords", "grid")


@st.composite
def road_views(draw):
    """Road views of a few pieces: paths in both id orders, shuffled paths,
    rings with chords and grids, each on the next block of junction ids, with
    stations among the junctions; or a random_coupled graph."""
    if draw(st.booleans()):
        return random_coupled(draw(st.integers(0, 500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = draw(st.lists(st.tuples(st.sampled_from(SHAPES), st.integers(1, 40)),
                           min_size=1, max_size=3))
    junctions = sum(size for _, size in pieces)
    kinds = [STATION] * draw(st.integers(0, 5)) + [JUNCTION] * junctions
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    ids = np.flatnonzero(np.array(kinds) == JUNCTION)
    edges, at = [], 0
    for shape, size in pieces:
        edges += [(ids[at + u], ids[at + v]) for u, v in piece_edges(shape, size, rng)]
        at += size
    return view_graph(kinds, edges)


def bfs_levels(g):
    """Each junction's BFS level from its component's smallest junction, by
    plain BFS over the road edges, and the component's smallest junction."""
    adj = {int(v): [] for v in np.flatnonzero(g.kind == JUNCTION)}
    for u, v in g.road_edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    level, root = {}, {}
    for r in sorted(adj):
        if r in level:
            continue
        level[r], root[r] = 0, r
        queue = deque([r])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in level:
                    level[y], root[y] = level[x] + 1, r
                    queue.append(y)
    return level, root


def oracle_rank_order(g):
    """Junctions by (BFS level, id) up to RANK_LEVELS levels, then the rest by id."""
    level, _ = bfs_levels(g)
    reached = sorted((lv, v) for v, lv in level.items() if lv < RANK_LEVELS)
    return [v for _, v in reached] + sorted(v for v, lv in level.items() if lv >= RANK_LEVELS)


def deep_path(n, seed):
    order = np.random.default_rng(seed).permutation(n)
    return view_graph([JUNCTION] * n, np.stack([order[:-1], order[1:]], axis=1)), order


DEEP = deep_path(2 * RANK_LEVELS + 40, 7)[0]      # has junctions the search leaves unreached


@settings(max_examples=80, deadline=None)
@given(g=road_views())
@example(g=DEEP)
def test_rank_is_a_permutation_of_the_junctions(g):
    assert sorted(g.junctions.tolist()) == np.flatnonzero(g.kind == JUNCTION).tolist()
    # road_u/road_v are the edges' ends as positions in `junctions`
    np.testing.assert_array_equal(np.sort(g.junctions[np.stack([g.road_u, g.road_v], axis=1)],
                                          axis=1), g.road_edges)


@settings(max_examples=80, deadline=None)
@given(g=road_views())
@example(g=DEEP)
def test_reached_junctions_have_a_lower_ranked_neighbour(g):
    level, root = bfs_levels(g)
    rank = {int(v): i for i, v in enumerate(g.junctions)}
    lowest = dict(rank)                 # the lowest rank among v and its neighbours
    for u, v in g.road_edges.tolist():
        lowest[u] = min(lowest[u], rank[v])
        lowest[v] = min(lowest[v], rank[u])
    for v, lv in level.items():
        if root[v] == v:
            assert rank[v] == min(rank[x] for x in level if root[x] == v)
        elif lv < RANK_LEVELS:
            assert lowest[v] < rank[v], f"junction {v} (level {lv}) has no lower-ranked neighbour"


@settings(max_examples=80, deadline=None)
@given(g=road_views())
@example(g=DEEP)
def test_rank_is_breadth_first_by_level_then_id(g):
    assert g.junctions.tolist() == oracle_rank_order(g)
    assert sorted(g.road_sizes.tolist()) == sorted(oracle_components(g))


@settings(max_examples=40, deadline=None)
@given(g=road_views())
def test_forks_share_the_ranked_view(g):
    f = g.fork()
    for name in ("junctions", "road_u", "road_v", "road_sizes"):
        assert getattr(f, name) is getattr(g, name), name


@settings(max_examples=60, deadline=None)
@given(g=road_views(), seed=st.integers(0, 10_000))
def test_metrics_match_oracles_through_a_random_attack(g, seed):
    env = AttackEnv(g)
    assert (env.power, env.sigma, env.gcc) == (oracle_power(g), oracle_sigma(g), oracle_gcc(g))
    for v in np.random.default_rng(seed).permutation(g.n)[:15]:
        if env.state[v] != NORMAL:
            continue
        env.step(v)
        ref = env.graph
        assert (sigma(ref), gcc(ref)) == (env.sigma, env.gcc) == (oracle_sigma(ref),
                                                                  oracle_gcc(ref))


# -- the bound on the search --------------------------------------------------

def test_deep_view_ranks_capped_levels_then_id_order():
    n = 20_000
    g, order = deep_path(n, 20)
    at = int(np.flatnonzero(order == 0)[0])          # junction 0 roots the path
    assert RANK_LEVELS <= at < n - RANK_LEVELS        # both directions run past the cap
    want = [0] + [v for k in range(1, RANK_LEVELS)
                  for v in sorted((int(order[at - k]), int(order[at + k])))]
    assert g.junctions[:len(want)].tolist() == want
    rest = g.junctions[len(want):]
    assert len(rest) == n - len(want) and np.all(np.diff(rest) > 0)
    assert g.road_sizes.tolist() == [n]
    env = AttackEnv(g)
    assert (env.sigma, env.gcc) == (sigma(g), gcc(g)) == (oracle_sigma(g), oracle_gcc(g))
    for v in np.random.default_rng(0).choice(n, 4, replace=False):
        env.step(v)
        assert (env.sigma, env.gcc) == (oracle_sigma(env.graph), oracle_gcc(env.graph))


# -- the intact component sizes AttackEnv reuses ------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_env_build_labels_nothing(seed, monkeypatch):
    g = random_coupled(seed)
    calls = []
    real = cascade._road_metrics
    monkeypatch.setattr(cascade, "_road_metrics", lambda graph: calls.append(1) or real(graph))
    env = AttackEnv(g)
    assert calls == []
    assert (env.power, env.sigma, env.gcc) == (oracle_power(g), oracle_sigma(g), oracle_gcc(g))
    # the env's intact view is all-Normal whatever state g is in
    g.state[np.flatnonzero(g.kind == JUNCTION)[::2]] = 1
    env, fresh = AttackEnv(g), g.fork()
    assert (env.sigma, env.gcc) == (oracle_sigma(fresh), oracle_gcc(fresh))
    assert calls == []
