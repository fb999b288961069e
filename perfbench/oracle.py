"""Independent output checks: a cascade oracle and report invariants.

The oracle replays a report's node sequence on plain Python lists built from
the graph's node attributes and edge lists. It never calls infranet code:
power walks each 10kV station's supply path up to its root, and sigma and gcc
come from a breadth-first search over the alive road junctions. Loads are
integers, so the power sums are exact in float64 in any order; the CSV values
must therefore match exactly.
"""

from __future__ import annotations

import csv
from collections import deque

STATION, JUNCTION = 0, 1
NORMAL, DAMAGED, INVALID = 0, 1, 2


class CascadeOracle:
    def __init__(self, kind, level, load, elec_edges, road_edges, dep_edges):
        self.kind = [int(k) for k in kind]
        self.level = [int(x) for x in level]
        self.load = [float(x) for x in load]
        n = len(self.kind)
        self.parent = [-1] * n
        self.children = [[] for _ in range(n)]
        for p, c in elec_edges:
            self.parent[int(c)] = int(p)
            self.children[int(p)].append(int(c))
        self.road = [[] for _ in range(n)]
        for u, v in road_edges:
            self.road[int(u)].append(int(v))
            self.road[int(v)].append(int(u))
        self.lights = [[] for _ in range(n)]
        for s, j in dep_edges:
            self.lights[int(s)].append(int(j))
        self.leaves = [v for v in range(n)
                       if self.kind[v] == STATION and self.level[v] == 10]
        self.junctions = [v for v in range(n) if self.kind[v] == JUNCTION]

    @classmethod
    def from_graph(cls, g):
        return cls(g.kind.tolist(), g.level.tolist(), g.load.tolist(),
                   g.elec_edges, g.road_edges, g.dep_edges)

    def power(self, state):
        """Load of every 10kV station whose whole path up to a parentless
        220kV station is Normal."""
        supplied = {}

        def ok(v):
            path = []
            while True:
                if v in supplied:
                    up = supplied[v]
                    break
                if state[v] != NORMAL:
                    up = False
                    break
                path.append(v)
                if self.parent[v] == -1:
                    up = self.level[v] == 220
                    break
                v = self.parent[v]
            for u in path:
                supplied[u] = up
            return up

        return sum(self.load[v] for v in self.leaves if ok(v))

    def road_metrics(self, state):
        """(sigma, gcc) of the alive junctions by breadth-first search."""
        seen = set()
        sigma = 0
        gcc = 0
        for s in self.junctions:
            if state[s] != NORMAL or s in seen:
                continue
            seen.add(s)
            queue = deque([s])
            size = 0
            while queue:
                u = queue.popleft()
                size += 1
                for w in self.road[u]:
                    if state[w] == NORMAL and w not in seen:
                        seen.add(w)
                        queue.append(w)
            sigma += size * (size - 1) // 2
            gcc = max(gcc, size)
        return float(sigma), gcc

    def damage(self, state, v):
        """Damage Normal node v: its live subtree and the lights it feeds go."""
        state[v] = DAMAGED
        if self.kind[v] != STATION:
            return
        lost = [v]
        todo = list(self.children[v])
        while todo:
            u = todo.pop()
            if state[u] == NORMAL:
                state[u] = INVALID
                lost.append(u)
            todo.extend(self.children[u])
        for s in lost:
            if self.level[s] == 10:
                for j in self.lights[s]:
                    if state[j] == NORMAL:
                        state[j] = INVALID

    def replay(self, nodes):
        """Per-step (power, sigma, gcc) series; step 0 is the intact graph."""
        state = [NORMAL] * len(self.kind)
        series = [(self.power(state), *self.road_metrics(state))]
        for v in nodes:
            if state[v] == NORMAL:
                self.damage(state, v)
            series.append((self.power(state), *self.road_metrics(state)))
        return series


def read_report(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def number(text):
    """A CSV number as written: a plain repr, or numpy 2's ``np.float64(x)``."""
    if text.endswith(")") and "(" in text:
        text = text[text.index("(") + 1:-1]
    return float(text)


def check_report(path, budget, oracle=None):
    """Problems found in one report CSV; an empty list means it passed.

    Always checks budget+1 rows and non-increasing power and sigma; with an
    oracle, also checks power, sigma and gcc at every step exactly.
    """
    rows = read_report(path)
    name = path.name
    if len(rows) != budget + 1:
        return [f"{name}: {len(rows)} rows, expected budget+1 = {budget + 1}"]
    power = [number(r["power"]) for r in rows]
    sigma = [number(r["sigma"]) for r in rows]
    problems = []
    for k in range(1, len(rows)):
        if power[k] > power[k - 1] or sigma[k] > sigma[k - 1]:
            problems.append(f"{name}: power or sigma increases at step {k}")
            break
    if oracle is not None:
        nodes = [int(r["node"]) for r in rows[1:]]
        for k, (p, s, c) in enumerate(oracle.replay(nodes)):
            got = (power[k], sigma[k], int(number(rows[k]["gcc"])))
            if got != (p, s, c):
                problems.append(
                    f"{name}: step {k} has (power, sigma, gcc) = {got}, "
                    f"oracle gives {(p, s, c)}")
                break
    return problems
