"""Fixed calibration kernel that measures how fast the host runs right now.

The kernel uses nothing from infranet, so a change to the program cannot
move it; only the host's speed can. It mixes the kinds of work the pipeline
does: a pure-Python breadth-first search over adjacency lists (the cascade's
traversals), small numpy operations driven from a Python loop (the DQN's
per-step work) and dense products and sorts (embedding epochs and rankings).
Every sample builds the same inputs from a fixed seed and drops them on
return, so it does the same work each time and leaves the process's peak
RSS to the program. The garbage collector is off while it is timed, so the
size of the program's heap does not reach it either.

A worker takes one sample before each stage and one after the last;
run.py scales each stage's time by its reference sample time over the mean
of the two samples around the stage (run.py, host_factors).
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

SEED = 20230719
NODES = 3000
SMALL_STEPS = 100
PASSES = 10        # one sample: about 25 ms on a 2-vCPU x86 VM at its fastest


def _bfs(adj):
    seen = [False] * len(adj)
    reached = 0
    for root in range(0, len(adj), 997):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        reached += len(queue)
    return reached


def _small_ops(small, vec):
    v = vec
    for _ in range(SMALL_STEPS):
        v = np.tanh(small @ v)
        v = v / (1.0 + np.abs(v).max())
    return float(v.sum())


def _dense(wide, tall, keys):
    return float((wide @ tall).trace()) + float(np.argsort(keys)[0])


def sample_seconds(passes=PASSES):
    """Wall seconds of `passes` passes over the three parts, inputs excluded."""
    rng = random.Random(SEED)
    adj = [[] for _ in range(NODES)]
    for _ in range(3 * NODES):
        a, b = rng.randrange(NODES), rng.randrange(NODES)
        adj[a].append(b)
        adj[b].append(a)
    g = np.random.default_rng(SEED)
    wide, tall = g.standard_normal((64, 1000)), g.standard_normal((1000, 64))
    small, vec = g.standard_normal((64, 64)), g.standard_normal(64)
    keys = g.standard_normal(20_000)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(passes):
            _bfs(adj)
            _small_ops(small, vec)
            _dense(wide, tall, keys)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
