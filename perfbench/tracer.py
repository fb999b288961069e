"""Span recorder that wraps infranet's public functions from outside the package.

Each wrapped call records one span ``(id, parent, name, start, end)`` in
memory; the spans are written out once, at the end of the repeat. Wrapping
patches the module or class attribute, and also every other ``infranet``
module that imported the same function object by name, so calls through
``from .x import f`` bindings are seen too. Nothing under ``src/`` changes.

Stdlib only: the benchmark's parent process imports this module for the
metric names without importing numpy.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import time
from collections import defaultdict

# (module, attribute path) of every wrapped function, grouped by layer
# (the module name). Names are reported as "<module>.<attribute path>".
TRACED = (
    ("graph", "CoupledGraph.__post_init__"),
    ("graph", "CoupledGraph.from_json"),
    ("graph", "CoupledGraph.to_json"),
    ("graph", "CoupledGraph.fork"),
    ("graph", "CoupledGraph.degrees"),
    ("netgen", "generate"),
    ("cascade", "damage"),
    ("cascade", "power"),
    ("cascade", "sigma"),
    ("cascade", "gcc"),
    ("cascade", "run_attack"),
    ("cascade", "RewardWeights.normalized"),
    ("embed", "problem_for"),
    ("embed", "train"),
    ("embed", "train_coupled"),
    ("embed", "sample_negatives"),
    ("embed", "loss_and_grads"),
    ("embed", "forward"),
    ("embed", "margin_loss"),
    ("embed", "_backward"),
    ("embed", "save_embedding"),
    ("embed", "load_embedding"),
    ("agent", "train"),
    ("agent", "q_values"),
    ("agent", "pooled_state"),
    ("agent", "select_action"),
    ("agent", "td_loss"),
    ("agent", "ReplayBuffer.push"),
    ("agent", "ReplayBuffer.sample"),
    ("agent", "greedy_attack"),
    ("agent", "save_qnet"),
    ("agent", "load_qnet"),
    ("baselines", "de_ranking"),
    ("baselines", "ci_scores"),
    ("baselines", "gdm_labels"),
    ("baselines", "gdm_scores"),
    ("baselines", "gdm_attack"),
    ("transfer", "mask_graph"),
    ("transfer", "retrain"),
    ("transfer", "transfer_attack"),
    ("harness", "run_plan"),
    ("harness", "write_summary"),
    ("harness", "emit_curves"),
    ("serial", "write_tensors"),
    ("serial", "read_tensors"),
)

TRACED_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# functions a workload calls directly; these also report total_s
STAGE_FUNCTIONS = (
    "netgen.generate",
    "embed.train",
    "embed.train_coupled",
    "embed.save_embedding",
    "embed.load_embedding",
    "agent.train",
    "agent.save_qnet",
    "agent.load_qnet",
    "agent.greedy_attack",
    "baselines.gdm_attack",
    "transfer.mask_graph",
    "transfer.retrain",
    "transfer.transfer_attack",
    "harness.run_plan",
    "harness.emit_curves",
)

METRIC_FUNCTIONS = ("cascade.power", "cascade.sigma", "cascade.gcc")


class Tracer:
    """Wraps the TRACED functions of an imported ``infranet`` and records spans."""

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def install(self):
        import importlib

        modules = [m for k, m in sys.modules.items()
                   if k == "infranet" or k.startswith("infranet.")]
        for mod_name, attr in TRACED:
            mod = importlib.import_module(f"infranet.{mod_name}")
            name = f"{mod_name}.{attr}"
            *owner_path, leaf = attr.split(".")
            if owner_path:
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._set(owner, leaf, new)
                continue
            orig = getattr(mod, leaf)
            new = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, new)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(("id", "parent", "name", "start", "end"))
            wr.writerows((i, p, n, repr(s), repr(e)) for i, p, n, s, e in self.spans)


def read_spans(path):
    with open(path, newline="") as f:
        rows = csv.reader(f)
        next(rows)
        return [(int(i), int(p), n, float(s), float(e)) for i, p, n, s, e in rows]


def span_self_times(spans):
    """(span, self time) pairs: a span's duration minus its children's.

    Calls on one thread nest, so a span's children never overlap.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        child_time[parent] += end - start
    return [(s, (s[4] - s[3]) - child_time[s[0]]) for s in spans]


def span_stats(spans):
    """Per-function calls, self time and total time."""
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in TRACED_NAMES}
    for (_, _, name, start, end), self_s in span_self_times(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += self_s
        st["total_s"] += end - start
    return stats


def coupled_epoch_spans(spans, name):
    """Spans of `name` that belong to a coupled-graph training epoch.

    Those are the children of ``transfer.retrain`` and of ``embed.train``
    calls that train the coupled problem: a ``train`` with no
    ``train_coupled`` parent (the workload calls it on the coupled problem
    directly), or the last ``train`` inside each ``train_coupled``, which
    trains the coupled graph after the two layer pretraining stages.
    """
    by_id = {s[0]: s for s in spans}
    last_train = {}
    coupled = set()
    for sid, parent, n, start, _ in spans:
        if n == "transfer.retrain":
            coupled.add(sid)
        elif n == "embed.train":
            if by_id.get(parent, (0, 0, ""))[2] == "embed.train_coupled":
                if parent not in last_train or start > by_id[last_train[parent]][3]:
                    last_train[parent] = sid
            else:
                coupled.add(sid)
    coupled.update(last_train.values())
    return [s for s in spans if s[2] == name and s[1] in coupled]
