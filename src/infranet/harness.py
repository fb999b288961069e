"""Experiment orchestration: agent vs. baselines across seeds, plus curve
and summary emission.

A plan names a graph source, the methods to run, the budget, the seeds, and
optional config overrides. `METHODS` is the one table from a method name to
the attack it runs; `run_plan` and the `baseline` subcommand both dispatch
through it. Every (method, seed) cell writes its own report CSV; a summary
CSV aggregates final cumulative reward, power fraction, and ANC per method.
A seed-free method (DE, CI) never reads the seed, so `run_plan` simulates it
once, under the plan's first seed, and gives every other seed a copy of that
report, wall_seconds included.
Cells run on INFRA_THREADS threads (unset or empty: 1), which pays off for
agent and GDM cells, whose numpy work releases the GIL, and not for
DE/CI/random; outputs are byte-identical for any thread count.
"""

from __future__ import annotations

import copy
import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import agent as agent_mod
from . import baselines, embed as embed_mod
from .cascade import AttackReport, RewardWeights, is_int
from .graph import CoupledGraph
from .netgen import PRESETS, generate, preset_config


class PlanError(ValueError):
    pass


# the keys a plan document and its graph block may hold
_PLAN_KEYS = ("graph", "methods", "budget", "seeds", "ci_radius", "weights", "embed",
              "agent", "gdm")
_GRAPH_KEYS = {"preset": "graph_preset", "seed": "graph_seed", "file": "graph_file"}
# the block keys every cell sets itself, and the plan key it takes them from
_CELL_KEYS = {"agent": {"seed": "seeds", "weights": "weights"}, "gdm": {"seed": "seeds"}}


@dataclass
class ExperimentPlan:
    graph_preset: str = None
    graph_seed: int = 0
    graph_file: str = None
    methods: tuple = ("de", "ci", "random")
    budget: int = 10
    seeds: tuple = (0,)
    weights: RewardWeights = None       # None = normalized per graph
    embed_config: embed_mod.EmbedConfig = field(default_factory=embed_mod.EmbedConfig)
    agent_config: agent_mod.AgentConfig = field(default_factory=agent_mod.AgentConfig)
    gdm_config: baselines.GdmConfig = field(default_factory=baselines.GdmConfig)
    ci_radius: int = 1

    def validate(self):
        if not self.methods or not self.seeds:
            raise PlanError("plan needs at least one method and one seed")
        for key in ("budget", "ci_radius"):
            value = getattr(self, key)
            if not is_int(value) or value < 1:
                raise PlanError(f"plan key {key!r} must be an integer >= 1, got {value!r}")
        if not all(is_int(s) and s >= 0 for s in self.seeds):
            raise PlanError("plan key 'seeds' must be a list of integers >= 0, "
                            f"got {list(self.seeds)!r}")
        for m in self.methods:
            if not isinstance(m, str) or m not in METHODS:
                raise PlanError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        if self.graph_preset is None and self.graph_file is None:
            raise PlanError("plan needs a graph preset or file")
        if self.graph_preset is not None and self.graph_file is not None:
            raise PlanError("plan names both a graph preset and a graph file; give one")
        if self.graph_preset is not None and (not isinstance(self.graph_preset, str)
                                              or self.graph_preset not in PRESETS):
            raise PlanError(f"unknown graph preset {self.graph_preset!r}; "
                            f"choose from {sorted(PRESETS)}")
        if self.graph_file is not None and not isinstance(self.graph_file, (str, os.PathLike)):
            raise PlanError(f"graph file must be a path, got {self.graph_file!r}")
        if not is_int(self.graph_seed):
            raise PlanError(f"graph seed must be an integer, got {self.graph_seed!r}")
        if self.graph_seed < 0:
            raise PlanError(f"graph seed must be >= 0, got {self.graph_seed!r}")

    @classmethod
    def from_json(cls, text) -> "ExperimentPlan":
        """The plan a document (str, or bytes in a JSON encoding) describes."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:     # bad syntax, encoding or depth
            raise PlanError(f"plan document is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise PlanError("plan document must be a JSON object")
        for key in doc:
            if key not in _PLAN_KEYS:
                raise PlanError(f"unknown plan key {key!r}; choose from {list(_PLAN_KEYS)}")
        for block in ("graph", "weights", "embed", "agent", "gdm"):
            if block in doc and not isinstance(doc[block], dict):
                raise PlanError(f"plan block {block!r} must be a JSON object, "
                                f"got {doc[block]!r}")
        for key in doc.get("graph", {}):
            if key not in _GRAPH_KEYS:
                raise PlanError(f"unknown key {key!r} in plan block 'graph'; "
                                f"choose from {list(_GRAPH_KEYS)}")
        if not isinstance(doc.get("seeds", []), list):
            raise PlanError(f"plan key 'seeds' must be a list of integers, got {doc['seeds']!r}")
        if not isinstance(doc.get("methods", []), list):
            raise PlanError(f"plan key 'methods' must be a list of names, got {doc['methods']!r}")
        graph, weights = doc.get("graph", {}), doc.get("weights")
        plan = cls(
            **{_GRAPH_KEYS[key]: value for key, value in graph.items()},
            **{key: tuple(doc[key]) for key in ("methods", "seeds") if key in doc},
            **{key: doc[key] for key in ("budget", "ci_radius") if key in doc},
            weights=_override("weights", RewardWeights, weights) if weights else None,
            embed_config=_override("embed", embed_mod.EmbedConfig, doc.get("embed", {})),
            gdm_config=_override("gdm", baselines.GdmConfig, doc.get("gdm", {})),
        )
        plan.validate()
        if "agent" in doc:      # the agent's budget defaults to the plan's
            plan.agent_config = _override("agent", agent_mod.AgentConfig,
                                          {"budget": plan.budget, **doc["agent"]})
        if "file" in graph and "seed" in graph:
            raise PlanError("plan block 'graph': a seed applies to a preset, not to a file")
        if "agent" in doc and plan.agent_config.budget != plan.budget:
            raise PlanError(f"plan block 'agent': budget {plan.agent_config.budget!r} "
                            f"differs from the plan's budget {plan.budget!r}; agent cells "
                            "train and attack with the plan's budget")
        return plan

    def load_graph(self) -> CoupledGraph:
        if self.graph_file is not None:
            return CoupledGraph.from_file(self.graph_file)
        return generate(preset_config(self.graph_preset, seed=self.graph_seed))


def _override(block: str, cls, overrides: dict):
    """The config `cls` built from a plan block's values; an unknown key, a key
    every cell sets itself, or a rejected value is a PlanError."""
    names = [f.name for f in fields(cls)]
    for key in overrides:
        if key not in names:
            raise PlanError(f"unknown key {key!r} in plan block {block!r}; choose from {names}")
        if key in _CELL_KEYS.get(block, {}):
            raise PlanError(f"plan block {block!r}: {key} must be left out; "
                            f"each cell takes the plan's {_CELL_KEYS[block][key]}")
    try:
        return cls(**overrides)
    except ValueError as e:     # every config checks its fields when built
        raise PlanError(f"plan block {block!r}: {e}") from None


class Method(NamedTuple):
    """One attack a plan can name.

    `run(g, emb, plan, seed, weights)` returns the cell's AttackReport.
    `needs_embedding` methods get the plan's coupled embedding as `emb`
    (None otherwise). `baseline` methods train no agent; they are the kinds
    of the `baseline` subcommand. A method that is not `seeded` ignores
    `seed`: `run_plan` runs it once and writes its report for every seed.
    """

    run: Callable[..., AttackReport]
    needs_embedding: bool = False
    baseline: bool = True
    seeded: bool = True


def _de(g, emb, plan, seed, weights):
    return baselines.de_attack(g, plan.budget, weights)


def _ci(g, emb, plan, seed, weights):
    return baselines.ci_attack(g, plan.budget, radius=plan.ci_radius, weights=weights)


def _gdm(g, emb, plan, seed, weights):
    cfg = replace(plan.gdm_config, seed=seed)
    return baselines.gdm_attack(g, emb, plan.budget, cfg, weights)


def _random(g, emb, plan, seed, weights):
    return baselines.random_attack(g, plan.budget, seed=seed, weights=weights)


def _agent(g, emb, plan, seed, weights, method="agent"):
    acfg = replace(plan.agent_config, seed=seed, budget=plan.budget, weights=weights)
    params, _ = agent_mod.train(g, emb, acfg)
    return agent_mod.greedy_attack(g, emb, params, plan.budget, weights, method=method)


def _agent_random_embedding(g, emb, plan, seed, weights):
    emb = embed_mod.random_embeddings(g, plan.embed_config.d, seed)
    return _agent(g, emb, plan, seed, weights, method="agent-random-embedding")


METHODS = {
    "agent": Method(_agent, needs_embedding=True, baseline=False),
    "de": Method(_de, seeded=False),
    "ci": Method(_ci, seeded=False),
    "gdm": Method(_gdm, needs_embedding=True),
    "random": Method(_random),
    "agent-random-embedding": Method(_agent_random_embedding, baseline=False),
}


def run_plan(plan: ExperimentPlan, outdir) -> dict:
    """Execute the plan; returns {(method, seed): report} for every method
    and seed, in plan order. A seed-free method runs once, under the first
    seed, and each other seed gets its own copy of that report."""
    plan.validate()
    workers = _threads()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    g = plan.load_graph()
    weights = plan.weights or RewardWeights.normalized(g)

    emb = None
    if any(METHODS[m].needs_embedding for m in plan.methods):
        emb, _, _ = embed_mod.train_coupled(g, plan.embed_config)

    first = plan.seeds[0]
    cells = list(dict.fromkeys((m, s) for m in plan.methods
                               for s in (plan.seeds if METHODS[m].seeded else (first,))))

    def do(cell):
        m, s = cell
        return cell, METHODS[m].run(g, emb, plan, s, weights)

    if workers == 1:
        done = dict(map(do, cells))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = dict(pool.map(do, cells))

    reports = {}
    for m in plan.methods:
        for s in plan.seeds:
            reports[(m, s)] = done[(m, s)] if (m, s) in done else copy.deepcopy(done[(m, first)])
    for (m, s), rep in reports.items():
        rep.save_csv(outdir / f"{m}_seed{s}.csv")

    write_summary(reports, outdir / "summary.csv")
    return reports


def _threads() -> int:
    """The INFRA_THREADS thread count: unset or empty is 1."""
    text = os.environ.get("INFRA_THREADS", "")
    if not text:
        return 1
    if not text.isdecimal() or int(text) < 1:
        raise PlanError(f"INFRA_THREADS must be an integer >= 1, got {text!r}")
    return int(text)


def write_summary(reports: dict, path):
    by_method = {}
    for (m, _), rep in sorted(reports.items()):
        by_method.setdefault(m, []).append(rep)
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(("method", "cum_reward_mean", "cum_reward_std",
                     "final_power_frac_mean", "final_anc_mean"))
        for m in sorted(by_method):
            reps = by_method[m]
            cum = np.array([r.final_cum_reward for r in reps])
            pfrac = np.array([
                r.power[-1] / r.power[0] if r.power[0] > 0 else 0.0 for r in reps
            ])
            anc = np.array([r.anc[-1] for r in reps])
            wr.writerow((m, *(repr(float(x)) for x in
                              (cum.mean(), cum.std(), pfrac.mean(), anc.mean()))))


METRICS = ("power", "sigma", "gcc", "anc", "reward", "cum_reward")


def emit_curves(reports, outdir, svg: bool = True):
    """Long-format plot data (method, step, metric, value) plus optional SVGs."""
    reports = list(reports)
    if not reports:
        raise PlanError("no reports to plot")
    budgets = {r.budget for r in reports}
    if len(budgets) != 1:
        raise PlanError(f"reports disagree on budget: {sorted(budgets)}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "curves.csv"
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(("method", "step", "metric", "value"))
        for rep in reports:
            for metric in METRICS:
                for step, value in enumerate(getattr(rep, metric)):
                    wr.writerow((rep.method, step, metric, repr(float(value))))
    if svg:
        for metric in METRICS:
            _render_svg(reports, metric, outdir / f"{metric}.svg")
    return path


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _render_svg(reports, metric, path, width=480, height=320, pad=40):
    """Deliberately minimal chart: axes plus one polyline per report."""
    series = [(r.method, [float(v) for v in getattr(r, metric)]) for r in reports]
    ymin = min(min(ys) for _, ys in series)
    ymax = max(max(ys) for _, ys in series)
    if ymax == ymin:
        ymax = ymin + 1.0
    kmax = max(len(ys) - 1 for _, ys in series)

    def px(k):
        return pad + (width - 2 * pad) * (k / max(kmax, 1))

    def py(v):
        return height - pad - (height - 2 * pad) * ((v - ymin) / (ymax - ymin))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" font-size="12">damaged nodes</text>',
        f'<text x="12" y="{pad - 8}" font-size="12">{metric}</text>',
    ]
    for i, (method, ys) in enumerate(series):
        pts = " ".join(f"{px(k):.1f},{py(v):.1f}" for k, v in enumerate(ys))
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        lines.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * i}" font-size="10" '
            f'fill="{color}">{method}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
