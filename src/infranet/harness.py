"""Experiment orchestration: agent vs. baselines across seeds, plus curve
and summary emission.

A plan names a graph source, the methods to run, the budget, the seeds, and
optional config overrides. Every (method, seed) cell writes its own report
CSV; a summary CSV aggregates final cumulative reward, power fraction, and
ANC per method. Cell execution honors the INFRA_THREADS environment
variable; outputs are deterministic either way.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import baselines, embed as embed_mod
from .cascade import AttackReport, RewardWeights
from .graph import CoupledGraph
from .netgen import generate, preset_config

KNOWN_METHODS = ("agent", "de", "ci", "gdm", "random", "agent-random-embedding")


class PlanError(ValueError):
    pass


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
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise PlanError(f"unknown method {m!r}; choose from {KNOWN_METHODS}")
        if self.graph_preset is None and self.graph_file is None:
            raise PlanError("plan needs a graph preset or file")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        doc = json.loads(text)
        graph = doc.get("graph", {})
        weights = doc.get("weights")
        plan = cls(
            graph_preset=graph.get("preset"),
            graph_seed=graph.get("seed", 0),
            graph_file=graph.get("file"),
            methods=tuple(doc.get("methods", ("de", "ci", "random"))),
            budget=doc.get("budget", 10),
            seeds=tuple(doc.get("seeds", (0,))),
            weights=RewardWeights(**weights) if weights else None,
            ci_radius=doc.get("ci_radius", 1),
        )
        if "embed" in doc:
            plan.embed_config = replace(plan.embed_config, **doc["embed"])
        if "agent" in doc:
            acfg = dict(doc["agent"])
            acfg.setdefault("budget", plan.budget)
            plan.agent_config = replace(plan.agent_config, **acfg)
        if "gdm" in doc:
            plan.gdm_config = replace(plan.gdm_config, **doc["gdm"])
        plan.validate()
        return plan

    def load_graph(self) -> CoupledGraph:
        if self.graph_file is not None:
            return CoupledGraph.from_file(self.graph_file)
        return generate(preset_config(self.graph_preset, seed=self.graph_seed))


def _needs_embedding(methods) -> bool:
    return any(m in ("agent", "gdm") for m in methods)


def _run_cell(method: str, seed: int, g: CoupledGraph, emb, plan: ExperimentPlan,
              weights: RewardWeights) -> AttackReport:
    if method == "de":
        rep = baselines.de_attack(g, plan.budget, weights)
    elif method == "ci":
        rep = baselines.ci_attack(g, plan.budget, radius=plan.ci_radius, weights=weights)
    elif method == "random":
        rep = baselines.random_attack(g, plan.budget, seed=seed, weights=weights)
    elif method == "gdm":
        cfg = replace(plan.gdm_config, seed=seed)
        rep = baselines.gdm_attack(g, emb, plan.budget, cfg, weights)
    elif method in ("agent", "agent-random-embedding"):
        if method == "agent-random-embedding":
            emb = embed_mod.random_embeddings(g, plan.embed_config.d, seed)
        acfg = replace(plan.agent_config, seed=seed, budget=plan.budget,
                       weights=weights)
        params, _ = agent_mod.train(g, emb, acfg)
        rep = agent_mod.greedy_attack(g, emb, params, plan.budget, weights,
                                      method=method)
    else:
        raise PlanError(f"unknown method {method!r}")
    rep.method = method
    return rep


def run_plan(plan: ExperimentPlan, outdir) -> dict:
    """Execute every (method, seed) cell; returns {(method, seed): report}."""
    plan.validate()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    g = plan.load_graph()
    weights = plan.weights or RewardWeights.normalized(g)

    emb = None
    if _needs_embedding(plan.methods):
        emb, _, _ = embed_mod.train_coupled(g, plan.embed_config)

    cells = [(m, s) for m in plan.methods for s in plan.seeds]
    workers = max(1, int(os.environ.get("INFRA_THREADS", "1")))

    def do(cell):
        m, s = cell
        return cell, _run_cell(m, s, g, emb, plan, weights)

    reports = {}
    if workers == 1:
        results = map(do, cells)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(do, cells))
    for (m, s), rep in results:
        reports[(m, s)] = rep
        rep.save_csv(outdir / f"{m}_seed{s}.csv")

    write_summary(reports, outdir / "summary.csv")
    return reports


def write_summary(reports: dict, path):
    import csv

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
    import csv

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
