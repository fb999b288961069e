"""One repeat of one benchmark workload, run in a fresh interpreter.

Usage (normally started by run.py, never by hand):

    python3 perfbench/worker.py --workload desk-train --seed 0 --out DIR [--trace] [--check]

The parent records the time just before it starts this process; this process
records the time at which its inputs are ready, so set-up covers interpreter
start, imports and input generation. The stages then run back to back, each
timed, with a calibration sample of the host's speed (calibrate.py) before
each stage and after the last; afterwards, outside every timed region, the
outputs are checked and hashed. The program's inputs and outputs go to DIR/out, the timings, counts
and check results to DIR/result.json and, when traced, the spans to
DIR/spans.csv.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import sample_seconds  # noqa: E402
from oracle import CascadeOracle, check_report  # noqa: E402
from tracer import Tracer  # noqa: E402

# Work per repeat. "full" keeps a repeat to a few seconds on a 2-core x86
# machine, so a run's medians are taken over many repeats; "tiny" is for the
# self-test.
SIZES = {
    "full": {
        "desk-train": {"embed_epochs": 5, "episodes": 12, "budget": 10,
                       "gdm_samples": 100},
        "paper-attack": {"budget": 10, "plan_seeds": 2, "probe_epochs": 4,
                         "probe_episodes": 2, "probe_budget": 10},
        "paper-transfer": {"episodes": 2, "budget": 10, "retrain_epochs": 2},
    },
    "tiny": {
        "desk-train": {"embed_epochs": 2, "episodes": 4, "budget": 3,
                       "gdm_samples": 20},
        "paper-attack": {"budget": 4, "plan_seeds": 2, "probe_epochs": 2,
                         "probe_episodes": 2, "probe_budget": 3},
        "paper-transfer": {"episodes": 3, "budget": 3, "retrain_epochs": 2},
    },
}

# The graph is the preset's, from a fixed generator seed: the workload seed
# drives every stochastic stage (initial weights, exploration, replay
# sampling, negatives, masks, plan seeds) but not the graph's size, which
# varies by about 4% across generator seeds on the paper preset.
GRAPH_SEED = 0

# generator overrides that shrink a preset for the tiny scale
TINY_GRAPH = {"n_220": 2, "fanout_110": (2, 3), "fanout_10": (3, 5), "road_nodes": 64}

EMBED_D = 64
PAPER_BATCH = 8    # short paper trainings still take SGD steps


@dataclass
class Stage:
    name: str
    kind: str          # embed | train | attack | other
    in_wall: bool
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    error: str = ""


@dataclass
class Context:
    """Inputs, outputs and counts of one repeat."""

    seed: int
    size: dict
    outdir: Path       # program inputs and outputs; the digest covers its files
    scale: str
    g: object = None
    counts: dict = field(default_factory=lambda: {
        "embed_epochs": 0, "train_episodes": 0, "train_steps": 0, "attack_steps": 0,
        "reports": 0})
    reports: list = field(default_factory=list)      # (csv path, budget, graph)
    embeddings: dict = field(default_factory=dict)   # name -> (d, n) array
    losses: dict = field(default_factory=dict)       # name -> list of floats
    arrays: dict = field(default_factory=dict)       # hashed into the digest
    graphs: dict = field(default_factory=dict)       # name -> size record
    serial_files: list = field(default_factory=list)
    state: dict = field(default_factory=dict)

    def graph_config(self, preset):
        from infranet import netgen

        extra = TINY_GRAPH if self.scale == "tiny" else {}
        return netgen.preset_config(preset, seed=GRAPH_SEED, **extra)

    def add_report(self, rep, graph, name):
        path = self.outdir / f"{name}.csv"
        rep.save_csv(path)
        self.reports.append((path, rep.budget, graph))


def graph_record(g):
    return {"n": int(g.n), "elec_edges": len(g.elec_edges),
            "road_edges": len(g.road_edges), "dep_edges": len(g.dep_edges)}


# -- desk-train ---------------------------------------------------------------

def desk_train_setup(ctx):
    from infranet import netgen

    ctx.g = netgen.generate(ctx.graph_config("desk"))
    ctx.graphs["desk"] = graph_record(ctx.g)


def desk_train_stages(ctx):
    from infranet import agent, baselines, embed

    g, sz, st = ctx.g, ctx.size, ctx.state
    ecfg = embed.EmbedConfig(d=EMBED_D, epochs=sz["embed_epochs"], seed=ctx.seed)
    acfg = agent.AgentConfig(budget=sz["budget"], episodes=sz["episodes"], seed=ctx.seed)
    emb_path, qnet_path = ctx.outdir / "emb.bin", ctx.outdir / "qnet.bin"

    def embed_stage():
        emb, _, losses = embed.train_coupled(g, ecfg)
        st["emb"] = emb
        ctx.embeddings["train_coupled"] = emb.Z
        ctx.losses["embed_coupled"] = losses
        ctx.counts["embed_epochs"] += 3 * ecfg.epochs   # elec, road, coupled

    def embedding_io():
        embed.save_embedding(emb_path, st["emb"], ecfg)
        st["emb_loaded"] = embed.load_embedding(emb_path)
        ctx.embeddings["loaded"] = st["emb_loaded"].Z
        ctx.serial_files.append(emb_path)

    def train_stage():
        params, log = agent.train(g, st["emb_loaded"], acfg)
        st["params"] = params
        ctx.losses["td"] = log.loss_mean
        ctx.counts["train_episodes"] += acfg.episodes
        ctx.counts["train_steps"] += acfg.episodes * acfg.budget

    def qnet_io():
        agent.save_qnet(qnet_path, st["params"], acfg)
        st["params_loaded"] = agent.load_qnet(qnet_path)
        ctx.serial_files.append(qnet_path)

    def greedy_stage():
        rep = agent.greedy_attack(g, st["emb_loaded"], st["params_loaded"], sz["budget"])
        st["greedy"] = rep
        ctx.counts["attack_steps"] += rep.budget
        ctx.counts["reports"] += 1

    def gdm_stage():
        cfg = baselines.GdmConfig(sample_count=sz["gdm_samples"], seed=ctx.seed)
        rep = baselines.gdm_attack(g, st["emb_loaded"], sz["budget"], cfg)
        st["gdm"] = rep
        ctx.counts["attack_steps"] += rep.budget
        ctx.counts["reports"] += 1

    def outputs():
        ctx.add_report(st["greedy"], g, "agent")
        ctx.add_report(st["gdm"], g, "gdm")

    return [
        (Stage("embed", "embed", True), embed_stage),
        (Stage("embedding_io", "other", True), embedding_io),
        (Stage("train", "train", True), train_stage),
        (Stage("qnet_io", "other", True), qnet_io),
        (Stage("greedy_attack", "attack", True), greedy_stage),
        (Stage("gdm_attack", "attack", True), gdm_stage),
    ], outputs


# -- paper-attack ---------------------------------------------------------------

def paper_attack_setup(ctx):
    from infranet import netgen

    ctx.g = netgen.generate(ctx.graph_config("paper"))
    ctx.graphs["paper"] = graph_record(ctx.g)
    graph_path = ctx.outdir / "graph.json"
    graph_path.write_text(ctx.g.to_json())
    plan = {
        "graph": {"file": str(graph_path)},
        "methods": ["de", "ci", "random"],
        "budget": ctx.size["budget"],
        "seeds": [ctx.seed * ctx.size["plan_seeds"] + i for i in range(ctx.size["plan_seeds"])],
    }
    (ctx.outdir / "plan.json").write_text(json.dumps(plan, indent=2) + "\n")


def paper_attack_stages(ctx):
    from infranet import agent, embed, harness

    g, sz, st = ctx.g, ctx.size, ctx.state
    report_dir = ctx.outdir / "report"

    def report_stage():
        plan = harness.ExperimentPlan.from_json((ctx.outdir / "plan.json").read_text())
        st["reports"] = harness.run_plan(plan, report_dir)
        ctx.counts["attack_steps"] += sum(r.budget for r in st["reports"].values())
        ctx.counts["reports"] += len(st["reports"])

    def curves_stage():
        harness.emit_curves(st["reports"].values(), report_dir)

    # The probe stages exist because every end-to-end metric is reported on
    # every workload. They are timed apart from wall_s and attack_steps_per_s,
    # which stay pure attack-path numbers.
    def probe_embed():
        cfg = embed.EmbedConfig(d=EMBED_D, epochs=sz["probe_epochs"], seed=ctx.seed)
        emb, _, losses = embed.train(embed.problem_for(g, "coupled", cfg), cfg)
        ctx.embeddings["probe"] = emb.Z
        ctx.arrays["probe_embedding"] = emb.Z
        ctx.losses["probe_embed"] = losses
        ctx.counts["embed_epochs"] += cfg.epochs

    def probe_train():
        Z = embed.random_embeddings(g, EMBED_D, ctx.seed)
        cfg = agent.AgentConfig(budget=sz["probe_budget"], episodes=sz["probe_episodes"],
                                batch_size=PAPER_BATCH, seed=ctx.seed)
        params, log = agent.train(g, Z, cfg)
        ctx.arrays["probe_theta1"] = params.theta1
        ctx.arrays["probe_theta2"] = params.theta2
        ctx.losses["td"] = log.loss_mean
        ctx.counts["train_episodes"] += cfg.episodes
        ctx.counts["train_steps"] += cfg.episodes * cfg.budget

    def outputs():
        for path in sorted(report_dir.glob("*_seed*.csv")):
            ctx.reports.append((path, sz["budget"], g))

    return [
        (Stage("report", "attack", True), report_stage),
        (Stage("curves", "other", True), curves_stage),
        (Stage("probe_embed", "embed", False), probe_embed),
        (Stage("probe_train", "train", False), probe_train),
    ], outputs


# -- paper-transfer -------------------------------------------------------------

def paper_transfer_setup(ctx):
    from infranet import embed, netgen

    ctx.g = netgen.generate(ctx.graph_config("paper"))
    ctx.graphs["paper"] = graph_record(ctx.g)
    ctx.state["Z"] = embed.random_embeddings(ctx.g, EMBED_D, ctx.seed)


def paper_transfer_stages(ctx):
    from infranet import agent, transfer

    g, sz, st = ctx.g, ctx.size, ctx.state
    ctx.embeddings["random"] = st["Z"].Z

    def train_stage():
        cfg = agent.AgentConfig(budget=sz["budget"], episodes=sz["episodes"],
                                batch_size=PAPER_BATCH, seed=ctx.seed)
        params, log = agent.train(g, st["Z"], cfg)
        st["params"] = params
        ctx.arrays["theta1"] = params.theta1
        ctx.arrays["theta2"] = params.theta2
        ctx.losses["td"] = log.loss_mean
        ctx.counts["train_episodes"] += cfg.episodes
        ctx.counts["train_steps"] += cfg.episodes * cfg.budget

    def mask_stage():
        st["g_mask"] = transfer.mask_graph(g, transfer.MaskSpec(seed=ctx.seed))
        ctx.graphs["mask"] = graph_record(st["g_mask"])

    def retrain_stage():
        cfg = transfer.RetrainConfig(epochs=sz["retrain_epochs"], seed=ctx.seed)
        emb, losses = transfer.retrain(st["g_mask"], st["Z"], cfg)
        st["emb"] = emb
        ctx.embeddings["retrained"] = emb.Z
        ctx.arrays["retrained"] = emb.Z
        ctx.losses["retrain"] = losses
        ctx.counts["embed_epochs"] += cfg.epochs

    def attack_stage():
        rep = transfer.transfer_attack(st["g_mask"], st["emb"], st["params"], sz["budget"])
        st["report"] = rep
        ctx.counts["attack_steps"] += rep.budget
        ctx.counts["reports"] += 1

    def outputs():
        ctx.add_report(st["report"], st["g_mask"], "transfer")

    return [
        (Stage("train", "train", True), train_stage),
        (Stage("mask_graph", "other", True), mask_stage),
        (Stage("retrain", "embed", True), retrain_stage),
        (Stage("transfer_attack", "attack", True), attack_stage),
    ], outputs


WORKLOADS = {
    "desk-train": (desk_train_setup, desk_train_stages),
    "paper-attack": (paper_attack_setup, paper_attack_stages),
    "paper-transfer": (paper_transfer_setup, paper_transfer_stages),
}


# -- checks, digest, environment --------------------------------------------------

def run_checks(ctx, with_oracle):
    """(name, ok, detail) per check; the oracle replay runs only when asked."""
    import numpy as np

    checks = []
    oracles = {}
    for path, budget, graph in ctx.reports:
        oracle = None
        if with_oracle:
            if id(graph) not in oracles:
                oracles[id(graph)] = CascadeOracle.from_graph(graph)
            oracle = oracles[id(graph)]
        try:
            problems = check_report(path, budget, oracle)
        except Exception as exc:   # a malformed report fails its check
            problems = [f"{path.name}: {type(exc).__name__}: {exc}"]
        checks.append((f"report:{path.name}", not problems, "; ".join(problems)))
    for name, Z in sorted(ctx.embeddings.items()):
        checks.append((f"finite_embedding:{name}", bool(np.all(np.isfinite(Z))), ""))
    for name, values in sorted(ctx.losses.items()):
        ok = len(values) > 0 and bool(np.all(np.isfinite(values)))
        checks.append((f"finite_loss:{name}", ok, "" if ok else f"{len(values)} values"))
    return checks


def output_digest(ctx):
    """sha256 over the CSVs and tensor files written, plus the hashed arrays."""
    h = hashlib.sha256()
    files = sorted(p for p in ctx.outdir.rglob("*")
                   if p.suffix in (".csv", ".bin") and p.is_file())
    for p in files:
        h.update(str(p.relative_to(ctx.outdir)).encode() + b"\0")
        h.update(p.read_bytes())
    for name, a in sorted(ctx.arrays.items()):
        h.update(f"{name}:{a.dtype}:{a.shape}".encode() + b"\0")
        h.update(a.tobytes())
    return h.hexdigest()


def serial_bytes(paths):
    """Bytes through the tensor container: each file and its JSON sidecar,
    once written and once read back."""
    total = 0
    for p in paths:
        sidecar = Path(str(p) + ".json")
        total += p.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)
    return 2 * total


def blas_info():
    """Name and thread count of the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"library": config().decode(), "path": Path(path).name,
                        "threads": threads()}
    return {"library": "unknown", "path": "", "threads": None}


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", default="full", choices=sorted(SIZES))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true", help="also replay reports on the oracle")
    args = ap.parse_args(argv)

    # the package imports every module, inside set-up and before the tracer
    # patches the loaded modules
    import infranet

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(infranet.__file__).resolve().parents:
        print(f"infranet imported from {infranet.__file__}, not from {src}", file=sys.stderr)
        return 3

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ctx = Context(args.seed, SIZES[args.scale][args.workload], outdir / "out", args.scale)
    ctx.outdir.mkdir()
    setup, build = WORKLOADS[args.workload]
    setup(ctx)
    ready = time.perf_counter()

    calibration = []   # host speed, sampled around the stages, never inside one
    stages, outputs = build(ctx)
    failed = False
    for stage, fn in stages:
        calibration.append(sample_seconds())
        stage.start = time.perf_counter()
        if not failed:   # later stages need the earlier ones' results
            try:
                fn()
                stage.ok = True
            except Exception:
                stage.error = traceback.format_exc()
                failed = True
        stage.end = time.perf_counter()
    calibration.append(sample_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(outdir / "spans.csv")

    checks = []
    if not failed:
        outputs()
        checks = run_checks(ctx, args.check)
    result = {
        "ready": ready,
        "stages": [asdict(s) for s, _ in stages],
        "counts": ctx.counts,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "digest": "" if failed else output_digest(ctx),
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration,
        "graphs": ctx.graphs,
        "serial_bytes": serial_bytes(ctx.serial_files),
        "size": ctx.size,
        "env": environment(),
    }
    (outdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
