"""Layered benchmark of the infranet pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (desk-train, paper-attack or paper-transfer) for about S
seconds as a series of repeats. Every repeat is a fresh interpreter
(perfbench/worker.py) on a single thread, so set-up time and peak RSS are
never inherited. With --trace 0 every repeat is untraced, the repeats cycle
through a few input seeds derived from N (INPUT_SEEDS), and the end-to-end
metrics are pooled over the repeats and scaled to a reference host speed
measured by a calibration kernel (run_metrics, host_factors). With
--trace 1 traced and untraced repeats alternate on one input seed; the
per-layer metrics come from the traced ones and the untraced ones give the
tracing overhead.

Outputs are checked outside the timed regions: the first repeat of each
input seed replays every report on an independent cascade oracle, every
repeat checks report shape and finite embeddings and losses, and every
repeat must reproduce the output digest of the first repeat with its input
seed (and, when traced, its exact call counts). Failed checks and stages
count in `failed`. The printed output_digest covers every input seed's.

Human-readable lines come first; the last line of standard output is the
JSON result. Run files go to .perfbench_runs/<workload>-seed<N>-trace<T>/:
manifest.json, summary.json and one directory per repeat with its result,
log and spans. Only the first repeat keeps the program's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import (  # noqa: E402
    METRIC_FUNCTIONS,
    STAGE_FUNCTIONS,
    TRACED_NAMES,
    coupled_epoch_spans,
    read_spans,
    span_self_times,
    span_stats,
)

WORKLOADS = ("desk-train", "paper-attack", "paper-transfer")
PRESET = {"desk-train": "desk", "paper-attack": "paper", "paper-transfer": "paper"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "embed_epochs_per_s": "epochs/s",
    "train_steps_per_s": "steps/s",
    "attack_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}

# Time of one calibration sample (calibrate.sample_seconds) on a 2-vCPU x86
# VM in an uncontended stretch. End-to-end timings are reported at that host
# speed: measured timings times host_factor.
REFERENCE_KERNEL_S = 0.025

# Input seeds per untraced run. How much work a stage does depends on its
# input seed (which nodes the agent and the cascade remove), so repeat i of a
# --trace 0 run uses input seed seed * N + i % N, and the run's figures
# average over N inputs. Every input seed runs at least twice, so its output
# digest is checked for determinism. A --trace 1 run uses input seed
# seed * N for every repeat, so all its traced repeats share call counts.
INPUT_SEEDS = {"desk-train": 6, "paper-attack": 2, "paper-transfer": 3}

MIN_EACH_TRACED = 2     # traced and untraced repeats in a --trace 1 run
RUN_LIMIT_S = 150.0     # no repeat starts that could end after this
MAX_CRASHES = 3


def per_layer_units():
    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in STAGE_FUNCTIONS:
            units[f"{name}.total_s"] = "s"
    units["cascade.metric_calls_per_damage"] = "ratio"
    units["serial.bytes"] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    return units


def worker_env():
    env = dict(os.environ)
    env.pop("INFRA_THREADS", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def input_seed(args, index):
    cycle = INPUT_SEEDS[args.workload]
    return args.seed * cycle + (index % cycle if args.trace == 0 else 0)


class Repeat:
    def __init__(self, index, traced, seed):
        self.index = index
        self.traced = traced
        self.seed = seed
        self.result = None
        self.duration = 0.0
        self.metrics = None
        self.spans = None
        self.error = ""

    @property
    def ok(self):
        return self.result is not None and all(s["ok"] for s in self.result["stages"])


def run_repeat(args, out, index, traced, deadline):
    rep = Repeat(index, traced, input_seed(args, index))
    rep_dir = out / f"rep{index}"
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(rep.seed), "--out", str(rep_dir), "--scale", args.scale]
    if traced:
        cmd.append("--trace")
    if index == 0 or (args.trace == 0 and index < INPUT_SEEDS[args.workload]):
        cmd.append("--check")   # the oracle replay, once per input seed
    with open(rep_dir / "worker.log", "w") as log:
        spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, env=worker_env(), stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:   # also when this process is being stopped
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        rep.duration = time.perf_counter() - spawn
    result_path = rep_dir / "result.json"
    if code != 0 or not result_path.exists():
        tail = (rep_dir / "worker.log").read_text()[-2000:]
        rep.error = f"worker exited with {code}: {tail}"
        return rep
    rep.result = json.loads(result_path.read_text())
    rep.metrics = repeat_metrics(rep.result, spawn)
    if traced:
        rep.spans = read_spans(rep_dir / "spans.csv")
    return rep


def ratio(a, b):
    return a / b if b > 0 else 0.0


# rate metric -> (count, stage kind) behind it
RATES = {
    "embed_epochs_per_s": ("embed_epochs", "embed"),
    "train_steps_per_s": ("train_steps", "train"),
    "attack_steps_per_s": ("attack_steps", "attack"),
}


def host_factors(res):
    """Per stage, REFERENCE_KERNEL_S over the mean of the calibration samples
    taken just before and just after it: below 1 when the host ran slow."""
    cal = res["calibration_s"]
    return [2 * REFERENCE_KERNEL_S / (cal[i] + cal[i + 1]) for i in range(len(res["stages"]))]


def stage_seconds(res, scaled=False):
    """Seconds per stage kind, plus "wall" for the stages inside wall_s;
    with `scaled`, each stage's at the reference host speed."""
    factors = host_factors(res) if scaled else [1.0] * len(res["stages"])
    out = {"wall": 0.0}
    for s, factor in zip(res["stages"], factors):
        seconds = (s["end"] - s["start"]) * factor
        out[s["kind"]] = out.get(s["kind"], 0.0) + seconds
        if s["in_wall"]:
            out["wall"] += seconds
    return out


def repeat_metrics(res, spawn):
    seconds = stage_seconds(res)
    metrics = {"setup_s": res["ready"] - spawn, "wall_s": seconds["wall"],
               "peak_rss_mb": res["peak_rss_mb"]}
    for name, (count, kind) in RATES.items():
        metrics[name] = ratio(res["counts"][count], seconds.get(kind, 0.0))
    return metrics


def run_repeats(args, out):
    reps = []
    start = time.perf_counter()
    deadline = start + 170.0
    while True:
        index = len(reps)
        reps.append(run_repeat(args, out, index, args.trace == 1 and index % 2 == 1, deadline))
        elapsed = time.perf_counter() - start
        later = [r.duration for r in reps[1:]]
        typical = statistics.median(later) if later else reps[0].duration
        traced = sum(r.traced for r in reps)
        if args.trace:
            enough = traced >= MIN_EACH_TRACED and len(reps) - traced >= MIN_EACH_TRACED
        else:
            enough = len(reps) > INPUT_SEEDS[args.workload]
        if elapsed + typical > RUN_LIMIT_S or sum(r.result is None for r in reps) >= MAX_CRASHES:
            return reps
        if enough and elapsed + typical > args.seconds:
            return reps


def tally(reps):
    """(attempted, failed, problems): stages, checks, digests and call counts."""
    attempted = failed = 0
    problems = []
    first = {}          # input seed -> its first repeat with a result
    first_traced = next((r for r in reps if r.traced and r.spans is not None), None)
    for r in reps:
        if r.result is None:
            attempted += 1
            failed += 1
            problems.append(f"rep{r.index}: {r.error}")
            continue
        for s in r.result["stages"]:
            attempted += 1
            if not s["ok"]:
                failed += 1
                problems.append(f"rep{r.index} stage {s['name']}: "
                                + (s["error"] or "not run after an earlier failure"))
        for c in r.result["checks"]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                problems.append(f"rep{r.index} check {c['name']}: {c['detail']}")
        earlier = first.setdefault(r.seed, r)
        if r is not earlier:
            attempted += 1
            if r.result["digest"] != earlier.result["digest"]:
                failed += 1
                problems.append(f"rep{r.index}: output digest differs from rep{earlier.index}")
        if r.spans is not None and r is not first_traced:
            attempted += 1
            if call_counts(r.spans) != call_counts(first_traced.spans):
                failed += 1
                problems.append(f"rep{r.index}: call counts differ from rep{first_traced.index}")
    return attempted, failed, problems


def call_counts(spans):
    return {name: st["calls"] for name, st in span_stats(spans).items()}


def mean_wall(reps):
    return statistics.fmean(r.metrics["wall_s"] for r in reps)


def run_metrics(reps, scaled):
    """End-to-end metrics of a run from its repeats.

    The host's slowdowns come in phases, so a repeat's timings fall into a
    fast or a slow cluster and a median jumps between the two. Pooled
    figures are steadier: wall_s is the mean over repeats and each rate is
    the work of all repeats over their summed stage time. setup_s and
    peak_rss_mb are medians over the repeats' fresh interpreters.

    With `scaled`, every timing is first brought to the reference host
    speed: each stage by its own host factor (host_factors), set-up by the
    one from the calibration sample taken right after it. peak_rss_mb is
    never scaled.
    """
    seconds = [stage_seconds(r.result, scaled) for r in reps]
    setup = [r.metrics["setup_s"] * (REFERENCE_KERNEL_S / r.result["calibration_s"][0]
                                     if scaled else 1.0) for r in reps]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(s["wall"] for s in seconds),
        "peak_rss_mb": statistics.median(r.metrics["peak_rss_mb"] for r in reps),
    }
    for name, (count, kind) in RATES.items():
        work = sum(r.result["counts"][count] for r in reps)
        metrics[name] = ratio(work, sum(s.get(kind, 0.0) for s in seconds))
    return {k: metrics[k] for k in END_TO_END}


def host_factor(reps):
    """REFERENCE_KERNEL_S over the mean calibration sample of the run: how
    fast the host ran overall, for the manifest and the printed summary."""
    samples = [t for r in reps for t in r.result["calibration_s"]]
    return REFERENCE_KERNEL_S / statistics.fmean(samples)


def per_layer(traced, untraced):
    stats = [span_stats(r.spans) for r in traced]
    first = stats[0]
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = first[name]["calls"]
        out[f"{name}.self_s"] = statistics.median(s[name]["self_s"] for s in stats)
        if name in STAGE_FUNCTIONS:
            out[f"{name}.total_s"] = statistics.median(s[name]["total_s"] for s in stats)
    metric_calls = sum(first[name]["calls"] for name in METRIC_FUNCTIONS)
    out["cascade.metric_calls_per_damage"] = ratio(metric_calls, first["cascade.damage"]["calls"])
    out["serial.bytes"] = traced[0].result["serial_bytes"]
    out["trace.overhead_frac"] = mean_wall(traced) / mean_wall(untraced) - 1.0
    return out


def self_in_wall(rep):
    """Self time of the spans that start inside the repeat's wall_s stages."""
    windows = [(s["start"], s["end"]) for s in rep.result["stages"] if s["in_wall"]]
    return sum(self_s for (_, _, _, start, _), self_s in span_self_times(rep.spans)
               if any(a <= start <= b for a, b in windows))


def layer_summary(traced):
    """Per-call medians (ms) for the ROADMAP baseline-table rows."""
    spans = [s for r in traced for s in r.spans]

    def per_call(name, subset=None):
        durations = [e - s for _, _, n, s, e in (subset or spans) if n == name]
        return 1e3 * statistics.median(durations) if durations else None

    def both(a, b):
        return None if a is None or b is None else a + b

    train_s = sum(e - s for _, _, n, s, e in spans if n == "agent.train")
    steps = sum(r.result["counts"]["train_steps"] for r in traced
                if any(n == "agent.train" for _, _, n, _, _ in r.spans))
    return {
        "power": per_call("cascade.power"),
        "sigma": per_call("cascade.sigma"),
        "gcc": per_call("cascade.gcc"),
        "fork + damage": both(per_call("graph.CoupledGraph.fork"), per_call("cascade.damage")),
        "DQN train step": 1e3 * train_s / steps if steps else None,
        "sample_negatives, coupled epoch": per_call(
            "embed.sample_negatives", coupled_epoch_spans(spans, "embed.sample_negatives")),
        "loss_and_grads, coupled epoch": per_call(
            "embed.loss_and_grads", coupled_epoch_spans(spans, "embed.loss_and_grads")),
        "ci_scores": per_call("baselines.ci_scores"),
        "graph JSON load (from_json)": per_call("graph.CoupledGraph.from_json"),
        "graph JSON round-trip": both(per_call("graph.CoupledGraph.to_json"),
                                      per_call("graph.CoupledGraph.from_json")),
    }


def seed_digests(done):
    """Input seed -> output digest of its first repeat, in seed order."""
    out = {}
    for r in done:
        out.setdefault(r.seed, r.result["digest"])
    return dict(sorted(out.items()))


def manifest(args, reps, digest):
    first = next(r for r in reps if r.result is not None)
    res = first.result
    env = worker_env()
    untraced = [r for r in reps if r.result is not None and not r.traced]
    bases = {}
    for metric, counts, kind in (("embed_epochs_per_s", ("embed_epochs",), "embed"),
                                 ("train_steps_per_s", ("train_episodes", "train_steps"),
                                  "train"),
                                 ("attack_steps_per_s", ("attack_steps", "reports"), "attack")):
        bases[metric] = {c: res["counts"][c] for c in counts}
        bases[metric]["stages"] = [s["name"] for s in res["stages"] if s["kind"] == kind]
        bases[metric]["per"] = "repeat"
        bases[metric]["pooled_over_untraced_repeats"] = len(untraced)
    bases["wall_s"] = {"stages": [s["name"] for s in res["stages"] if s["in_wall"]],
                       "mean_over_untraced_repeats": len(untraced)}
    samples = [t for r in untraced for t in r.result["calibration_s"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "repeats": {"untraced": len(untraced), "traced": sum(r.traced for r in reps),
                    "total": len(reps)},
        "sizes": res["size"],
        "graphs": res["graphs"],
        "metric_bases": bases,
        "host_speed": {
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "kernel_samples": len(samples),
            "mean_kernel_s": statistics.fmean(samples) if samples else None,
            "host_factor": host_factor(untraced) if samples else None,
        },
        "environment": res["env"],
        "thread_env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")},
        "input_seeds": sorted({r.seed for r in reps}),
        "output_digest": digest,
        "output_digest_per_input_seed": seed_digests([r for r in reps if r.result is not None]),
    }


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description="Layered benchmark of the infranet pipeline.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny shrinks every workload, for the self-test")
    ap.add_argument("--out", help="run directory (default .perfbench_runs/...)")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "infranet" / "__init__.py").is_file():
        print(f"perfbench: no infranet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        name += f"-{args.scale}"
    out = Path(args.out) if args.out else ROOT / ".perfbench_runs" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    t0 = time.perf_counter()
    reps = run_repeats(args, out)
    run_s = time.perf_counter() - t0
    attempted, failed, problems = tally(reps)
    done = [r for r in reps if r.result is not None]
    if not done:
        for p in problems:
            print(p, file=sys.stderr)
        print("perfbench: no repeat produced a result", file=sys.stderr)
        return 1
    usable = [r for r in done if r.ok] or done
    untraced = [r for r in usable if not r.traced]
    traced = [r for r in usable if r.traced]
    digests = seed_digests(done)
    digest = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in digests.items())
                            .encode()).hexdigest()

    summary = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repeats": [{"index": r.index, "seed": r.seed, "traced": r.traced, "ok": r.ok,
                     "duration_s": r.duration, "metrics": r.metrics,
                     "digest": r.result["digest"] if r.result else None,
                     "calls": call_counts(r.spans) if r.spans else None,
                     "self_in_wall_s": self_in_wall(r) if r.spans else None}
                    for r in reps],
    }
    (out / "manifest.json").write_text(json.dumps(manifest(args, reps, digest), indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(reps)} repeats in {run_s:.1f} s  ({out})")
    for p in problems:
        print(f"FAILED {p}")
    if args.trace == 0:
        measured = run_metrics(untraced, scaled=False)
        metrics = run_metrics(untraced, scaled=True)
        units = END_TO_END
        summary["measured_metrics"] = measured
        print(f"host factor {host_factor(untraced):.4f} (reference kernel "
              f"{REFERENCE_KERNEL_S} s over the run's mean sample); measured before scaling:")
        for key, value in measured.items():
            print(f"  measured {key} {value!r} {units[key]}")
    else:
        if not traced or not untraced:
            print("perfbench: a traced run needs traced and untraced repeats", file=sys.stderr)
            return 1
        metrics = per_layer(traced, untraced)
        units = per_layer_units()
        rows = layer_summary(traced)
        summary["layer_summary_ms"] = rows
        print(f"layer summary, {PRESET[args.workload]} preset, per-call median (ms):")
        for row, value in rows.items():
            print(f"  {row:34s} {fmt(value)}")
        print(f"  {'function':42s} {'calls':>8s} {'self_s':>10s} {'total_s':>10s}")
        for fn in TRACED_NAMES:
            total = metrics.get(f"{fn}.total_s")
            print(f"  {fn:42s} {metrics[f'{fn}.calls']:8d} "
                  f"{metrics[f'{fn}.self_s']:10.4f} {fmt(total):>10s}")
    summary["metrics"] = metrics
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for r in reps[1:]:   # digests are compared; one copy of the outputs is enough
        shutil.rmtree(out / f"rep{r.index}" / "out", ignore_errors=True)
    for key, value in metrics.items():
        print(f"{key} {value!r} {units[key]}")
    print(f"fail_frac {ratio(failed, attempted)!r} ({failed} of {attempted} stages and checks)")
    print(f"output_digest {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
