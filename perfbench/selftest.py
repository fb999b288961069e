"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, once untraced and twice traced, and
checks that:
  - each run is correct and emits every metric BENCHMARK.json names for its
    mode, with the unit BENCHMARK.json gives;
  - in every traced repeat, the self times of the spans inside the wall_s
    stages sum to no more than that repeat's wall_s;
  - the two traced runs give identical .calls counts, and every repeat of
    the three runs with the same input seed the same output digest;
  - run.py, copied with BENCHMARK.json into a directory without the
    program's sources, exits non-zero without printing a result.
Exits 0 when every check passes. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs" / "selftest"


def run(workload, trace, tag, cwd_root=ROOT):
    out = WORK / f"{workload}-{tag}"
    cmd = [sys.executable, str(cwd_root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd_root, timeout=170)
    return proc, out


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        traced, digests = [], {}   # input seed -> digests of its repeats
        for trace, tag in ((0, "plain"), (1, "traced-a"), (1, "traced-b")):
            proc, out = run(workload, trace, tag)
            if proc.returncode != 0:
                check(False, f"{workload} {tag}: exit {proc.returncode}: {proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} {tag}: correct, {result['attempted']} attempted, 0 failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace],
                  f"{workload} {tag}: emits exactly the BENCHMARK.json metrics with units")
            summary = json.loads((out / "summary.json").read_text())
            for r in summary["repeats"]:
                digests.setdefault(r["seed"], set()).add(r["digest"])
            if trace:
                traced.append(summary)
                for r in summary["repeats"]:
                    if r["traced"]:
                        check(r["self_in_wall_s"] <= r["metrics"]["wall_s"],
                              f"{workload} {tag} rep{r['index']}: self times "
                              f"{r['self_in_wall_s']:.4f} s <= wall_s "
                              f"{r['metrics']['wall_s']:.4f} s")
        if len(traced) == 2:
            calls = [[r["calls"] for r in s["repeats"] if r["traced"]] for s in traced]
            check(all(c == calls[0][0] for c in calls[0] + calls[1]),
                  f"{workload}: .calls identical across two traced runs")
        check(all(len(d) == 1 for d in digests.values()),
              f"{workload}: one output digest per input seed across the three runs")

    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc, _ = run(spec["workloads"][0]["name"], 0, "bare", cwd_root=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without sources: exit {proc.returncode}, no result printed")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
