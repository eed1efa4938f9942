#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads campaign,certify,optimize \\
        --seeds 0-9 [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
with the ``run_seconds`` of ``BENCHMARK.json``. For every metric it prints
the median over the runs, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the spread: the distance between the quartiles as a share
of the median, next to a third of the metric's bound. ``--out`` writes the
same figures, the raw values and each run's environment stamp as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}\n"
                         f"{res.stderr[-2000:]}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="campaign,certify,optimize")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        stamps, ops = [], []
        for seed in parse_seeds(args.seeds):
            detail, result = run_once(workload, seed, spec["run_seconds"],
                                      args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            stamps.append(detail["env"])
            ops.append(detail["op_s"]["values"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if n in bounds or args.trace), flush=True)
        figures = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) \
                if len(vals) > 1 else (med, med, med)
            figures[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "values": vals}
            if name in bounds:
                print(f"  {workload:9s} {name:12s} median {med:.6g} "
                      f"spread {figures[name]['spread']:.4f} "
                      f"(a third of the bound: {bounds[name] / 3:.4f})",
                      flush=True)
        report[workload] = {"metrics": figures, "op_s_values": ops,
                            "env": stamps}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
