#!/usr/bin/env python3
"""rampflow benchmark: one answer-checked workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload campaign|certify|optimize \\
        --seed N --seconds S --trace 0|1

The workload's inputs are generated from ``--seed``. Operations run back
to back in this process, one caller and no worker threads, for ``--seconds``
seconds; each operation's answers are checked before its time counts.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` operations alternate
between untraced and traced, and the last line holds the per-layer
metrics, measured on the traced ones. The line before it is a JSON record
with the environment stamp, per-stage medians and the checked answers.

The package is imported from ``src/`` of the checkout the script lives in;
without it the script exits with status 2 before printing any result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("campaign", "certify", "optimize")

#: BLAS/OpenMP pools pinned to one thread before numpy loads
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: fresh-process imports and input generations per run; set-up reports
#: the median of each
SETUP_SAMPLES = 5

IMPORT_PROBE = ("import time; t = time.perf_counter(); import rampflow; "
                "print(time.perf_counter() - t)")


def fresh_import_seconds() -> float:
    """Time of ``import rampflow`` in a new interpreter, as users pay it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(res.stdout.strip())


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def env_stamp(seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    digest = hashlib.sha256()
    for path in sorted((SRC / "rampflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


def timing(values: list[float]) -> dict:
    return {"p50": statistics.median(values), "min": min(values),
            "samples": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path,
                    default=Path(__file__).resolve().parent / "reference.json",
                    help="pinned answers, compared when --seed matches "
                         "the seed they were recorded with")
    args = ap.parse_args(argv)

    if not (SRC / "rampflow" / "__init__.py").is_file():
        print(f"error: no rampflow package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import rampflow
    if Path(rampflow.__file__).resolve().parent != SRC / "rampflow":
        print(f"error: imported rampflow from {rampflow.__file__}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(args.reference.read_text(encoding="utf-8"))
    reference = reference if reference["seed"] == args.seed else None
    cls = workloads.WORKLOADS[args.workload]

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        import_s = [fresh_import_seconds() for _ in range(SETUP_SAMPLES)]
        inputs_s = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            workload = cls(args.seed, workdir)
            inputs_s.append(time.perf_counter() - t0)

        tracer = spans.Tracer() if args.trace else None
        op_s = {False: [], True: []}      # keyed by traced
        stage_runs: list[dict] = []        # untraced, checked operations
        attempted = failed = traced_attempts = 0
        problems_seen: list[str] = []
        summary = {}
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and attempted % 2 == 1
            attempted += 1
            try:
                if traced:
                    traced_attempts += 1
                    tracer.install()
                    try:
                        stages, answers = tracer.root(workload.run)
                    finally:
                        tracer.uninstall()
                else:
                    stages, answers = workload.run()
                problems = workload.check(answers, reference)
                if not traced:
                    summary = workload.summary(answers)
            except Exception as e:  # a raising operation counts as failed
                traceback.print_exc()
                problems = [f"{type(e).__name__}: {e}"]
            if problems:
                failed += 1
                problems_seen.extend(problems[:max(0, 5 - len(problems_seen))])
            else:
                op_s[traced].append(sum(stages.values()))
                if not traced:
                    stage_runs.append(stages)
            if time.perf_counter() >= deadline and (
                    tracer is None or traced_attempts > 0):
                break

        detail = {
            "workload": args.workload,
            "trace": args.trace,
            "env": env_stamp(args.seed),
            "reference_checked": reference is not None,
            "setup": {"import_s": timing(import_s),
                      "inputs_s": timing(inputs_s)},
            "problems": problems_seen,
            "answers": summary,
        }
        setup_s = statistics.median(import_s) + statistics.median(inputs_s)
        measured = bool(op_s[False]) and (tracer is None or bool(op_s[True]))
        correct = failed == 0 and measured
        metrics = {}
        if measured:
            detail["op_s"] = dict(timing(op_s[False]), values=op_s[False])
            detail["stages"] = {
                k: timing([s[k] for s in stage_runs])
                for k in stage_runs[0]}
            detail["named"] = workload.named_metrics(stage_runs)
            if tracer is None:
                values = {
                    "op_s_p50": statistics.median(op_s[False]),
                    "setup_s": setup_s,
                    "peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
                declared = spec["end_to_end"]
            else:
                values = tracer.per_layer(op_s[False], op_s[True])
                values["setup.import_s"] = statistics.median(import_s)
                values["setup.inputs_s"] = statistics.median(inputs_s)
                declared = spec["per_layer"]
                path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
                tracer.dump(path, detail, values)
                detail["trace_file"] = str(path.relative_to(ROOT))
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]} for m in declared}
        print(json.dumps({"perfbench": detail}))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
