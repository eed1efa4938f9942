"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (timed as
set-up), runs one operation per ``run()`` call and returns the wall time of
each stage plus the answers, and checks those answers in ``check()``. The
checks run outside the timed stages; an operation whose check reports a
problem does not count towards the timings.

Operations are identical within a run, so the per-run median is the time
of one operation on that seed's inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from rampflow import cli, cumulative, lp, reports, scenarios, simulator
from rampflow.model import FreewayModel

#: closed-loop runs per grid point of the campaign operation
CAMPAIGN_RUNS = 2
CAMPAIGN_SIGMAS = (0.0, 0.05)
CAMPAIGN_VARIANTS = ("monotonic", "capacity_drop")

#: Grenoble preset compressed from 4 h to 1 h at the same 15 s step: the
#: peak and the recovery after it are kept, and the LP shrinks to 20,400
#: variables. HiGHS time grows as ~T^1.8 (one solve of the full 960-step
#: instance takes ~30 s), and a short solve lets one run take several.
OPTIMIZE_SPEC = replace(scenarios.GRENOBLE_PRESET, horizon_steps=240,
                        windows=((0.25, 0.625),), shoulder=0.125)

#: the long corridor repeats the Grenoble cells and ramp demands this often
TILES = 3

MASS_TOL = 1e-9
REL_TOL = 1e-7


def close(a: float, b: float, rel: float = REL_TOL,
          abs_tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def campaign_runs_per_op() -> int:
    """Closed-loop runs in one campaign call, from the grid definition:
    per variant and sigma, the unmetered baseline (one run when noiseless),
    the greedy law at every mismatch point, and the integral law."""
    total = 0
    for _ in CAMPAIGN_VARIANTS:
        for sigma in CAMPAIGN_SIGMAS:
            base = CAMPAIGN_RUNS if sigma > 0.0 else 1
            total += base + (len(scenarios.MISMATCH_GRID) + 1) * CAMPAIGN_RUNS
    return total


def _row_values(row) -> list:
    return [row.variant, row.sigma, row.dv, row.drho, row.controller,
            row.mean_twt_improvement, row.stdev, row.runs]


class Campaign:
    """``uncertainty_campaign`` over the default grid, then its CSV."""

    name = "campaign"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.scenario = scenarios.builtin_grenoble(seed)

    def run(self):
        problems: list[str] = []
        seen = {"runs": 0, "check_s": 0.0}
        original = scenarios.simulate

        def checked(model, demand, *args, **kwargs):
            traj = original(model, demand, *args, **kwargs)
            t0 = time.perf_counter()
            seen["runs"] += 1
            disturbance = kwargs.get("disturbance",
                                     args[1] if len(args) > 1 else None)
            arrays = (traj.rho, traj.q, traj.flows, traj.rates)
            if not all(bool(np.isfinite(a).all()) for a in arrays):
                problems.append("campaign: a run is not finite")
            if disturbance is None or disturbance.sigma_phi == 0.0:
                res = simulator.mass_conservation_residual(model, traj)
                if not res <= MASS_TOL:
                    problems.append(f"campaign: mass residual {res:g}")
            seen["check_s"] += time.perf_counter() - t0
            return traj

        scenarios.simulate = checked
        try:
            t0 = time.perf_counter()
            rows = scenarios.uncertainty_campaign(
                self.scenario, mismatch_grid=scenarios.MISMATCH_GRID,
                sigmas=CAMPAIGN_SIGMAS, variants=CAMPAIGN_VARIANTS,
                runs=CAMPAIGN_RUNS, seed=self.seed)
            t1 = time.perf_counter()
        finally:
            scenarios.simulate = original
        text = reports.campaign_csv_text(rows)
        t2 = time.perf_counter()
        stages = {"campaign": t1 - t0 - seen["check_s"], "csv": t2 - t1}
        answers = {"rows": rows, "csv": text, "problems": problems,
                   "runs_seen": seen["runs"]}
        return stages, answers

    def check(self, answers, reference: dict | None) -> list[str]:
        problems = list(answers["problems"])
        rows = answers["rows"]
        want = len(CAMPAIGN_VARIANTS) * len(CAMPAIGN_SIGMAS) * (
            len(scenarios.MISMATCH_GRID) + 1)
        if len(rows) != want:
            problems.append(f"campaign: {len(rows)} rows, expected {want}")
        parsed = list(csv.reader(io.StringIO(answers["csv"])))
        if len(parsed) != want + 1 or parsed[0][0] != "variant":
            problems.append("campaign: CSV does not parse back")
        for r in parsed[1:]:
            if not _finite(*r[1:4], *r[5:7]) or int(r[7]) != CAMPAIGN_RUNS:
                problems.append(f"campaign: bad CSV row {r}")
        answers["csv_sha256"] = hashlib.sha256(
            answers["csv"].encode("utf-8")).hexdigest()
        if reference is not None:
            # recorded, not enforced: equal answers may print differently
            answers["csv_sha256_as_reference"] = (
                answers["csv_sha256"] == reference["campaign"]["csv_sha256"])
            ref = reference["campaign"]["rows"]
            got = [_row_values(r) for r in rows]
            if len(got) != len(ref):
                problems.append("campaign: row count differs from reference")
            for g, w in zip(got, ref):
                same = (g[0] == w[0] and g[4] == w[4] and g[7] == w[7]
                        and all(close(a, b, rel=1e-6)
                                for a, b in zip(g[1:4] + g[5:7],
                                                w[1:4] + w[5:7])))
                if not same:
                    problems.append(f"campaign: row {g} != reference {w}")
        return problems

    def named_metrics(self, ops: list[dict]) -> dict:
        op_s = statistics.median(sum(s.values()) for s in ops)
        return {"campaign_runs_per_s": {
            "value": campaign_runs_per_op() / op_s, "unit": "1/s",
            "runs_per_op": campaign_runs_per_op(), "samples": len(ops)}}

    def summary(self, answers) -> dict:
        return {"csv_sha256": answers["csv_sha256"],
                "csv_sha256_as_reference":
                    answers.get("csv_sha256_as_reference"),
                "runs_seen_per_op": answers["runs_seen"],
                "rows": [_row_values(r) for r in answers["rows"]]}


def _long_corridor_yaml(demand_csv: str) -> str:
    """Scenario YAML of the Grenoble cells repeated ``TILES`` times."""
    lines = ["label: grenoble_x%d" % TILES,
             "dt: %r" % scenarios.GRENOBLE_DT, "cells:"]
    for cell in scenarios.grenoble_cells() * TILES:
        fields = {"length": cell.length, "v_free": cell.v_free,
                  "rho_crit": cell.rho_crit, "rho_jam": cell.rho_jam,
                  "beta": cell.beta, "ramp_flow_max": cell.ramp_flow_max,
                  "queue_max": cell.queue_max}
        if cell.capacity is not None:
            fields["capacity"] = cell.capacity
        lines.append("  - {" + ", ".join(
            f"{k}: {v!r}" for k, v in fields.items()) + "}")
    lines += ["demand:", f"  csv: {demand_csv}"]
    return "\n".join(lines) + "\n"


def _csv_rows(path: Path):
    """Rows of a CSV file, read one at a time."""
    with open(path, encoding="utf-8", newline="") as fh:
        yield from csv.reader(fh)


def _lp_sections(text: str) -> list[tuple[str, int]]:
    """Section headers of an LP text file and the lines under each."""
    sections: list[list] = []
    for line in io.StringIO(text):
        if line.startswith(" ") and sections:
            sections[-1][1] += 1
        else:
            sections.append([line.rstrip("\n"), 0])
    return [tuple(s) for s in sections]


class Certify:
    """In-process CLI calls: ``simulate --report`` and
    ``bounds --restrictiveness`` on Grenoble, and ``bounds
    --restrictiveness`` on the 3x tiled corridor."""

    name = "certify"

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        grenoble = scenarios.grenoble_model()
        self.demand = workdir / "demand.csv"
        scenarios.write_demand_csv(
            self.demand,
            scenarios.synth_demand(grenoble, scenarios.GRENOBLE_PRESET, seed))
        spec = replace(scenarios.GRENOBLE_PRESET, ramp_peaks={
            k + grenoble.n * j: v for j in range(TILES)
            for k, v in scenarios.GRENOBLE_PRESET.ramp_peaks.items()})
        long_model = FreewayModel(
            scenarios.grenoble_cells() * TILES, scenarios.GRENOBLE_DT)
        scenarios.write_demand_csv(
            workdir / "demand_long.csv",
            scenarios.synth_demand(long_model, spec, seed))
        self.long_yaml = workdir / "corridor_long.yaml"
        self.long_yaml.write_text(_long_corridor_yaml("demand_long.csv"),
                                  encoding="utf-8")
        self.n = {"grenoble": grenoble.n, "long": long_model.n}
        self.horizon = scenarios.GRENOBLE_PRESET.horizon_steps

    def _calls(self):
        d = self.dir
        return {
            "report": ["simulate", "--scenario", "builtin:grenoble",
                       "--demand", str(self.demand), "--controller", "be",
                       "--out", str(d / "out_traj.csv"),
                       "--report", str(d / "out_report.json")],
            "bounds": ["bounds", "--scenario", "builtin:grenoble",
                       "--demand", str(self.demand),
                       "--restrictiveness", str(d / "out_restr.csv"),
                       "--out", str(d / "out_bounds.json")],
            "bounds_long": ["bounds", "--scenario", str(self.long_yaml),
                            "--restrictiveness", str(d / "out_restr_long.csv"),
                            "--out", str(d / "out_bounds_long.json")],
        }

    def run(self):
        for path in self.dir.glob("out_*"):
            path.unlink()
        stages, codes = {}, {}
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            for stage, argv in self._calls().items():
                t0 = time.perf_counter()
                codes[stage] = cli.main(argv)
                stages[stage] = time.perf_counter() - t0
        return stages, {"codes": codes, "stderr": sink.getvalue()}

    def _check_bounds(self, tag: str, json_name: str, csv_name: str,
                      n: int, problems: list[str]) -> dict:
        doc = json.loads((self.dir / json_name).read_text(encoding="utf-8"))
        lb, be = doc["tts_lb"], doc["tts_be"]
        if not _finite(lb, be) or not lb <= be * (1.0 + 1e-9):
            problems.append(f"{tag}: tts_lb {lb} > tts_be {be}")
        if doc["certificate"] not in ("optimal", "bounded"):
            problems.append(f"{tag}: certificate {doc['certificate']!r}")
        rows = _csv_rows(self.dir / csv_name)
        header = next(rows)
        count, statuses = 0, set()
        for r in rows:
            count += 1
            statuses.add(r[2])
        if header != ["t", "cell", "status", "reason"] \
                or count != self.horizon * n \
                or not statuses <= {"restrictive", "nonrestrictive"}:
            problems.append(f"{tag}: restrictiveness CSV does not parse back")
        return {"tts_lb": lb, "tts_be": be}

    def check(self, answers, reference: dict | None) -> list[str]:
        problems = []
        for stage, code in answers["codes"].items():
            if code != 0:
                problems.append(f"{stage}: exit code {code}: "
                                f"{answers['stderr'].strip()[-200:]}")
        if problems:
            return problems
        rows = _csv_rows(self.dir / "out_traj.csv")
        n = self.n["grenoble"]
        header, count, finite = next(rows), 0, True
        for r in rows:
            count += 1
            finite = finite and _finite(*(v for v in r[2:] if v))
        if header != ["t", "cell", "rho", "q", "phi", "r"] \
                or count != (self.horizon + 1) * n or not finite:
            problems.append("report: trajectory CSV does not parse back")
        rep = json.loads((self.dir / "out_report.json").read_text(
            encoding="utf-8"))
        if not _finite(rep["tts"]) or not rep["mass_residual"] <= MASS_TOL:
            problems.append(f"report: tts {rep['tts']}, mass residual "
                            f"{rep['mass_residual']}")
        got = {"report_tts": rep["tts"]}
        b = self._check_bounds("bounds", "out_bounds.json", "out_restr.csv", n,
                               problems)
        if not close(b["tts_be"], rep["tts"], rel=1e-9):
            problems.append("bounds: greedy tts differs from the report's")
        got.update({"bounds_" + k: v for k, v in b.items()})
        b = self._check_bounds("bounds_long", "out_bounds_long.json",
                               "out_restr_long.csv", self.n["long"], problems)
        got.update({"bounds_long_" + k: v for k, v in b.items()})
        answers["values"] = got
        if reference is not None:
            for key, want in reference["certify"].items():
                if not close(got[key], want):
                    problems.append(f"certify: {key} {got[key]!r} != "
                                    f"reference {want!r}")
        return problems

    def named_metrics(self, ops: list[dict]) -> dict:
        return {f"{stage}_ms_p50": {
                    "value": 1e3 * statistics.median(s[stage] for s in ops),
                    "unit": "ms", "samples": len(ops)}
                for stage in ("report", "bounds", "bounds_long")}

    def summary(self, answers) -> dict:
        return answers.get("values", {})


class Optimize:
    """``build_lp`` -> ``export_lp_text`` -> ``solve_lp`` ->
    ``certify_relaxation`` on the compressed Grenoble corridor."""

    name = "optimize"

    def __init__(self, seed: int, workdir: Path):
        self.model = scenarios.grenoble_model()
        self.demand = scenarios.synth_demand(self.model, OPTIMIZE_SPEC, seed)
        self._bounds = None

    def run(self):
        t0 = time.perf_counter()
        inst = lp.build_lp(self.model, self.demand)
        t1 = time.perf_counter()
        text = lp.export_lp_text(inst)
        t2 = time.perf_counter()
        sol = lp.solve_lp(inst)
        t3 = time.perf_counter()
        cert = lp.certify_relaxation(inst, sol)
        t4 = time.perf_counter()
        stages = {"build": t1 - t0, "export": t2 - t1, "solve": t3 - t2,
                  "certify": t4 - t3}
        return stages, {"inst": inst, "text": text, "objective":
                        sol.objective, "exact": cert.exact}

    def check(self, answers, reference: dict | None) -> list[str]:
        problems = []
        if self._bounds is None:
            self._bounds = cumulative.tts_bounds(self.model, self.demand)
        lb, be = self._bounds.tts_lb, self._bounds.tts_be
        obj = answers["objective"]
        slack = 1e-6 * max(1.0, abs(obj))
        if not _finite(obj) or not lb - slack <= obj <= be + slack:
            problems.append(f"optimize: objective {obj!r} outside "
                            f"[{lb!r}, {be!r}]")
        if not answers["exact"]:
            problems.append("optimize: relaxation certificate not exact")
        inst = answers["inst"]
        rows = inst.a_eq.shape[0] + inst.a_ub.shape[0]
        if _lp_sections(answers["text"]) != [
                ("Minimize", 1), ("Subject To", rows),
                ("Bounds", inst.c.shape[0]), ("End", 0)]:
            problems.append("optimize: exported LP text does not parse back")
        answers["values"] = {"objective": obj, "tts_lb": lb, "tts_be": be}
        if reference is not None:
            for key, want in reference["optimize"].items():
                if not close(answers["values"][key], want):
                    problems.append(f"optimize: {key} "
                                    f"{answers['values'][key]!r} != "
                                    f"reference {want!r}")
        return problems

    def named_metrics(self, ops: list[dict]) -> dict:
        return {
            "optimize_s": {"value": statistics.median(
                s["build"] + s["solve"] + s["certify"] for s in ops),
                "unit": "s", "samples": len(ops)},
            "export_s": {"value": statistics.median(s["export"] for s in ops),
                         "unit": "s", "samples": len(ops)},
        }

    def summary(self, answers) -> dict:
        return answers.get("values", {})


WORKLOADS = {w.name: w for w in (Campaign, Certify, Optimize)}
