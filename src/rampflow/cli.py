"""Command line front end.

Exit codes: 0 success, 2 unusable scenario or input data, 3 a run broke a
state or rate contract or the LP solver failed, 4 the request needs a
model class the method does not cover (optimize and bounds refuse
capacity-drop models and steps that break the step-size conditions), 5 a
``--demand`` override the model cannot take, or a saved trajectory whose
horizon or cells differ from the scenario's. :data:`EXIT_CODES` maps the
error types to these codes in one place; a failing command prints
``error: <command>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .controllers import DEFAULT_KI, make_controller, sample_controller_model
from .cumulative import restrictiveness_report, tts_bounds
from .lp import LpError, build_lp, certify_relaxation, export_lp_text, solve_lp
from .model import UnsupportedModelError, validate_model
from .reports import (
    bounds_doc,
    campaign_csv_text,
    dumps_json,
    rates_csv_text,
    read_trajectory_csv,
    restrictiveness_csv_text,
    run_report_doc,
    trajectory_csv_text,
)
from .scenarios import (
    MISMATCH_GRID,
    Scenario,
    ScenarioError,
    load_scenario,
    read_demand_csv,
    uncertainty_campaign,
)
from .simulator import (
    ContractViolationError,
    DisturbanceSpec,
    ShapeMismatchError,
    evaluate_metrics,
    mass_conservation_residual,
    simulate,
)

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_CONTRACT = 3
EXIT_UNSUPPORTED = 4
EXIT_MISMATCH = 5

# error type -> exit code; the first match wins, so the ValueError
# subclasses come before ValueError itself
EXIT_CODES = (
    ((ContractViolationError, LpError), EXIT_CONTRACT),
    (UnsupportedModelError, EXIT_UNSUPPORTED),
    (ShapeMismatchError, EXIT_MISMATCH),
    ((ValueError, OSError), EXIT_SCENARIO),
)

CONTROLLERS = {
    "none": "none",
    "be": "best_effort",
    "relaxed-be": "best_effort",   # simulated with relaxed=True
    "alinea": "alinea",
}


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load(args) -> Scenario:
    """The scenario, its demand replaced by the ``--demand`` file if given;
    an override the model cannot take is refused before any run."""
    scenario = load_scenario(args.scenario)
    if getattr(args, "demand", None):
        if not os.path.exists(args.demand):
            raise FileNotFoundError(f"demand file not found: {args.demand}")
        try:
            demand = read_demand_csv(args.demand, scenario.model.n)
            demand.check_against(scenario.model)
        except ValueError as e:
            raise ShapeMismatchError(f"demand: {e}") from e
        scenario = replace(scenario, demand=demand)
    return scenario


def _controller(args, model):
    kind = CONTROLLERS[args.controller]
    belief = model
    if args.dv != 0.0 or args.drho != 0.0:   # a bad width meets the refusal
        belief_seed = args.belief_seed
        if belief_seed is None:
            belief_seed = args.seed + 1000
        belief = sample_controller_model(model, dv=args.dv, drho=args.drho,
                                         seed=belief_seed)
    return make_controller(kind, belief, ki=args.ki)


def _add_scenario_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help="builtin:<name> or a scenario YAML file")


def _add_controller_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--controller", choices=sorted(CONTROLLERS), default="none")
    p.add_argument("--ki", type=float, default=DEFAULT_KI,
                   help="integral gain of the alinea law")
    p.add_argument("--dv", type=float, default=0.0,
                   help="relative half-width of the belief free-flow speed")
    p.add_argument("--drho", type=float, default=0.0,
                   help="relative half-width of the belief jam density")
    p.add_argument("--belief-seed", type=int, default=None,
                   help="seed for the sampled belief (default: seed + 1000)")


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    # built for "none" too, so its flags meet the same refusals; that law
    # returns inf, as simulate does without one
    controller = _controller(args, scenario.model)
    disturbance = None if args.sigma_phi == 0.0 \
        else DisturbanceSpec(sigma_phi=args.sigma_phi, seed=args.seed)
    traj = simulate(scenario.model, scenario.demand, controller,
                    disturbance=disturbance, initial_state=scenario.initial,
                    relaxed=(args.controller == "relaxed-be"))
    metrics = evaluate_metrics(scenario.model, traj)
    _emit(trajectory_csv_text(traj), args.out)
    if args.report:
        doc = run_report_doc(
            scenario.label, args.controller, scenario.model, traj, metrics,
            mass_conservation_residual(scenario.model, traj),
            restrictiveness_report(scenario.model, traj),
            sigma_phi=args.sigma_phi, seed=args.seed)
        _emit(dumps_json(doc), args.report)
    print(f"tts={metrics.tts:.9g} tft={metrics.tft:.9g} "
          f"twt={metrics.twt:.9g}", file=sys.stderr)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    scenario = _load(args)
    inst = build_lp(scenario.model, scenario.demand, scenario.initial)
    if args.export_lp:
        _emit(export_lp_text(inst), args.export_lp)
    sol = solve_lp(inst)
    cert = certify_relaxation(inst, sol)
    doc = {
        "scenario": scenario.label,
        "horizon_steps": scenario.horizon,
        "variables": inst.varmap.size,
        "objective": sol.objective,
        "exact": cert.exact,
        "simulated_tts": cert.simulated_tts,
        "gap": cert.gap,
        "max_rate_adjustment": cert.max_rate_adjustment,
        "residual_eq": sol.residual_eq,
        "residual_ub": sol.residual_ub,
        "lp_status": sol.status,
        "lp_iterations": sol.iterations,
        "lp_warm": sol.warm,
    }
    if math.isfinite(sol.dual_bound):   # proved optimal without HiGHS
        doc["lp_dual_bound"] = sol.dual_bound
    if args.rates:
        _emit(rates_csv_text(sol.rates), args.rates)
    _emit(dumps_json(doc), args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    scenario = _load(args)
    bounds = tts_bounds(scenario.model, scenario.demand, scenario.initial)
    if args.restrictiveness:
        _emit(restrictiveness_csv_text(bounds.restrictiveness),
              args.restrictiveness)
    _emit(dumps_json(bounds_doc(bounds)), args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    scenario = _load(args)
    traj = read_trajectory_csv(args.trajectory, scenario.demand)
    if traj.rho.shape[1] != scenario.model.n:
        raise ShapeMismatchError(
            f"trajectory has {traj.rho.shape[1]} cells, model has "
            f"{scenario.model.n}")
    metrics = evaluate_metrics(scenario.model, traj)
    doc = run_report_doc(
        scenario.label, "replay", scenario.model, traj, metrics,
        mass_conservation_residual(scenario.model, traj),
        restrictiveness_report(scenario.model, traj))
    _emit(dumps_json(doc), args.out)
    return EXIT_OK


def _cmd_campaign(args) -> int:
    scenario = _load(args)
    sigmas = tuple(float(s) for s in args.sigmas.split(",") if s != "")
    variants = tuple(v.strip() for v in args.variants.split(",")
                     if v.strip())
    rows = uncertainty_campaign(
        scenario, mismatch_grid=MISMATCH_GRID, sigmas=sigmas,
        variants=variants, runs=args.runs, seed=args.seed,
        drop_alpha=args.drop_alpha, include_lp=args.include_lp)
    _emit(campaign_csv_text(rows), args.out)
    # ordering summary: the greedy gain without and at the worst belief
    # mismatch, and the integral law's gain, per variant and noise level
    gain = {(r.variant, r.sigma, r.controller, r.dv, r.drho):
            r.mean_twt_improvement for r in rows}
    for variant in variants:
        for sigma in sigmas:
            greedy = (variant, sigma, "best_effort")
            nominal = gain[greedy + MISMATCH_GRID[0]]
            worst = gain[greedy + MISMATCH_GRID[-1]]
            integral = gain[variant, sigma, "alinea", 0.0, 0.0]
            print(f"# {variant} sigma={sigma}: greedy nominal "
                  f"{nominal:.2f}% -> worst mismatch {worst:.2f}%, "
                  f"integral {integral:.2f}%", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    doc = {
        "scenario": scenario.label,
        "cells": scenario.model.n,
        "horizon_steps": scenario.horizon,
        "dt_hours": scenario.model.dt,
        "violations": [str(v) for v in validate_model(scenario.model)],
    }
    _emit(dumps_json(doc), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rampflow",
        description="freeway ramp metering: simulation, optimal benchmark, "
                    "and optimality certification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a controller over a scenario")
    _add_scenario_arg(p)
    _add_controller_args(p)
    p.add_argument("--demand", help="override demand with a CSV profile")
    p.add_argument("--sigma-phi", type=float, default=0.0,
                   help="relative stdev of multiplicative flow noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="trajectory CSV (default stdout)")
    p.add_argument("--report", help="also write a run summary JSON")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("optimize",
                       help="solve the exact minimal-time benchmark")
    _add_scenario_arg(p)
    p.add_argument("--demand", help="override demand with a CSV profile")
    p.add_argument("--out", help="solution summary JSON (default stdout)")
    p.add_argument("--rates", help="write the optimal metering schedule CSV")
    p.add_argument("--export-lp", help="write the instance in LP text form")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("bounds",
                       help="certify or sandwich the greedy controller")
    _add_scenario_arg(p)
    p.add_argument("--demand", help="override demand with a CSV profile")
    p.add_argument("--out", help="bounds JSON (default stdout)")
    p.add_argument("--restrictiveness",
                   help="write the per-step cell classification CSV")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("report", help="recompute metrics from a saved run")
    _add_scenario_arg(p)
    p.add_argument("--demand", help="override demand with a CSV profile")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out", help="run summary JSON (default stdout)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("campaign",
                       help="controller robustness table over mismatch "
                            "and noise grids")
    _add_scenario_arg(p)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--sigmas", default="0,0.05")
    p.add_argument("--variants", default="monotonic,capacity_drop")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drop-alpha", type=float, default=0.10)
    p.add_argument("--include-lp", action="store_true",
                   help="add the optimal benchmark row (noiseless, "
                        "monotonic plant only)")
    p.add_argument("--out", help="campaign CSV (default stdout)")
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("validate", help="check a scenario file and model")
    _add_scenario_arg(p)
    p.add_argument("--out", help="validation JSON (default stdout)")
    p.set_defaults(fn=_cmd_validate)

    return ap


def main(argv=None) -> int:
    """Run one command and return its exit code. An error of a type in
    :data:`EXIT_CODES` ends the command with that code; any other
    exception is a bug and propagates with its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        for types, code in EXIT_CODES:
            if isinstance(e, types):
                print(f"error: {args.command}: {e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
