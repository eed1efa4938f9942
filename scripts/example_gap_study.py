#!/usr/bin/env python3
"""Optimality-gap study on the bundled example scenarios.

For each example this runs the unmetered baseline and the greedy
best-effort law, computes the relaxed lower bound, solves the exact linear
program, and prints the resulting total-time-spent ladder together with
the restrictiveness certificate.

Example 1 shows a genuine gap: the optimum pre-meters before congestion
arrives, so the small cell crosses its critical density later and drains
below it, while the greedy law only reacts to the state it sees. Example 2
is a case where metering cannot help at all — the optimum coincides with
the unmetered run — yet the greedy law still pays for holding cars back.

Usage: python3 scripts/example_gap_study.py [--scenario example1|example2]
"""

from __future__ import annotations

import argparse

from rampflow.cumulative import tts_bounds
from rampflow.lp import build_lp, certify_relaxation, solve_lp
from rampflow.scenarios import load_scenario
from rampflow.simulator import evaluate_metrics, simulate


def study(name: str) -> None:
    sc = load_scenario(f"builtin:{name}")
    model, demand, initial = sc.model, sc.demand, sc.initial
    cells = "cell" if model.n == 1 else "cells"
    print(f"{sc.label}  ({model.n} {cells}, {demand.horizon} steps)")

    open_loop = simulate(model, demand, initial_state=initial)
    m_ol = evaluate_metrics(model, open_loop)

    bounds = tts_bounds(model, demand, initial)
    m_be = evaluate_metrics(model, bounds.greedy)
    inst = build_lp(model, demand, initial)
    sol = solve_lp(inst)
    cert = certify_relaxation(inst, sol)

    def line(label: str, tts: float, extra: str = "") -> None:
        print(f"  {label:<22} {tts:12.6f} car-h{extra}")

    line("unmetered", m_ol.tts, f"   (waiting {m_ol.twt:.6f})")
    line("greedy best-effort", m_be.tts, f"   (waiting {m_be.twt:.6f})")
    line("exact optimum (LP)", sol.objective,
         f"   [{'exact' if cert.exact else 'relaxed'}, "
         f"rate adjustment {cert.max_rate_adjustment:.1e}]")
    line("relaxed lower bound", bounds.tts_lb)

    gap = 100.0 * (m_be.tts - sol.objective) / sol.objective
    print(f"  certificate: {bounds.certificate}; restrictive pairs: "
          f"{100.0 * bounds.restrictive_fraction:.2f}% "
          f"of metered cell-steps")
    print(f"  greedy suboptimality: {gap:.3f}% above the optimum")
    saved = 100.0 * (m_ol.tts - sol.objective) / m_ol.tts
    print(f"  optimal metering saves {saved:.3f}% of unmetered time spent")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=["example1", "example2"],
                        help="study one example instead of both")
    args = parser.parse_args()
    refs = [args.scenario] if args.scenario else ["example1", "example2"]
    for ref in refs:
        study(ref)


if __name__ == "__main__":
    main()
