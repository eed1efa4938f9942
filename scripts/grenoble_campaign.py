#!/usr/bin/env python3
"""Uncertainty campaign on the synthetic Grenoble-style corridor.

Sweeps controller-model mismatch, multiplicative flow noise, and a
monotonic vs capacity-drop plant, reporting the mean waiting-time
improvement of the greedy and integral controllers over the unmetered
baseline. Results are written as CSV; a short ordering summary goes to
stderr so the CSV stays clean on stdout.

Usage:
    python3 scripts/grenoble_campaign.py --runs 20 --seed 0
    python3 scripts/grenoble_campaign.py --sigmas 0,0.05 --lp --out camp.csv
"""

from __future__ import annotations

import argparse
import sys
import time

from rampflow.reports import campaign_csv_text
from rampflow.scenarios import (
    MISMATCH_GRID,
    builtin_grenoble,
    uncertainty_campaign,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sigmas", default="0,0.05",
                        help="comma-separated flow-noise levels")
    parser.add_argument("--variants", default="monotonic,capacity_drop",
                        help="comma-separated plant variants")
    parser.add_argument("--runs", type=int, default=20,
                        help="disturbance/belief draws per grid point")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lp", action="store_true",
                        help="append the clairvoyant LP improvement row")
    parser.add_argument("--out", help="CSV path (default: stdout)")
    args = parser.parse_args()

    sigmas = tuple(float(s) for s in args.sigmas.split(","))
    variants = tuple(v.strip() for v in args.variants.split(","))
    started = time.perf_counter()
    rows = uncertainty_campaign(builtin_grenoble(args.seed), sigmas=sigmas,
                                variants=variants, runs=args.runs,
                                seed=args.seed, include_lp=args.lp)
    elapsed = time.perf_counter() - started

    text = campaign_csv_text(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    def gain(variant: str, controller: str, sigma: float,
             dv: float, drho: float) -> float | None:
        for row in rows:
            if (row.variant, row.controller, row.sigma,
                    row.dv, row.drho) == (variant, controller,
                                          sigma, dv, drho):
                return row.mean_twt_improvement
        return None

    print(f"# campaign finished in {elapsed:.1f}s "
          f"({len(rows)} rows)", file=sys.stderr)
    for variant in variants:
        for sigma in sigmas:
            nominal = gain(variant, "best_effort", sigma, *MISMATCH_GRID[0])
            worst = gain(variant, "best_effort", sigma, *MISMATCH_GRID[-1])
            integral = gain(variant, "alinea", sigma, 0.0, 0.0)
            if nominal is None:
                continue
            print(f"# {variant} sigma={sigma}: greedy nominal "
                  f"{nominal:.2f}% -> worst mismatch {worst:.2f}%, "
                  f"integral {integral:.2f}%", file=sys.stderr)


if __name__ == "__main__":
    main()
