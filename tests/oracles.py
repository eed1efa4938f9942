"""Tiny exhaustive oracles: gridded searches over rate choices that the LP
and the greedy law are checked against. Tiny instances only."""

from __future__ import annotations

import numpy as np

from rampflow.lp import LpError
from rampflow.model import FreewayModel
from rampflow.simulator import (
    DemandProfile,
    SimState,
    _check_rates,
    _rate_bounds,
    _rate_caps,
    compute_flows,
    step,
    zero_state,
)

#: search nodes :func:`brute_force_min_tts` may visit
_NODE_LIMIT = 200_000


def _rate_grid(model: FreewayModel, state: SimState, w_row: np.ndarray,
               points: int) -> np.ndarray:
    """Cartesian grid over each ramp's current feasible rate interval, one
    (G, n) row per rate vector, the last ramp varying fastest."""
    lo, hi = _rate_bounds(model, state.q, w_row[1:], _rate_caps(model, False))
    _check_rates(lo, lo, hi)
    axes = [np.linspace(a, b, points) if b > a else np.array([a])
            for a, b in zip(lo.tolist(), hi.tolist())]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def brute_force_min_tts(model: FreewayModel, demand: DemandProfile,
                        initial_state: SimState | None = None,
                        points: int = 5) -> tuple[float, np.ndarray]:
    """Exhaustive search over gridded rate choices; tiny instances only.

    The grid always contains both interval endpoints, so problems whose
    optimum saturates a bound are solved exactly.
    """
    T = demand.horizon
    # cells whose ramp can ever admit more than one feasible rate
    branching = int(np.sum((model.ramp_flow_max > 0) | (model.queue_max > 0)))
    if (points ** branching) ** T > _NODE_LIMIT:
        raise ValueError("instance too large for exhaustive search")
    initial = zero_state(model) if initial_state is None else initial_state
    dt = model.dt
    best = [np.inf, None]

    def rec(t: int, state: SimState, acc: float, rates: list[np.ndarray]):
        if t == demand.horizon:
            total = acc + dt * float(model.length @ state.rho
                                     + np.sum(state.q))
            if total < best[0]:
                best[0] = total
                best[1] = np.array(rates)
            return
        acc += dt * float(model.length @ state.rho + np.sum(state.q))
        if acc >= best[0]:
            return
        w_row = demand.row(t)
        for r in _rate_grid(model, state, w_row, points):
            nxt, _ = step(model, state, r, w_row)
            rec(t + 1, nxt, acc, rates + [r])

    rec(0, initial, 0.0, [])
    if best[1] is None:
        raise LpError("exhaustive search found no feasible rate sequence")
    return float(best[0]), best[1]


def brute_force_max_next_flows(model: FreewayModel, state: SimState,
                               w_row: np.ndarray, w0_next: float = 0.0,
                               points: int = 21) -> np.ndarray:
    """Componentwise maximum of the next step's flow vector over gridded
    rate choices.

    A single rate choice can attain every component at once (steering all
    densities toward critical maximizes each flow), which is what makes
    per-step greedy metering globally optimal; this oracle provides the
    adversaries for checking that claim. The grid is simulated as one
    batch of G runs.
    """
    grid = _rate_grid(model, state, w_row, points)
    batch = SimState(np.broadcast_to(state.rho, grid.shape),
                     np.broadcast_to(state.q, grid.shape))
    nxt, _ = step(model, batch, grid, w_row)
    return compute_flows(model, nxt, w0_next).max(axis=0)
