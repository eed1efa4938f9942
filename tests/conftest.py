"""Shared builders for randomized freeway models, demands, and scenarios.

The generators are deterministic per seed and intentionally conservative:
demands stay well below capacities so that trajectories remain inside the
state boxes that the dynamics assume.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from rampflow.controllers import make_controller
from rampflow.model import CellParams, FreewayModel, validate_model
from rampflow.scenarios import (
    GRENOBLE_DT,
    GRENOBLE_PRESET,
    grenoble_cells,
    synth_demand,
)
from rampflow.simulator import DemandProfile, SimState, simulate


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance-battery verdict lines after the test summary."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def random_model(rng: np.random.Generator, n_max: int = 4) -> FreewayModel:
    """A small validated model with a random mix of metered and plain cells."""
    n = int(rng.integers(1, n_max + 1))
    cells = []
    for _ in range(n):
        v = float(rng.uniform(60.0, 120.0))
        rho_c = float(rng.uniform(20.0, 80.0))
        rho_jam = rho_c * float(rng.uniform(2.5, 6.0))
        beta = float(rng.choice([0.0, 0.0, 0.1, 0.2]))
        has_ramp = bool(rng.random() < 0.6)
        cells.append(CellParams(
            length=float(rng.uniform(0.5, 1.5)),
            v_free=v,
            rho_crit=rho_c,
            rho_jam=rho_jam,
            beta=beta,
            ramp_flow_max=float(rng.uniform(600.0, 2000.0)) if has_ramp else 0.0,
            queue_max=float(rng.uniform(20.0, 120.0)) if has_ramp else 0.0,
        ))
    # dt small enough for the steepest cell
    dt_cap = min(
        min(c.length / c.v_free for c in cells),
        min(c.length / (c.v_free * c.rho_crit / (c.rho_jam - c.rho_crit))
            for c in cells),
    )
    model = FreewayModel(cells, dt=0.9 * dt_cap)
    assert validate_model(model) == []
    return model


def random_state(rng: np.random.Generator, model: FreewayModel) -> SimState:
    rho = rng.uniform(0.0, model.rho_jam)
    q = rng.uniform(0.0, model.queue_max)
    return SimState(rho=rho, q=q)


def random_demand(rng: np.random.Generator, model: FreewayModel,
                  horizon: int, load: float = 0.5) -> DemandProfile:
    """Trapezoid-ish random demands scaled to a fraction of local capacity."""
    t = np.arange(horizon)
    # mainline: keep below the weakest forward path so cell 1 cannot overflow
    cap0 = min(
        model.capacity[k] / max(model.beta_run[k], 1e-9)
        for k in range(model.n)
    )
    cap0 = min(cap0, model.beta_bar[0] * model.v_free[0] * model.rho_crit[0])
    peak = load * cap0 * rng.uniform(0.4, 1.0)
    start = rng.integers(0, max(1, horizon // 3))
    stop = rng.integers(start + 1, horizon + 1)
    w0 = np.where((t >= start) & (t < stop), peak, 0.0)
    w_ramp = np.zeros((horizon, model.n))
    for k in range(model.n):
        if model.ramp_flow_max[k] <= 0.0:
            continue
        rpk = min(model.ramp_flow_max[k],
                  0.3 * load * model.capacity[k]) * rng.uniform(0.2, 1.0)
        s = rng.integers(0, max(1, horizon // 2))
        e = rng.integers(s + 1, horizon + 1)
        w_ramp[(t >= s) & (t < e), k] = rpk
    return DemandProfile(w0=w0, w_ramp=w_ramp)


def safe_one_step_instance(rng: np.random.Generator, n_max: int = 3):
    """Random (model, state, w_row) where every feasible rate choice —
    including the max-release endpoints a gridded adversary will try —
    keeps all densities inside their boxes for one step.

    Mainline supply limits already cap what neighbours can push in; the
    unconditional inflows (boundary demand and ramp release) get explicit
    headroom budgets sized by each cell's free space.
    """
    model = random_model(rng, n_max=n_max)
    rho = rng.uniform(0.0, model.rho_jam * 0.95)
    head = (model.rho_jam - rho) * model.length          # cars of free space
    q = np.zeros(model.n)
    w = np.zeros(model.n + 1)
    ramp = model.ramp_flow_max > 0.0
    q[ramp] = rng.uniform(0.0, np.minimum(model.queue_max, 0.04 * head)[ramp])
    w[1:][ramp] = rng.uniform(
        0.0, np.minimum(model.ramp_flow_max, 0.04 * head / model.dt)[ramp])
    cap0 = model.beta_bar[0] * model.v_free[0] * model.rho_crit[0]
    w[0] = rng.uniform(0.0, min(cap0, 0.4 * head[0] / model.dt))
    return model, SimState(rho=rho, q=q), w


def one_step_rates(model: FreewayModel, kind: str, state: SimState,
                   w_row: np.ndarray, relaxed: bool = False,
                   **kw) -> np.ndarray:
    """Rates a law applies at one state: its raw rate saturated by a
    one-step run."""
    demand = DemandProfile(w0=w_row[:1], w_ramp=np.reshape(w_row[1:], (1, -1)))
    return simulate(model, demand, make_controller(kind, model, **kw),
                    initial_state=state, relaxed=relaxed).rates[0]


def tiled_grenoble(tiles: int = 3) -> tuple[FreewayModel, DemandProfile]:
    """Grenoble's cells and ramp demands repeated ``tiles`` times (63
    cells by default, the corridor of perfbench's certify workload)."""
    cells = grenoble_cells() * tiles
    model = FreewayModel(cells, GRENOBLE_DT)
    n = len(grenoble_cells())
    spec = replace(GRENOBLE_PRESET, ramp_peaks={
        k + n * j: v for j in range(tiles)
        for k, v in GRENOBLE_PRESET.ramp_peaks.items()})
    return model, synth_demand(model, spec, 0)
