"""Tiny exhaustive oracles: gridded searches over rate choices that the LP
and the greedy law are checked against, on tiny instances only; and the
allocating form of the greedy basis's dual pass, the reference for the
in-place one."""

from __future__ import annotations

import numpy as np

from rampflow.lp import (
    Csr,
    LpError,
    LpInstance,
    _BASIC,
    _LOWER,
    _TIGHT,
    _UPPER,
    _matvec,
)
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


def _time_spent(model: FreewayModel, rho: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    """dt times the cars in the cells and in the queues, one value per
    run; summed cell by cell, so a state alone and as a batch row give
    the same bits."""
    road = queue = 0.0
    for k in range(model.n):
        road = road + model.length[k] * rho[..., k]
        queue = queue + q[..., k]
    return model.dt * (road + queue)


def _check_size(model: FreewayModel, horizon: int, points: int) -> None:
    # cells whose ramp can ever admit more than one feasible rate
    branching = int(np.sum((model.ramp_flow_max > 0) | (model.queue_max > 0)))
    if (points ** branching) ** horizon > _NODE_LIMIT:
        raise ValueError("instance too large for exhaustive search")


def brute_force_min_tts(model: FreewayModel, demand: DemandProfile,
                        initial_state: SimState | None = None,
                        points: int = 5) -> tuple[float, np.ndarray]:
    """Exhaustive search over gridded rate choices; tiny instances only.

    The grid always contains both interval endpoints, so problems whose
    optimum saturates a bound are solved exactly. Each step is one ``step``
    batch over every state the grids reach, kept in depth-first order, so
    the search returns :func:`dfs_min_tts`'s minimum and plan bit for bit:
    the first minimal plan in grid order.
    """
    _check_size(model, demand.horizon, points)
    initial = zero_state(model) if initial_state is None else initial_state
    rho, q = initial.rho[None], initial.q[None]
    acc = np.zeros(1)
    levels = []
    for t in range(demand.horizon):
        acc = acc + _time_spent(model, rho, q)
        w_row = demand.row(t)
        grids = [_rate_grid(model, SimState(*state), w_row, points)
                 for state in zip(rho, q)]
        parent = np.repeat(np.arange(len(grids)), [len(g) for g in grids])
        grid = np.concatenate(grids)
        nxt, _ = step(model, SimState(rho[parent], q[parent]), grid, w_row)
        rho, q, acc = nxt.rho, nxt.q, acc[parent]
        levels.append((grid, parent))
    total = acc + _time_spent(model, rho, q)
    leaf = int(np.argmin(total))
    if not total[leaf] < np.inf:
        raise LpError("exhaustive search found no feasible rate sequence")
    best, plan = float(total[leaf]), []
    for grid, parent in reversed(levels):
        plan.append(grid[leaf])
        leaf = parent[leaf]
    return best, np.array(plan[::-1])


def dfs_min_tts(model: FreewayModel, demand: DemandProfile,
                initial_state: SimState | None = None,
                points: int = 5) -> tuple[float, np.ndarray]:
    """:func:`brute_force_min_tts` as a depth-first search that calls
    ``step`` once per node, the reference the batched search is checked
    against. It keeps the first plan in grid order that reaches the
    minimum."""
    _check_size(model, demand.horizon, points)
    initial = zero_state(model) if initial_state is None else initial_state
    best = [np.inf, None]

    def rec(t: int, state: SimState, acc: float, rates: list[np.ndarray]):
        if t == demand.horizon:
            total = acc + float(_time_spent(model, state.rho, state.q))
            if total < best[0]:
                best[0] = total
                best[1] = np.array(rates)
            return
        acc += float(_time_spent(model, state.rho, state.q))
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


def allocating_greedy_basis(inst: LpInstance, x: np.ndarray,
                            ) -> tuple[np.ndarray, np.ndarray,
                                       np.ndarray] | None:
    """:func:`rampflow.lp._greedy_basis` with the backward pass that
    allocates each step's duals (``np.where`` results copied into ``y``),
    kept as the reference the in-place pass is checked against bit for
    bit."""
    model, vm = inst.model, inst.varmap
    T, n = vm.horizon, vm.n
    if (inst.a_eq.shape[0], inst.a_ub.shape[0]) != vm.rows:
        return None
    m_eq, m_ub = vm.rows
    gap = _TIGHT * np.maximum(1.0, np.abs(x))
    at_lo, at_hi = x <= inst.lb + gap, x >= inst.ub - gap
    col = np.where(at_hi & ~at_lo, _UPPER, _LOWER).astype(np.int8)
    c_phi, c_r, c_rho, c_q = vm.split(col)
    lo_phi, lo_r, _, lo_q = vm.split(at_lo)
    hi_phi, hi_r, _, hi_q = vm.split(at_hi)

    # the hypograph rows tight at x, as (T, n) masks; cell n has no
    # supply row
    a = inst.a_ub
    slack = inst.b_ub - _matvec(a, x)
    scale = _matvec(Csr(a.indptr, a.indices, np.abs(a.data), a.shape),
                    np.abs(x))
    dem_tight, sup_row = vm.ub(slack <= _TIGHT * np.maximum(1.0, scale))
    sup_tight = np.zeros((T, n), dtype=bool)
    sup_tight[:, :-1] = sup_row

    c_phi[:, 0] = _BASIC
    c_rho[:] = _BASIC
    phi_basic = dem_tight | sup_tight | ~(lo_phi | hi_phi)[:, 1:]
    dem_out = phi_basic & (dem_tight | ~sup_tight)
    sup_out = phi_basic & ~dem_out
    c_phi[:, 1:][phi_basic] = _BASIC

    r_free, q_free = ~(lo_r | hi_r), ~(lo_q | hi_q)
    pair = r_free & q_free
    take = np.zeros((T, n), dtype=bool)
    take[:-1] = pair[:-1] & dem_tight[1:] & hi_phi[1:, 1:]
    c_phi[1:, 1:][take[:-1]] = _UPPER
    stuck = pair & ~take
    nearer = np.where(2.0 * vm.split(x)[3] > model.queue_max, _UPPER, _LOWER)
    c_q[stuck] = nearer[stuck]
    c_r[r_free] = _BASIC
    c_q[~r_free | (q_free & ~stuck)] = _BASIC

    rows = np.full(m_eq + m_ub, _BASIC, dtype=np.int8)
    rows[:m_eq] = _LOWER
    row_dem, row_sup = vm.ub(rows[m_eq:])
    row_dem[dem_out] = _UPPER
    row_sup[sup_out[:, :-1]] = _UPPER

    # a taken flow is nonbasic, so its demand row's dual comes from the
    # pair, not from the flow's reduced cost
    dem_on = dem_out.copy()
    dem_on[1:] &= ~take[:-1]
    dt = model.dt
    cost_phi, cost_r, cost_rho, cost_q = vm.split(inst.c)
    # the rows' coefficients, as build_lp writes them
    inflow = dt / model.length
    outflow = dt / (model.length * model.beta_bar)
    slope, wb = model.beta_bar * model.v_free, model.w_back[1:]

    y = np.zeros(m_eq + m_ub)
    pi, lam, mu = vm.eq(y[:m_eq])
    dem, sup = vm.ub(y[m_eq:])
    lam_next = mu_next = np.zeros(n)
    for t in range(T - 1, -1, -1):
        lam_t = cost_rho[t] + lam_next
        if t + 1 < T:
            lam_t += slope * dem[t + 1]
            lam_t[1:] -= wb * sup[t + 1]
            k = take[t]
            if k.any():
                held = (dt * (cost_q[t, k] + mu_next[k]) - cost_r[t, k]) \
                    / inflow[k]
                dem[t + 1, k] = (held - lam_t[k]) / slope[k]
                lam_t[k] = held
        mu_t = np.where(r_free[t], (cost_r[t] + inflow * lam_t) / dt,
                        cost_q[t] + mu_next)
        g = cost_phi[t, 1:] - outflow * lam_t
        g[:-1] += inflow[1:] * lam_t[1:]
        dem[t] = np.where(dem_on[t], g, 0.0)
        sup[t] = np.where(sup_out[t, :-1], g[:-1], 0.0)
        lam[t], mu[t] = lam_t, mu_t
        lam_next, mu_next = lam_t, mu_t
    pi[:] = cost_phi[:, 0] + inflow[0] * lam[:, 0]
    return col, rows, y
