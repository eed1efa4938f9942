"""Exact linear-programming benchmark for the minimal total time spent.

The finite-horizon metering problem is nonconvex as written (flows are
mins of affine terms), but replacing each flow equation by its hypograph
(flow below every affine piece) gives an LP whose optimum provably equals
the true optimum for monotone models: simulating the LP's metering rates
reproduces its objective, because cumulative flows can only come out
higher than the LP's and total time spent decreases in them.

Variables are grouped per step: flows and rates for t, then the densities
and queues they produce at t+1. States at t = 0 are data, not variables,
so a horizon T over n cells yields T * (4n + 1) variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import FreewayModel, UnsupportedModelError
from .simulator import (
    DemandProfile,
    RateSchedule,
    SimState,
    evaluate_metrics,
    feasible_rate_interval,
    simulate,
    step,
    zero_state,
)


class LpError(RuntimeError):
    """Solver failure or an unexpectedly violated row."""


@dataclass(frozen=True)
class VarMap:
    """Column layout: per step t, [phi_0..phi_n, r_1..r_n, rho_1..rho_n,
    q_1..q_n], with states indexed by the step that produces them."""

    n: int
    horizon: int

    @property
    def block(self) -> int:
        return 4 * self.n + 1

    @property
    def size(self) -> int:
        return self.horizon * self.block

    def phi(self, t: int, k: int) -> int:
        """Flow over boundary k (0..n) during step t (0..T-1)."""
        return t * self.block + k

    def r(self, t: int, k: int) -> int:
        """Metering rate of cell k (1-based) during step t."""
        return t * self.block + self.n + k

    def rho(self, t: int, k: int) -> int:
        """Density of cell k (1-based) at time t (1..T)."""
        return (t - 1) * self.block + 2 * self.n + k

    def q(self, t: int, k: int) -> int:
        """Queue of cell k (1-based) at time t (1..T)."""
        return (t - 1) * self.block + 3 * self.n + k


class _Rows:
    """Triplet accumulator for one sparse constraint matrix."""

    def __init__(self):
        self.data: list[float] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.rhs: list[float] = []

    def add(self, coeffs: dict[int, float], rhs: float) -> None:
        i = len(self.rhs)
        for col, val in coeffs.items():
            self.rows.append(i)
            self.cols.append(col)
            self.data.append(val)
        self.rhs.append(rhs)

    def matrix(self, width: int) -> sparse.csr_matrix:
        return sparse.coo_matrix(
            (self.data, (self.rows, self.cols)),
            shape=(len(self.rhs), width)).tocsr()


@dataclass
class LpInstance:
    model: FreewayModel
    demand: DemandProfile
    initial: SimState
    varmap: VarMap
    c: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    bounds: list[tuple[float, float | None]]
    objective_constant: float  # time already spent in the frozen t = 0 state


def build_lp(model: FreewayModel, demand: DemandProfile,
             initial_state: SimState | None = None) -> LpInstance:
    """Assemble the hypograph relaxation of the min-time metering problem."""
    if model.has_capacity_drop:
        raise UnsupportedModelError(
            "discharge drop makes outflow non-concave in density; the "
            "hypograph relaxation is not exact for such models")
    demand.check_against(model)
    initial = zero_state(model) if initial_state is None else initial_state

    n, T, dt = model.n, demand.horizon, model.dt
    vm = VarMap(n=n, horizon=T)
    rho0, q0 = initial.rho, initial.q

    c = np.zeros(vm.size)
    for t in range(1, T + 1):
        for k in range(1, n + 1):
            c[vm.rho(t, k)] = dt * model.length[k - 1]
            c[vm.q(t, k)] = dt
    constant = dt * float(model.length @ rho0 + np.sum(q0))

    eq, ub = _Rows(), _Rows()
    for t in range(T):
        w_row = demand.row(t)
        eq.add({vm.phi(t, 0): 1.0}, float(w_row[0]))

        for k in range(1, n + 1):
            i = k - 1
            # density balance: rho(t+1) - rho(t) = dt/l * (in + ramp - out/bb)
            coeffs = {
                vm.rho(t + 1, k): 1.0,
                vm.phi(t, k - 1): -dt / model.length[i],
                vm.r(t, k): -dt / model.length[i],
                vm.phi(t, k): dt / (model.length[i] * model.beta_bar[i]),
            }
            rhs = 0.0
            if t == 0:
                rhs += float(rho0[i])
            else:
                coeffs[vm.rho(t, k)] = -1.0
            eq.add(coeffs, rhs)

            # queue balance: q(t+1) - q(t) = dt * (w - r)
            coeffs = {vm.q(t + 1, k): 1.0, vm.r(t, k): dt}
            rhs = dt * float(w_row[k])
            if t == 0:
                rhs += float(q0[i])
            else:
                coeffs[vm.q(t, k)] = -1.0
            eq.add(coeffs, rhs)

            # flow below both demand pieces, the cap, and (except at the
            # exit) both supply pieces of the next cell
            dem_slope = model.beta_bar[i] * model.v_free[i]
            if t == 0:
                ub.add({vm.phi(t, k): 1.0}, dem_slope * float(rho0[i]))
            else:
                ub.add({vm.phi(t, k): 1.0, vm.rho(t, k): -dem_slope}, 0.0)
            ub.add({vm.phi(t, k): 1.0}, dem_slope * model.rho_crit[i])
            ub.add({vm.phi(t, k): 1.0}, float(model.capacity[i]))
            if k < n:
                wb = model.w_back[i + 1]
                if t == 0:
                    ub.add({vm.phi(t, k): 1.0},
                           wb * float(model.rho_jam[i + 1] - rho0[i + 1]))
                else:
                    ub.add({vm.phi(t, k): 1.0, vm.rho(t, k + 1): wb},
                           wb * float(model.rho_jam[i + 1]))
                ub.add({vm.phi(t, k): 1.0},
                       wb * float(model.rho_jam[i + 1] - model.rho_crit[i + 1]))

    bounds: list[tuple[float, float | None]] = [(0.0, None)] * vm.size
    for t in range(T):
        for k in range(1, n + 1):
            bounds[vm.r(t, k)] = (0.0, float(model.ramp_flow_max[k - 1]))
            bounds[vm.q(t + 1, k)] = (0.0, float(model.queue_max[k - 1]))

    return LpInstance(model=model, demand=demand, initial=initial, varmap=vm,
                      c=c, a_eq=eq.matrix(vm.size),
                      b_eq=np.asarray(eq.rhs),
                      a_ub=ub.matrix(vm.size), b_ub=np.asarray(ub.rhs),
                      bounds=bounds, objective_constant=constant)


@dataclass
class LpSolution:
    objective: float          # total time spent, t = 0 state included
    rho: np.ndarray           # (T+1, n)
    q: np.ndarray             # (T+1, n)
    flows: np.ndarray         # (T, n+1)
    rates: np.ndarray         # (T, n)
    residual_eq: float
    residual_ub: float
    x: np.ndarray = field(repr=False)


def solve_lp(inst: LpInstance, residual_tol: float = 1e-7) -> LpSolution:
    res = linprog(inst.c, A_ub=inst.a_ub, b_ub=inst.b_ub,
                  A_eq=inst.a_eq, b_eq=inst.b_eq, bounds=inst.bounds,
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    if not res.success:
        raise LpError(f"solver failed: {res.message}")
    x = res.x
    scale_eq = np.maximum(1.0, np.abs(inst.b_eq))
    residual_eq = float(np.max(np.abs(inst.a_eq @ x - inst.b_eq) / scale_eq)) \
        if inst.b_eq.size else 0.0
    scale_ub = np.maximum(1.0, np.abs(inst.b_ub))
    residual_ub = float(np.max((inst.a_ub @ x - inst.b_ub) / scale_ub)) \
        if inst.b_ub.size else 0.0
    if residual_eq > residual_tol or residual_ub > residual_tol:
        raise LpError(
            f"solution violates rows: eq {residual_eq:g}, ub {residual_ub:g}")

    vm = inst.varmap
    n, T = vm.n, vm.horizon
    rho = np.empty((T + 1, n))
    qs = np.empty((T + 1, n))
    rho[0], qs[0] = inst.initial.rho, inst.initial.q
    flows = np.empty((T, n + 1))
    rates = np.empty((T, n))
    for t in range(T):
        flows[t] = [x[vm.phi(t, k)] for k in range(n + 1)]
        rates[t] = [x[vm.r(t, k)] for k in range(1, n + 1)]
        rho[t + 1] = [x[vm.rho(t + 1, k)] for k in range(1, n + 1)]
        qs[t + 1] = [x[vm.q(t + 1, k)] for k in range(1, n + 1)]
    return LpSolution(objective=float(res.fun) + inst.objective_constant,
                      rho=rho, q=qs, flows=flows, rates=rates,
                      residual_eq=residual_eq, residual_ub=residual_ub, x=x)


@dataclass(frozen=True)
class RelaxationCertificate:
    exact: bool
    lp_objective: float
    simulated_tts: float
    gap: float                # simulated minus LP, >= -tol when exact
    max_rate_adjustment: float
    failure: str = ""

    def __bool__(self) -> bool:
        return self.exact


def certify_relaxation(inst: LpInstance, sol: LpSolution,
                       tol: float = 1e-6) -> RelaxationCertificate:
    """Replay the LP's rates through the real dynamics.

    For monotone models the replayed run can only shift flows earlier, so
    its total time spent must match the LP objective up to roundoff; a
    match certifies that the relaxation solved the original problem.
    """
    try:
        traj = simulate(inst.model, inst.demand,
                        controller=RateSchedule(sol.rates),
                        initial_state=inst.initial)
    except Exception as e:  # replay left the state boxes
        return RelaxationCertificate(
            exact=False, lp_objective=sol.objective, simulated_tts=np.nan,
            gap=np.nan, max_rate_adjustment=np.nan, failure=str(e))
    tts = evaluate_metrics(inst.model, traj).tts
    adjust = float(np.max(np.abs(traj.rates - sol.rates))) if sol.rates.size \
        else 0.0
    gap = tts - sol.objective
    exact = abs(gap) <= tol * max(1.0, sol.objective)
    return RelaxationCertificate(exact=exact, lp_objective=sol.objective,
                                 simulated_tts=tts, gap=gap,
                                 max_rate_adjustment=adjust)


def export_lp_text(inst: LpInstance) -> str:
    """Render the instance in CPLEX LP text form (for external solvers)."""
    vm = inst.varmap
    names = np.empty(vm.size, dtype=object)
    for t in range(vm.horizon):
        for k in range(vm.n + 1):
            names[vm.phi(t, k)] = f"phi_{t}_{k}"
        for k in range(1, vm.n + 1):
            names[vm.r(t, k)] = f"r_{t}_{k}"
            names[vm.rho(t + 1, k)] = f"rho_{t + 1}_{k}"
            names[vm.q(t + 1, k)] = f"q_{t + 1}_{k}"

    def terms(row: sparse.csr_matrix) -> str:
        parts = []
        for col, val in zip(row.indices, row.data):
            sign = "-" if val < 0 else "+"
            parts.append(f"{sign} {abs(val):.12g} {names[col]}")
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else joined

    out = ["Minimize", " obj: " + terms(sparse.csr_matrix(inst.c)),
           "Subject To"]
    for i in range(inst.a_eq.shape[0]):
        out.append(f" e{i}: {terms(inst.a_eq.getrow(i))} = {inst.b_eq[i]:.12g}")
    for i in range(inst.a_ub.shape[0]):
        out.append(f" u{i}: {terms(inst.a_ub.getrow(i))} <= {inst.b_ub[i]:.12g}")
    out.append("Bounds")
    for j, (lo, hi) in enumerate(inst.bounds):
        if hi is None:
            out.append(f" {lo:.12g} <= {names[j]}")
        else:
            out.append(f" {lo:.12g} <= {names[j]} <= {hi:.12g}")
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# tiny exhaustive oracles

def _rate_grid(model: FreewayModel, state: SimState, w_row: np.ndarray,
               points: int) -> list[np.ndarray]:
    """Cartesian grid over each ramp's current feasible rate interval."""
    axes = []
    for k in range(1, model.n + 1):
        lo, hi = feasible_rate_interval(model, k, float(state.q[k - 1]),
                                        float(w_row[k]))
        axes.append(np.linspace(lo, hi, points) if hi > lo else np.array([lo]))
    grids = np.meshgrid(*axes, indexing="ij")
    return [np.array(v) for v in zip(*(g.ravel() for g in grids))]


def brute_force_min_tts(model: FreewayModel, demand: DemandProfile,
                        initial_state: SimState | None = None,
                        points: int = 5,
                        node_limit: int = 200_000) -> tuple[float, np.ndarray]:
    """Exhaustive search over gridded rate choices; tiny instances only.

    The grid always contains both interval endpoints, so problems whose
    optimum saturates a bound are solved exactly.
    """
    T = demand.horizon
    # cells whose ramp can ever admit more than one feasible rate
    branching = int(np.sum((model.ramp_flow_max > 0) | (model.queue_max > 0)))
    if (points ** branching) ** T > node_limit:
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
    adversaries for checking that claim.
    """
    from .simulator import compute_flows

    best = None
    for r in _rate_grid(model, state, w_row, points):
        nxt, _ = step(model, state, r, w_row)
        f = compute_flows(model, nxt, w0_next)
        best = f if best is None else np.maximum(best, f)
    if best is None:
        raise LpError("no feasible rate choice at this state")
    return best
