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

The solve starts from the greedy law's run. The paper's point is that
greedy metering is optimal, or nearly so, on monotone models, so its
trajectory sits at or next to an optimal vertex. Its active set, turned
into a simplex basis, has row duals whose weak-duality bound proves the
greedy point optimal where it is; elsewhere the basis leaves HiGHS few
pivots to make.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

from .controllers import make_controller
from .model import FreewayModel, require_monotone
from .simulator import (
    ContractViolationError,
    DemandProfile,
    RateSchedule,
    SimState,
    Trajectory,
    _check_initial,
    evaluate_metrics,
    simulate,
)


class LpError(RuntimeError):
    """Solver failure or an unexpectedly violated row."""


@dataclass(frozen=True)
class VarMap:
    """Column layout: per step t, [phi_0..phi_n, r_1..r_n, rho_1..rho_n,
    q_1..q_n], with states indexed by the step that produces them.

    The index methods take ints or broadcasting integer arrays."""

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

    def split(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views (phi, r, rho, q) of a length-``size`` vector, shaped (T,
        n+1), (T, n), (T, n) and (T, n); row t of rho and q is time t+1."""
        n = self.n
        xs = x.reshape(self.horizon, self.block)
        return (xs[:, :n + 1], xs[:, n + 1:2 * n + 1],
                xs[:, 2 * n + 1:3 * n + 1], xs[:, 3 * n + 1:])

    @property
    def rows(self) -> tuple[int, int]:
        """Counts of the equality and of the hypograph rows."""
        return self.horizon * (2 * self.n + 1), self.horizon * (2 * self.n - 1)

    def eq(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views (inflow, density, queue) of a vector over the equality
        rows, shaped (T,), (T, n) and (T, n): per step t the inflow row,
        then cell by cell the balance of rho(t+1, k) and of q(t+1, k)."""
        vs = v.reshape(self.horizon, 2 * self.n + 1)
        return vs[:, 0], vs[:, 1::2], vs[:, 2::2]

    def ub(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views (demand, supply) of a vector over the hypograph rows,
        shaped (T, n) and (T, n-1): per step t, cell by cell, the row that
        puts phi(t, k) below cell k's demand, then (but for cell n) the one
        that puts it below cell k+1's supply."""
        vs = v.reshape(self.horizon, 2 * self.n - 1)
        return vs[:, 0::2], vs[:, 1::2]


@dataclass(frozen=True, eq=False)
class Csr:
    """A sparse matrix in compressed-row form, with the four fields a scipy
    ``csr_matrix`` has: row ``i``'s columns are ``indices[indptr[i]:
    indptr[i + 1]]``, sorted, and its values the same slice of ``data``.
    ``sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)``
    turns a record into one."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def rows(self) -> np.ndarray:
        """Each stored entry's row, built once for every product."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))


def _csr(triplets, shape: tuple[int, int]) -> Csr:
    """CSR matrix from (rows, cols, values) triplets that broadcast
    together and name each entry once; within each row the columns come
    out sorted, and the index arrays are int32, as in scipy."""
    parts = [np.broadcast_arrays(rows, cols, np.asarray(vals, dtype=float))
             for rows, cols, vals in triplets]
    rows, cols, vals = (np.concatenate([p[i].ravel() for p in parts])
                        for i in range(3))
    # one key per entry; each triplet's entries already come in key order,
    # so the stable sort only merges those runs
    order = np.argsort(rows * shape[1] + cols, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return Csr(indptr, cols[order].astype(np.int32), vals[order], shape)


def _matvec(a: Csr, x: np.ndarray) -> np.ndarray:
    """``a @ x``, each row summed from 0 in its stored column order, as
    scipy's CSR product sums it, so the two agree bit for bit. Without
    entries ``bincount`` counts in ints, hence the cast."""
    return np.bincount(a.rows, a.data * np.take(x, a.indices),
                       minlength=a.shape[0]).astype(float, copy=False)


def _rmatvec(a: Csr, y: np.ndarray) -> np.ndarray:
    """``a.T @ y``."""
    return np.bincount(a.indices, a.data * np.take(y, a.rows),
                       minlength=a.shape[1]).astype(float, copy=False)


@dataclass(eq=False)
class LpInstance:
    model: FreewayModel
    demand: DemandProfile
    initial: SimState
    varmap: VarMap
    c: np.ndarray
    a_eq: Csr
    b_eq: np.ndarray
    a_ub: Csr
    b_ub: np.ndarray
    lb: np.ndarray            # column bounds; ub is inf for free columns
    ub: np.ndarray
    objective_constant: float  # time already spent in the frozen t = 0 state

    def __post_init__(self):
        """A scipy CSR matrix, also one given by ``replace``, becomes a Csr."""
        for name in ("a_eq", "a_ub"):
            a = getattr(self, name)
            if not isinstance(a, Csr):
                setattr(self, name, Csr(a.indptr, a.indices, a.data, a.shape))


def build_lp(model: FreewayModel, demand: DemandProfile,
             initial_state: SimState | None = None) -> LpInstance:
    """Assemble the hypograph relaxation of the min-time metering problem.

    An initial state outside [0, rho_jam] x [0, queue_max] is refused, and
    one outside by rounding only is moved onto the boxes, as in
    :func:`simulate`."""
    require_monotone(model)
    demand.check_against(model)
    initial = SimState(*_check_initial(model, initial_state))

    n, T, dt = model.n, demand.horizon, model.dt
    vm = VarMap(n=n, horizon=T)
    rho0, q0 = initial.rho, initial.q

    c = np.zeros(vm.size)
    _, _, c_rho, c_q = vm.split(c)
    c_rho[:] = dt * model.length
    c_q[:] = dt
    constant = dt * float(model.length @ rho0 + np.sum(q0))

    # Rows are numbered step by step; within a step, cell by cell. States
    # at t = 0 are data, so those rows carry them in the right-hand side.
    steps = np.arange(T)
    t = steps[:, None]
    k = np.arange(1, n + 1)
    phi = vm.phi(t, k)
    m_eq, m_ub = vm.rows

    # per step: inflow, then per cell density balance
    # rho(t+1) - rho(t) = dt/l * (in + ramp - out/bb) and queue balance
    # q(t+1) - q(t) = dt * (w - r)
    row_in, row_rho, row_q = vm.eq(np.arange(m_eq))
    a_eq = _csr([
        (row_in, vm.phi(steps, 0), 1.0),
        (row_rho, vm.rho(t + 1, k), 1.0),
        (row_rho, vm.phi(t, k - 1), -dt / model.length),
        (row_rho, vm.r(t, k), -dt / model.length),
        (row_rho, phi, dt / (model.length * model.beta_bar)),
        (row_rho[1:], vm.rho(t[1:], k), -1.0),
        (row_q, vm.q(t + 1, k), 1.0),
        (row_q, vm.r(t, k), dt),
        (row_q[1:], vm.q(t[1:], k), -1.0),
    ], (m_eq, vm.size))
    b_eq = np.zeros(m_eq)
    b_in, b_rho, b_q = vm.eq(b_eq)
    b_in[:] = demand.w0
    b_rho[0] += rho0
    b_q[:] = dt * demand.w_ramp
    b_q[0] += q0

    # per step and cell, the flow phi(t, k) lies below the demand slope and
    # (except at the exit) the next cell's supply slope
    row_dem, row_sup = vm.ub(np.arange(m_ub))
    dem_slope = model.beta_bar * model.v_free
    wb = model.w_back[1:]
    a_ub = _csr([(row_dem, phi, 1.0),
                 (row_sup, phi[:, :-1], 1.0),
                 (row_dem[1:], vm.rho(t[1:], k), -dem_slope),
                 (row_sup[1:], vm.rho(t[1:], k[1:]), wb)],
                (m_ub, vm.size))
    b_ub = np.zeros(m_ub)
    b_dem, b_sup = vm.ub(b_ub)
    b_dem[0] = dem_slope * rho0
    b_sup[:] = wb * model.rho_jam[1:]
    b_sup[0] = wb * (model.rho_jam[1:] - rho0[1:])

    # the constant pieces, demand plateau, cap and the next cell's supply
    # plateau, bound each flow column
    phi_max = np.minimum(dem_slope * model.rho_crit, model.capacity)
    phi_max[:-1] = np.minimum(
        phi_max[:-1], wb * (model.rho_jam[1:] - model.rho_crit[1:]))
    ub = np.full(vm.size, np.inf)
    ub_phi, ub_r, _, ub_q = vm.split(ub)
    ub_phi[:, 1:] = phi_max
    ub_r[:] = model.ramp_flow_max
    ub_q[:] = model.queue_max

    return LpInstance(model=model, demand=demand, initial=initial, varmap=vm,
                      c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                      lb=np.zeros(vm.size), ub=ub,
                      objective_constant=constant)


@dataclass(eq=False)
class LpSolution:
    """An optimal point and how it was found.

    ``solve_lp`` answers on one of two paths. On the certified path the
    answer is the greedy point, proved optimal by the weak-duality bound
    ``dual_bound`` (finite, within ``_CERTIFY_TOL`` of ``objective``), and
    HiGHS never runs: ``status`` is "Optimal", ``iterations`` 0 and
    ``warm`` true, as HiGHS reports a warm start that is already optimal.
    That answer also keeps, in ``_run``, the instance it was solved on and
    the greedy run its point came from, which :func:`certify_relaxation`
    evaluates in place of a replay. On HiGHS's path ``dual_bound`` is NaN,
    ``_run`` is None and the other three are HiGHS's record."""

    objective: float          # total time spent, t = 0 state included
    rho: np.ndarray           # (T+1, n)
    q: np.ndarray             # (T+1, n)
    flows: np.ndarray         # (T, n+1)
    rates: np.ndarray         # (T, n)
    residual_eq: float
    residual_ub: float
    status: str               # HiGHS model status, "Optimal" once solved
    iterations: int           # simplex iterations
    warm: bool                # solved from the greedy basis
    dual_bound: float         # the bound that proved the greedy point optimal
    x: np.ndarray = field(repr=False)
    _run: tuple[LpInstance, Trajectory] | None = field(
        default=None, repr=False)


#: Devex dual pricing, because the default dual steepest edge pays for
#: initial edge weights on any start that is not all slack.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-9,
                  "dual_feasibility_tolerance": 1e-9, "output_flag": False,
                  "simplex_dual_edge_weight_strategy": 1}

# HighsBasisStatus codes, and the relative gap below which a bound or a
# hypograph row counts as tight at the greedy point
_LOWER, _BASIC, _UPPER = 0, 1, 2
_TIGHT = 1e-9

#: largest relative row violation a solution may carry
_RESIDUAL_TOL = 1e-7
#: largest relative gap between a replay and the LP objective that
#: certifies the relaxation exact, and by which a solution may lie above
#: the greedy point's objective
_CERTIFY_TOL = 1e-6

#: the full name of HiGHS's bindings in scipy, and the first scipy that
#: ships them, the floor pyproject.toml declares
_CORE = "scipy.optimize._highspy._core"
_SCIPY_FLOOR = "1.15"


def _highs_bindings():
    """HiGHS's own python bindings as scipy ships them; ``ImportError`` on a
    scipy too old to have them or where their import is blocked.

    Importing them through their package runs all of
    ``scipy/optimize/__init__.py`` for the one module the solve calls, so
    the extension is loaded from its file. It is registered under its full
    name once it has loaded, and a later ``import scipy.optimize`` reuses
    it. A file that fails to load raises, and nothing is registered."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    import scipy
    # a None entry marks a blocked import
    found = None if _CORE in sys.modules else PathFinder.find_spec(
        "_core", [os.path.join(os.path.dirname(scipy.__file__), "optimize",
                               "_highspy")])
    if found is None:
        raise ImportError(
            f"the LP solve needs HiGHS's bindings, which ship with "
            f"scipy>={_SCIPY_FLOOR}; scipy {scipy.__version__} has none, or "
            f"their import is blocked", name=_CORE)
    spec = spec_from_file_location(
        _CORE, found.origin, loader=ExtensionFileLoader(_CORE, found.origin))
    core = module_from_spec(spec)
    spec.loader.exec_module(core)
    sys.modules[_CORE] = core
    return core


def solve_lp(inst: LpInstance) -> LpSolution:
    """Solve the instance: prove the greedy point optimal, or else solve it
    with HiGHS, warm-started from the greedy run.

    The greedy point bounds the optimum where it meets the instance's rows
    and column bounds, as on every ``build_lp`` instance; an instance
    edited to cut it off starts cold, without that bound. Where it meets
    them, the row duals of its basis give a weak-duality lower bound
    (:func:`_dual_bound`), and a bound within ``_CERTIFY_TOL`` of the
    greedy objective proves the greedy point optimal: it is the answer,
    and HiGHS is neither loaded nor run. Otherwise HiGHS solves from that
    basis. HiGHS can call a point optimal that misses a row by more than
    ``_RESIDUAL_TOL`` or lies above the greedy point, so a warm answer that
    fails a check is solved again, once, cold. Both reach the same optimal
    value; on a degenerate LP they may return different optimal plans. An
    answer that still fails a check raises ``LpError``: a non-finite
    objective or point (HiGHS calls a NaN cost optimal), a NaN or too
    large residual, or an objective above the greedy point's. A scipy
    without HiGHS's bindings raises ``ImportError`` once HiGHS is needed.
    :class:`LpSolution` says which path answered.
    """
    point, point_residuals, run = _greedy_point(inst) or (None,) * 3
    # a numpy sum, not a BLAS dot, as in _dual_bound
    greedy = np.inf if point is None \
        else float(np.sum(inst.c * point)) + inst.objective_constant
    basis = None if point is None else _greedy_basis(inst, point)
    if basis is not None:
        bound = _dual_bound(inst, basis[2])
        if greedy - bound <= _CERTIFY_TOL * max(1.0, abs(greedy)):
            return _solution(inst, point, greedy, point_residuals,
                             "Optimal", 0, True, bound, (inst, run))
    for start in (None,) if basis is None else (basis[:2], None):
        x, fun, status, iterations = _solve_highs(inst, start)
        residuals = _residuals(inst, x)
        fault = _fault(fun + inst.objective_constant, x, residuals, greedy)
        if not fault:
            break
    else:
        raise LpError(fault)
    return _solution(inst, x, fun + inst.objective_constant, residuals,
                     status, iterations, start is not None, np.nan)


def _solution(inst: LpInstance, x: np.ndarray, objective: float,
              residuals: tuple[float, float], status: str, iterations: int,
              warm: bool, dual_bound: float,
              run: tuple[LpInstance, Trajectory] | None = None) -> LpSolution:
    flows, rates, rho, qs = inst.varmap.split(x)
    return LpSolution(objective=objective,
                      rho=np.vstack((inst.initial.rho, rho)),
                      q=np.vstack((inst.initial.q, qs)),
                      flows=flows.copy(), rates=rates.copy(),
                      residual_eq=residuals[0], residual_ub=residuals[1],
                      status=status, iterations=iterations, warm=warm,
                      dual_bound=dual_bound, x=x, _run=run)


def _greedy_point(
        inst: LpInstance,
        ) -> tuple[np.ndarray, tuple[float, float], Trajectory] | None:
    """The greedy run's point in the column layout, which bounds the
    optimum, its residuals and the run itself; None when that run leaves
    the state boxes, or when the point misses a row or a column bound of
    this instance, as it may once the instance's arrays are edited after
    ``build_lp``."""
    try:
        greedy = simulate(
            inst.model, inst.demand,
            controller=make_controller("best_effort", inst.model),
            initial_state=inst.initial)
    except ContractViolationError:
        return None
    x = np.empty(inst.varmap.size)
    for part, run in zip(inst.varmap.split(x), (
            greedy.flows, greedy.rates, greedy.rho[1:], greedy.q[1:])):
        part[:] = run
    residuals = _residuals(inst, x)
    gap = _RESIDUAL_TOL * np.maximum(1.0, np.abs(x))
    if max(residuals) > _RESIDUAL_TOL or not np.all(
            (inst.lb - gap <= x) & (x <= inst.ub + gap)):
        return None
    return x, residuals, greedy


def _fault(objective: float, x: np.ndarray, residuals: tuple[float, float],
           greedy: float) -> str:
    """Why a solution is refused, or "" when it is not."""
    residual_eq, residual_ub = residuals
    if not (np.isfinite(objective) and np.isfinite(x).all()):
        return f"non-finite solution: objective {objective:g}"
    if not (residual_eq <= _RESIDUAL_TOL and residual_ub <= _RESIDUAL_TOL):
        return (f"solution violates rows: eq {residual_eq:g}, "
                f"ub {residual_ub:g}")
    if objective > greedy + _CERTIFY_TOL * max(1.0, abs(greedy)):
        return (f"solution {objective:.12g} lies above the greedy point's "
                f"{greedy:.12g}")
    return ""


def _residuals(inst: LpInstance, x: np.ndarray) -> tuple[float, float]:
    """Largest relative violation of the equality and of the inequality
    rows."""
    scale_eq = np.maximum(1.0, np.abs(inst.b_eq))
    residual_eq = float(np.max(
        np.abs(_matvec(inst.a_eq, x) - inst.b_eq) / scale_eq)) \
        if inst.b_eq.size else 0.0
    scale_ub = np.maximum(1.0, np.abs(inst.b_ub))
    residual_ub = float(np.max(
        (_matvec(inst.a_ub, x) - inst.b_ub) / scale_ub)) \
        if inst.b_ub.size else 0.0
    return residual_eq, residual_ub


def _solve_highs(inst: LpInstance,
                 basis: tuple[np.ndarray, np.ndarray] | None,
                 ) -> tuple[np.ndarray, float, str, int]:
    """Solve through HiGHS's bindings, from ``basis`` (column and row
    statuses) or, given None, cold. The model goes over as arrays, through
    the ``passModel`` overload that takes the matrix, here the equality
    rows stacked over the inequality rows, row-wise; its integrality array
    must hold one 0 per column, as an empty one is refused."""
    core = _highs_bindings()
    a_eq, a_ub = inst.a_eq, inst.a_ub
    indptr = np.concatenate((a_eq.indptr, a_ub.indptr[1:] + a_eq.indptr[-1]))
    indices = np.concatenate((a_eq.indices, a_ub.indices))
    data = np.concatenate((a_eq.data, a_ub.data))
    rows, cols = indptr.size - 1, inst.varmap.size
    highs = core._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    if highs.passModel(
            cols, rows, int(indptr[-1]), int(core.MatrixFormat.kRowwise),
            int(core.ObjSense.kMinimize), 0.0, inst.c, inst.lb, inst.ub,
            np.concatenate((inst.b_eq, np.full(inst.b_ub.size, -np.inf))),
            np.concatenate((inst.b_eq, inst.b_ub)),
            indptr, indices, data,
            np.zeros(cols, dtype=np.int32)) == core.HighsStatus.kError:
        raise LpError("HiGHS refused the model")
    if basis is not None:
        kinds = [core.HighsBasisStatus(i) for i in (_LOWER, _BASIC, _UPPER)]
        start = core.HighsBasis()
        start.col_status, start.row_status = (
            [kinds[i] for i in s.tolist()] for s in basis)
        start.valid = True
        # a basis with one basic per row goes in as it is; HiGHS refuses
        # any other (kError), and its alien hand-off repairs that one
        start.alien = False
        if highs.setBasis(start) == core.HighsStatus.kError:
            start.alien = True
            if highs.setBasis(start) == core.HighsStatus.kError:
                raise LpError("HiGHS refused the greedy basis")
    highs.run()
    model_status = highs.getModelStatus()
    status = highs.modelStatusToString(model_status)
    if model_status != core.HighsModelStatus.kOptimal:
        raise LpError(f"solver failed: {status}")
    info = highs.getInfo()
    return (np.array(highs.getSolution().col_value),
            info.objective_function_value, status,
            info.simplex_iteration_count)


def _greedy_basis(inst: LpInstance, x: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """HiGHS column and row statuses of a basis at the greedy point ``x``,
    and that basis's row duals; None when
    the rows are not ``build_lp``'s layout, and the solve starts cold.

    Each equality row owns one basic: the inflow row phi(t, 0), the
    density row rho(t+1, k), and the queue row q(t+1, k), or r(t, k) when
    only the rate is interior. A flow phi(t, k) and its one or two
    hypograph rows keep as many basics as they have rows: phi is basic and
    a tight row nonbasic or, with no row tight, phi is nonbasic at its
    column bound. An interior rate with an interior queue is one basic too
    many. When cell k sits at critical density and its next outflow
    phi(t+1, k) meets both its demand row and its column cap, the pair
    takes that flow's slot and the flow goes nonbasic at its cap.
    Otherwise the queue goes nonbasic at its nearer bound and HiGHS
    absorbs the shift.

    The duals ``y`` are in HiGHS's row order and signs (an inequality
    row's dual is <= 0 where the basis is dual feasible) and zero the
    reduced cost ``c_j - a_j . y`` of every basic column. Every density
    column is basic, so one backward pass over the steps, vectorized over
    cells, solves for them. With lam, mu and pi the density, queue and
    inflow rows' duals, and dem and sup the demand and supply rows':
    - rho(t+1, k) gives lam(t, k) = c + lam(t+1, k) + slope_k dem(t+1, k)
      - w_k sup(t+1, k-1);
    - mu(t, k) comes from r(t, k) where the rate is basic, else from
      q(t+1, k): mu(t, k) = c + mu(t+1, k);
    - a basic flow phi(t, k) puts its reduced cost at zero duals on the
      hypograph row the basis leaves nonbasic; the other row's dual is 0;
    - where the pair takes the slot of phi(t+1, k), r(t, k) and q(t+1, k)
      fix lam(t, k), and the nonbasic demand row of phi(t+1, k) takes the
      rest of rho's cost;
    - phi(t, 0) gives pi(t).

    The pass writes each step's duals straight into their views of ``y``,
    which starts at zero; mu's rate entries and the demand and supply
    duals, 0 off their masks, are copied in where the masks hold.
    """
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

    # the hypograph rows tight at x, as (T, n) masks, with slack against
    # |a| . |x| (the terms of a . x up to sign); cell n has no supply row
    a = inst.a_ub
    terms = a.data * np.take(x, a.indices)
    slack = inst.b_ub - np.bincount(a.rows, terms, minlength=a.shape[0])
    scale = np.bincount(a.rows, np.abs(terms), minlength=a.shape[0])
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
    taken = take.any(axis=1).tolist()
    lam_next = mu_next = np.zeros(n)
    for t in range(T - 1, -1, -1):
        lam_t, mu_t = lam[t], mu[t]
        np.add(cost_rho[t], lam_next, out=lam_t)
        if t + 1 < T:
            lam_t += slope * dem[t + 1]
            lam_t[1:] -= wb * sup[t + 1]
            if taken[t]:
                k = take[t]
                held = (dt * (cost_q[t, k] + mu_next[k]) - cost_r[t, k]) \
                    / inflow[k]
                dem[t + 1, k] = (held - lam_t[k]) / slope[k]
                lam_t[k] = held
        np.add(cost_q[t], mu_next, out=mu_t)
        np.copyto(mu_t, (cost_r[t] + inflow * lam_t) / dt, where=r_free[t])
        g = cost_phi[t, 1:] - outflow * lam_t
        g[:-1] += inflow[1:] * lam_t[1:]
        np.copyto(dem[t], g, where=dem_on[t])
        np.copyto(sup[t], g[:-1], where=sup_out[t, :-1])
        lam_next, mu_next = lam_t, mu_t
    pi[:] = cost_phi[:, 0] + inflow[0] * lam[:, 0]
    return col, rows, y


def _dual_bound(inst: LpInstance, y: np.ndarray) -> float:
    """The Lagrangian lower bound on the instance's optimum at the row
    duals ``y`` (HiGHS's row order, equality rows first): ``b . y +
    sum_j min(d_j lb_j, d_j ub_j)`` with ``d = c - A^T y``, plus the
    objective constant.

    It holds for any ``y`` by weak duality, once the inequality duals are
    clipped to HiGHS's sign (<= 0), and with the column bounds of
    :func:`_implied_ub` in place of ``ub``; a column with a reduced cost
    of the wrong sign and no finite bound makes it -inf, and a NaN makes it
    NaN. Its dot products are numpy sums: an OpenBLAS dot this long wakes
    the library's threads, about 7 ms a call on a 2-core host when they
    are not pinned to one."""
    m = inst.b_eq.size
    y_eq, y_ub = y[:m], np.minimum(y[m:], 0.0)
    d = inst.c - _rmatvec(inst.a_eq, y_eq) - _rmatvec(inst.a_ub, y_ub)
    with np.errstate(invalid="ignore"):
        low = np.minimum(d * inst.lb, d * _implied_ub(inst))
    low[d == 0.0] = 0.0
    return float(np.sum(inst.b_eq * y_eq) + np.sum(inst.b_ub * y_ub)
                 + np.sum(low)) + inst.objective_constant


def _implied_ub(inst: LpInstance) -> np.ndarray:
    """``ub`` with a finite bound, implied by the instance's own rows, on
    each column ``build_lp`` leaves unbounded above; rounding leaves some
    of their reduced costs slightly negative at the greedy duals.

    - phi(t, 0) equals its inflow row's right-hand side.
    - rho(t, k) <= b / w_k for k >= 2 and t < T, from the supply row
      phi(t, k-1) + w_k rho(t, k) <= b with phi >= 0.
    - l_k rho(t, k) is at most the cars that ever enter: the density rows
      times l and the queue rows, summed over the steps before t, put
      l . rho(t) + sum q(t) (all >= 0) below the cars that entered, the
      inflow rows' dt w0 plus the right-hand sides, less the cars that
      left (>= 0, as beta_bar <= 1).

    The right-hand sides come from ``b_eq`` and ``b_ub``, and the
    coefficients are those of ``build_lp``'s rows, whose layout
    :func:`_greedy_basis` checks. The last two need every lower bound at 0
    or above, as ``build_lp`` sets them, and are left out otherwise.
    """
    model, vm = inst.model, inst.varmap
    hi = inst.ub.copy()
    hi_phi, _, hi_rho, _ = vm.split(hi)
    b_in, b_rho, b_q = vm.eq(inst.b_eq)
    np.minimum(hi_phi[:, 0], b_in, out=hi_phi[:, 0])
    if np.all(inst.lb >= 0.0):
        cars = (np.sum(np.maximum(0.0, model.dt * b_in))
                + np.sum(np.maximum(0.0, model.length * b_rho))
                + np.sum(np.maximum(0.0, b_q)))
        np.minimum(hi_rho, cars / model.length, out=hi_rho)
        b_sup = vm.ub(inst.b_ub)[1][1:]   # bounds rho(t, 2..n)
        np.minimum(hi_rho[:-1, 1:], b_sup / model.w_back[1:],
                   out=hi_rho[:-1, 1:])
    return hi


@dataclass(frozen=True)
class RelaxationCertificate:
    exact: bool
    lp_objective: float
    simulated_tts: float
    gap: float                # simulated minus LP, ~0 when exact
    max_rate_adjustment: float
    failure: str = ""

    def __bool__(self) -> bool:
        return self.exact


def certify_relaxation(inst: LpInstance,
                       sol: LpSolution) -> RelaxationCertificate:
    """Replay the LP's rates through the real dynamics.

    For monotone models the replayed run can only shift flows earlier, so
    its total time spent must match the LP objective up to roundoff; a
    match certifies that the relaxation solved the original problem. A
    replay that leaves the state boxes is a failed certificate; any other
    error propagates.

    A solution :func:`solve_lp` proved optimal holds the greedy run its
    point came from. Certified against the instance it was solved on, with
    ``rates`` still equal to that run's, the run is the replay, bit for
    bit, and is evaluated without simulating again: the replay feeds each
    applied rate back through the same clamp, and a clip returns its own
    output unchanged, even on an interval empty by rounding. Every other
    solution (HiGHS's, or one whose instance or rates differ) is replayed.
    """
    kept = sol._run
    if kept is not None and kept[0] is inst \
            and np.array_equal(kept[1].rates, sol.rates):
        traj = kept[1]
    else:
        try:
            traj = simulate(inst.model, inst.demand,
                            controller=RateSchedule(sol.rates),
                            initial_state=inst.initial)
        except ContractViolationError as e:  # replay left the state boxes
            return RelaxationCertificate(
                exact=False, lp_objective=sol.objective, simulated_tts=np.nan,
                gap=np.nan, max_rate_adjustment=np.nan, failure=str(e))
    tts = evaluate_metrics(inst.model, traj).tts
    adjust = float(np.max(np.abs(traj.rates - sol.rates))) if sol.rates.size \
        else 0.0
    gap = tts - sol.objective
    exact = abs(gap) <= _CERTIFY_TOL * max(1.0, sol.objective)
    return RelaxationCertificate(exact=exact, lp_objective=sol.objective,
                                 simulated_tts=tts, gap=gap,
                                 max_rate_adjustment=adjust)


def _lp_terms(vals: np.ndarray, cols: np.ndarray,
              names: list[str]) -> list[str]:
    """"{sign} {|v|} {name}" per coefficient, formatting each distinct value
    once (0.0 and -0.0 both render as "+ 0")."""
    distinct, which = np.unique(vals, return_inverse=True)
    coef = [f"{'-' if v < 0 else '+'} {abs(v):.12g} "
            for v in distinct.tolist()]
    return [coef[i] + names[j] for i, j in zip(which.tolist(), cols.tolist())]


def _lp_expr(terms: list[str]) -> str:
    joined = " ".join(terms)
    return joined[2:] if joined.startswith("+ ") else joined


def _g12(values: np.ndarray) -> list[str]:
    """``f"{v:.12g}"`` per value, formatting each distinct bit pattern once
    (so -0.0 keeps its sign)."""
    bits, which = np.unique(np.ascontiguousarray(values, dtype=float)
                            .view(np.int64), return_inverse=True)
    text = [f"{v:.12g}" for v in bits.view(float).tolist()]
    return [text[i] for i in which.tolist()]


def _block_names(n: int, step: str, state: str) -> list[str]:
    """Names of one block's columns: the flows and rates of step ``step``,
    the densities and queues at time ``state``."""
    cells = range(1, n + 1)
    return ([f"phi_{step}_{k}" for k in range(n + 1)]
            + [f"r_{step}_{k}" for k in cells]
            + [f"rho_{state}_{k}" for k in cells]
            + [f"q_{state}_{k}" for k in cells])


#: stand-ins in a template for the block numbers b, b + 1 and b + 2, and
#: for the per-row text filled in at render time
_SENTINELS = ("\x00", "\x01", "\x02")
_HOLE = "\x03"


class _StepTemplates:
    """Renderer of LP text in chunks, one step's columns or rows each.

    A chunk whose columns lie in two consecutive blocks b and b + 1 names
    them through the numbers b, b + 1 and b + 2 only. Its text is built
    once per pattern (its columns relative to block b, its values and its
    shape) with sentinels for those numbers, which ``str.replace`` fills
    in for each chunk; every step of ``build_lp`` but the first repeats
    one pattern. Any other chunk is built with concrete names."""

    def __init__(self, vm: VarMap):
        self.vm = vm
        s0, s1, s2 = _SENTINELS
        self.window = _block_names(vm.n, s0, s1) + _block_names(vm.n, s1, s2)

    @cached_property
    def names(self) -> list[str]:
        """Every column's concrete name."""
        return [name for t in range(self.vm.horizon)
                for name in _block_names(self.vm.n, str(t), str(t + 1))]

    def render(self, cols: np.ndarray, vals: np.ndarray, starts: np.ndarray,
               build, shapes: list | None = None,
               holes: list[str] = ()) -> list[str]:
        """Text of each chunk i: the entries ``starts[i]:starts[i + 1]`` of
        ``cols`` and ``vals``, plus ``shapes[i]``. ``build(i, cols, vals,
        names)`` writes chunk i with the names ``names[cols]``, marking each
        place the chunk's next string from ``holes`` goes with ``_HOLE``.
        Templates are shared within one call only, since ``build`` differs
        between calls."""
        block = self.vm.block
        nnz = np.diff(starts)
        # reduceat over starts[-1] too, so the last chunk ends there
        padded = np.append(cols, 0)
        low, high = (f.reduceat(padded, starts)[:-1]
                     for f in (np.minimum, np.maximum))
        first = np.where(nnz > 0, low // block, 0)
        rel = cols - np.repeat(first * block, nnz)
        far = (nnz > 0) & (high >= (first + 2) * block)
        s0, s1, s2 = _SENTINELS
        templates, used, out = {}, 0, []
        for i, (lo, hi, b, concrete) in enumerate(zip(
                starts[:-1].tolist(), starts[1:].tolist(), first.tolist(),
                far.tolist())):
            if concrete:
                pieces = build(i, cols[lo:hi], vals[lo:hi],
                               self.names).split(_HOLE)
            else:
                key = (rel[lo:hi].tobytes(), vals[lo:hi].tobytes(),
                       shapes and shapes[i])
                pieces = templates.get(key)
                if pieces is None:
                    pieces = templates[key] = build(
                        i, rel[lo:hi], vals[lo:hi], self.window).split(_HOLE)
            text = pieces[0]
            if len(pieces) > 1:
                parts = [None] * (2 * len(pieces) - 1)
                parts[::2] = pieces
                parts[1::2] = holes[used:used + len(pieces) - 1]
                used += len(pieces) - 1
                text = "".join(parts)
            if not concrete:
                text = text.replace(s0, str(b)).replace(
                    s1, str(b + 1)).replace(s2, str(b + 2))
            out.append(text)
        return out


def export_lp_text(inst: LpInstance) -> str:
    """Render the instance in CPLEX LP text form (for external solvers).

    The objective and the bounds are rendered one block of columns at a
    time, the rows one step at a time (``horizon`` equal chunks of each
    matrix), each chunk from its pattern's template; only the row numbers
    and the right-hand sides are formatted per row."""
    vm = inst.varmap
    tpl = _StepTemplates(vm)
    edges = np.arange(vm.horizon + 1) * vm.block

    cols = np.flatnonzero(inst.c)
    objective = tpl.render(
        cols, inst.c[cols], np.searchsorted(cols, edges),
        lambda i, cols, vals, names: " ".join(_lp_terms(vals, cols, names)))

    def rows(a: Csr, b: np.ndarray, tag: str, sense: str) -> list[str]:
        m = a.shape[0]
        per = max(1, m // vm.horizon if m % vm.horizon == 0 else m)
        lens = np.diff(a.indptr)
        row_lens = [lens[r:r + per] for r in range(0, m, per)]

        def build(i, cols, vals, names):
            terms = _lp_terms(vals, cols, names)
            ends = np.cumsum(row_lens[i]).tolist()
            return "\n".join(
                f" {tag}{_HOLE}: {_lp_expr(terms[p:q])} {sense} {_HOLE}"
                for p, q in zip([0] + ends, ends))

        holes = [None] * (2 * m)
        holes[::2] = map(str, range(m))
        holes[1::2] = _g12(b)
        return tpl.render(a.indices, a.data, a.indptr[::per], build,
                          [r.tobytes() for r in row_lens], holes)

    def bounds(i, cols, vals, names):
        return "\n".join(f" {lo:.12g} <= {names[j]}" if hi == np.inf
                         else f" {lo:.12g} <= {names[j]} <= {hi:.12g}"
                         for j, (lo, hi) in zip(cols.tolist(), vals.tolist()))

    out = ["Minimize",
           " obj: " + _lp_expr([text for text in objective if text]),
           "Subject To",
           *rows(inst.a_eq, inst.b_eq, "e", "="),
           *rows(inst.a_ub, inst.b_ub, "u", "<="),
           "Bounds",
           *tpl.render(np.arange(vm.size), np.column_stack((inst.lb, inst.ub)),
                       edges, bounds),
           "End"]
    return "\n".join(out) + "\n"
