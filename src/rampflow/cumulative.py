"""Cumulative-flow coordinates and optimality certification.

Instead of densities, track per-boundary cumulative counts:

    phi_cum[k]    cars that have crossed the downstream edge of cell k,
                  rescaled so offramp splits cancel; entry 0 is the
                  mainline inflow count
    inflow_cum[k] cars metered onto the mainline from ramp k
    demand_cum[k] cars that have arrived at ramp k (plus initial queue)

In these coordinates the one-step map is componentwise monotone: more
cumulative flow anywhere can never reduce future cumulative flow. That
turns greedy per-step flow maximization into a global optimality argument
whenever no cell is "restrictive" (throttling traffic while its ramp
queue still has slack in the binding direction). The total time spent is
an affine decreasing function of the cumulative flows, so certified
maximal flows mean certified minimal time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controllers import internal_flows, make_controller
from .model import FreewayModel, require_monotone
from .simulator import (
    _ZERO,
    DemandProfile,
    SimState,
    Trajectory,
    _check_box,
    _check_state,
    _clip,
    evaluate_metrics,
    simulate,
    step,
)

#: cars a probed count may move the wrong way without a report
_PROBE_TOL = 1e-12


@dataclass
class CumulativeState:
    """Snapshot of all cumulative counters at one step. The cars past
    the last cell are ``phi_cum[-1]``."""

    phi_cum: np.ndarray      # (n+1,) boundary counts, entry 0 = mainline inflow
    inflow_cum: np.ndarray   # (n,) metered cars per ramp
    demand_cum: np.ndarray   # (n,) arrived cars per ramp incl. initial queue

    def copy(self) -> "CumulativeState":
        return CumulativeState(self.phi_cum.copy(), self.inflow_cum.copy(),
                               self.demand_cum.copy())


def _phi_from_density(model: FreewayModel, rho: np.ndarray,
                      inflow_cum: np.ndarray,
                      virtual_cars: float) -> np.ndarray:
    """Boundary counts consistent with the given densities and ramp counts.

    phi_cum[k] collects the (offramp-rescaled) cars currently downstream
    of boundary k plus everything that already left, minus cars the ramps
    injected downstream of k.
    """
    B = model.beta_run                    # B[j] = prod of beta_bar_1..j
    core = np.concatenate((model.length * rho - inflow_cum, [virtual_cars]))
    ratios = core / B                     # term j divides by B[j-1], j = 1..n+1
    tails = np.cumsum(ratios[::-1])[::-1]  # tails[k] = sum over j >= k+1
    return B * tails


def cumulative_from_state(model: FreewayModel, state: SimState,
                          inflow_cum: np.ndarray | None = None,
                          virtual_cars: float = 0.0) -> CumulativeState:
    """Lift a plain state into cumulative coordinates.

    With no history given, ramp counters start at zero and arrivals are
    chosen so queues decode correctly (demand_cum = inflow_cum + q).
    ``virtual_cars`` is the count of cars that already left the last cell,
    which becomes ``phi_cum[-1]``. The state is checked and clipped as
    :func:`~rampflow.simulator.step` checks it.
    """
    rho, q = _check_state(model, state.rho, state.q)
    if inflow_cum is None:
        inflow_cum = np.zeros(model.n)
    inflow_cum = np.asarray(inflow_cum, dtype=float)
    phi = _phi_from_density(model, rho, inflow_cum, virtual_cars)
    return CumulativeState(phi_cum=phi, inflow_cum=inflow_cum.copy(),
                           demand_cum=inflow_cum + q)


def _decode(model: FreewayModel, cum: CumulativeState) -> np.ndarray:
    """Densities implied by the counters, unchecked."""
    return (cum.phi_cum[:-1] - cum.phi_cum[1:] / model.beta_bar
            + cum.inflow_cum) / model.length


def reconstruct_densities(model: FreewayModel,
                          cum: CumulativeState) -> np.ndarray:
    """Decode densities, refused outside [0, rho_jam] and clipped onto it
    as the state box of :func:`~rampflow.simulator.step` is."""
    rho = _decode(model, cum)
    _check_box(rho, 0.0, model.rho_jam, model._rho_tol,
               "density outside its box")
    return _clip(rho, _ZERO, model.rho_jam)


def reconstruct_queues(model: FreewayModel, cum: CumulativeState) -> np.ndarray:
    return cum.demand_cum - cum.inflow_cum


def to_cumulative(model: FreewayModel, traj: Trajectory) -> list[CumulativeState]:
    """Cumulative snapshots at every step of a simulated run."""
    dt = model.dt
    T = traj.horizon
    inflow = np.vstack((np.zeros(model.n), dt * np.cumsum(traj.rates, axis=0)))
    demand = traj.q[0] + np.vstack(
        (np.zeros(model.n), dt * np.cumsum(traj.demand.w_ramp[:T], axis=0)))
    phi = np.cumsum(np.vstack((
        _phi_from_density(model, traj.rho[0], inflow[0], 0.0),
        dt * traj.flows)), axis=0)
    return [CumulativeState(*rows) for rows in zip(phi, inflow, demand)]


def cctm_step(model: FreewayModel, cum: CumulativeState,
              rates: np.ndarray, w_row: np.ndarray,
              relaxed: bool = False) -> CumulativeState:
    """Advance the cumulative dynamics one step under the metering ``rates``.

    This is :func:`~rampflow.simulator.step` on the decoded state, so both
    coordinate systems share one contract for the state, the rates
    (``relaxed`` waives the constant rate bounds) and the next densities.
    The counters advance by ``dt`` times the step's flow row, the rates
    and the ramp arrivals ``w``.
    """
    dt = model.dt
    rates = np.asarray(rates, dtype=float)
    w_row = np.asarray(w_row, dtype=float)
    # an unchecked state, so a NaN count meets step's box check
    _, phi = step(model, SimState._of(_decode(model, cum),
                                      reconstruct_queues(model, cum)),
                  rates, w_row, relaxed=relaxed)
    return CumulativeState(phi_cum=cum.phi_cum + dt * phi,
                           inflow_cum=cum.inflow_cum + dt * rates,
                           demand_cum=cum.demand_cum + dt * w_row[1:])


def tts_from_cumulative(model: FreewayModel,
                        states: list[CumulativeState]) -> float:
    """Total time spent, written purely in cumulative coordinates.

    The metered counters cancel between mainline and queue time, leaving
    an affine function that strictly decreases in every boundary count.
    """
    off = model.beta / model.beta_bar
    total = 0.0
    for cum in states:
        total += (cum.phi_cum[0] - cum.phi_cum[-1]
                  + float(np.sum(cum.demand_cum))
                  - float(off @ cum.phi_cum[1:]))
    return model.dt * total


# ---------------------------------------------------------------------------
# monotonicity probes

@dataclass(frozen=True)
class ProbeViolation:
    component: int    # boundary index 0..n
    magnitude: float  # how far the inequality failed, in cars

    def __str__(self) -> str:
        return f"boundary {self.component}: monotonicity off by {self.magnitude:g}"


def monotonicity_probe(model: FreewayModel, base: CumulativeState,
                       perturbed: CumulativeState, w0: float = 0.0,
                       ) -> list[ProbeViolation]:
    """Check the one-step map against a perturbed state.

    Accepts either a flow probe (phi_cum raised somewhere, ramp counters
    equal: every advanced count must not drop) or an input probe (one
    ramp counter moved: its own boundary must move with it, the upstream
    boundary against it). Any reported violation falsifies monotonicity
    of the model, up to ``_PROBE_TOL`` cars.

    Perturbed counters may decode outside the state boxes, as a law's
    measurements may, so the flows come from :func:`internal_flows`,
    which clips them into [0, rho_jam], not from the checked ``step``.
    """
    dphi = perturbed.phi_cum - base.phi_cum
    dR = perturbed.inflow_cum - base.inflow_cum
    flow_probe = np.any(dphi != 0.0)
    input_probe = np.any(dR != 0.0)
    if flow_probe and input_probe:
        raise ValueError("probe must perturb either phi_cum or inflow_cum")
    if flow_probe and np.any(dphi < 0.0):
        raise ValueError("flow probe must not decrease any boundary count")
    if input_probe and np.count_nonzero(dR) != 1:
        raise ValueError("input probe must move exactly one ramp counter")

    phi_b = internal_flows(model, _decode(model, base), w0)
    phi_p = internal_flows(model, _decode(model, perturbed), w0)
    # compare via increments so the large counters cancel exactly
    df = dphi + model.dt * (phi_p - phi_b)

    out: list[ProbeViolation] = []
    if input_probe:
        k = int(np.nonzero(dR)[0][0])          # ramp of cell k+1
        sign = 1.0 if dR[k] > 0 else -1.0
        if sign * df[k + 1] < -_PROBE_TOL:     # own boundary moves along
            out.append(ProbeViolation(k + 1, float(-sign * df[k + 1])))
        if sign * df[k] > _PROBE_TOL:          # upstream moves against
            out.append(ProbeViolation(k, float(sign * df[k])))
        return out
    for j in range(model.n + 1):
        if df[j] < -_PROBE_TOL:
            out.append(ProbeViolation(j, float(-df[j])))
    return out


# ---------------------------------------------------------------------------
# restrictiveness

NONRESTRICTIVE = ""
SUPPLY_LIMITED = "supply_limited_with_space"
DEMAND_LIMITED = "demand_limited_with_queue"
_REASONS = np.array([NONRESTRICTIVE, SUPPLY_LIMITED, DEMAND_LIMITED],
                    dtype=object)


def _reason_codes(model: FreewayModel, rho: np.ndarray, q: np.ndarray,
                  flows: np.ndarray) -> np.ndarray:
    """Index into ``_REASONS`` for every cell of densities and queues
    (..., n) with the flow rows (..., n+1) that leave them.

    A cell is restrictive when its ramp could still trade cars against
    mainline flow: either congestion chokes the upstream flow below its
    cap while the queue has space, or the cell's own demand limits its
    outflow below the cap while a queue is waiting. The first cell is
    never supply limited: the mainline inflow is external.
    """
    cap, q_max = model.capacity, model.queue_max
    eps = 1e-6 * cap
    up, down = flows[..., :-1], flows[..., 1:]
    supply = np.zeros(np.shape(q), dtype=bool)
    supply[..., 1:] = ((q < q_max - model._q_tol)[..., 1:]
                       & (np.abs(up - model.supply(rho))[..., 1:] <= eps[:-1])
                       & (up[..., 1:] < (cap - eps)[:-1]))
    demand = ((q > model._q_tol) & (np.abs(down - model.demand(rho)) <= eps)
              & (down < cap - eps))
    return np.where(supply, 1, np.where(demand, 2, 0))


@dataclass
class RestrictivenessReport:
    reasons: list[list[str]]          # [t][cell-1] classification reason
    restrictive: np.ndarray           # (T, n) bool
    restrictive_fraction: float       # share of (metered cell, step) pairs
    interior_clean: bool              # no restrictive cell for 0 < t < T


def restrictiveness_report(model: FreewayModel,
                           traj: Trajectory) -> RestrictivenessReport:
    """Classify every (step, cell) pair of a single run at once."""
    if traj.rho.ndim != 2:
        raise ValueError("restrictiveness_report takes one run; "
                         "pass traj.run(r) for run r of a batch")
    T = traj.horizon
    codes = _reason_codes(model, traj.rho[:T], traj.q[:T], traj.flows)
    flags = codes != 0
    metered = model.queue_max > 0.0
    pairs = T * int(np.count_nonzero(metered))
    fraction = float(np.count_nonzero(flags[:, metered])) / pairs if pairs else 0.0
    interior_clean = not bool(np.any(flags[1:]))
    return RestrictivenessReport(reasons=_REASONS[codes].tolist(),
                                 restrictive=flags,
                                 restrictive_fraction=fraction,
                                 interior_clean=interior_clean)


# ---------------------------------------------------------------------------
# bounds

@dataclass(frozen=True)
class BoundsReport:
    tts_lb: float
    tts_be: float
    certificate: str          # "optimal" | "bounded"
    gap_abs: float
    gap_rel: float
    restrictive_fraction: float
    greedy: Trajectory = field(repr=False, compare=False)
    restrictiveness: RestrictivenessReport = field(repr=False, compare=False)


def tts_bounds(model: FreewayModel, demand: DemandProfile,
               initial_state: SimState | None = None) -> BoundsReport:
    """Sandwich the minimal total time spent without solving anything.

    The greedy law gives the upper bound; rerunning it with the constant
    rate bounds waived gives a lower bound, because without those bounds
    the law provably maximizes all cumulative flows. When the greedy run
    is nonrestrictive at every interior step it is itself optimal and the
    certificate says so. The greedy run and its restrictiveness report
    come back on the result.

    Both runs are one batch of 2 of the greedy law on ``model`` stacked
    twice, which the law believes too, so it reads the plant's flow row.
    With ``relaxed=(False, True)``, ``simulate`` clamps run 0 into the
    capped interval, so run 0 is exactly the greedy run, and run 1 into
    the queue-box limits alone. Capacity-drop models and steps that break
    the step-size conditions are refused: they are not monotone, so the
    relaxed run proves no lower bound.
    """
    require_monotone(model)
    # checked on ``model`` first, so a refusal names no run of the pair
    demand.check_against(model)
    if initial_state is not None:
        _check_state(model, initial_state.rho, initial_state.q)
    pair = FreewayModel.stack([model, model])
    both = simulate(pair, demand, make_controller("best_effort", pair),
                    initial_state=initial_state, relaxed=(False, True))
    be = both.run(0)
    tts_be = evaluate_metrics(model, be).tts
    tts_lb = evaluate_metrics(model, both.run(1)).tts
    report = restrictiveness_report(model, be)

    certificate = "optimal" if report.interior_clean else "bounded"
    gap_abs = max(0.0, tts_be - tts_lb)
    gap_rel = gap_abs / tts_be if tts_be > 0.0 else 0.0
    return BoundsReport(tts_lb=tts_lb, tts_be=tts_be, certificate=certificate,
                        gap_abs=gap_abs, gap_rel=gap_rel,
                        restrictive_fraction=report.restrictive_fraction,
                        greedy=be, restrictiveness=report)
