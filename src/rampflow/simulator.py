"""Discrete-time freeway simulation with onramp queues.

State per cell: mainline density rho (cars/km) and onramp queue q (cars).
One step sends flows

    phi_0 = w_0(t)                          mainline inflow, never blocked
    phi_k = min(demand_k, capacity_k, supply_{k+1})   between cells
    phi_n = min(demand_n, capacity_n)       network exit

and updates

    rho_k += dt/length_k * (phi_{k-1} + r_k - phi_k / beta_bar_k)
    q_k   += dt * (w_k - r_k)

where r_k is the metering rate chosen for the onramp of cell k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# The step kernel clips through ``_clip``, the ufunc that ``ndarray.clip``
# runs once its Python wrapper has looked at the bounds: the same bits
# without the wrapper's cost. Its bounds are arrays or ``_ZERO``, never a
# 0-d NaN, which numpy 1.x's wrapper would read as "no bound".
try:
    from numpy._core.umath import clip as _clip
except ImportError:   # numpy 1.x
    from numpy.core.umath import clip as _clip

from .model import _BOX_TOL, FreewayModel

#: the clips' lower bound as a 0-d array, which numpy takes as is where it
#: converts a Python float anew on every call
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class ContractViolationError(RuntimeError):
    """A caller or controller broke a simulation precondition."""


class ShapeMismatchError(ValueError):
    """Inputs that are each well formed but do not fit together: a demand
    profile the model cannot take, or a saved run whose horizon or cells
    differ from its scenario's."""


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} must be finite")


def _require_nonnegative(name: str, x: float) -> None:
    if not (np.isfinite(x) and x >= 0.0):   # NaN fails
        raise ValueError(f"{name} must be finite and >= 0, got {x}")


@dataclass
class SimState:
    """Densities and queues at one instant; arrays are copied on entry.

    Arrays are (n,) for one run or (R, n) for a batch of R runs.

    A state :func:`simulate` hands a law also carries ``_plant``, the
    plant it runs on, and ``_plant_flows``, the noiseless flow row that
    plant realizes at these densities; both are None on any other state.
    """

    rho: np.ndarray   # cars/km, per cell
    q: np.ndarray     # cars, per onramp (0 for cells without one)

    _plant = None
    _plant_flows = None

    def __post_init__(self):
        self.rho = np.array(self.rho, dtype=float)
        self.q = np.array(self.q, dtype=float)
        _require_finite("state", self.rho, self.q)

    @classmethod
    def _of(cls, rho: np.ndarray, q: np.ndarray, plant=None,
            flows: np.ndarray | None = None) -> "SimState":
        """A state over arrays the kernel wrote, without copy or check,
        with the flow row ``flows`` that ``plant`` realizes at ``rho``."""
        state = object.__new__(cls)
        state.rho, state.q = rho, q
        state._plant, state._plant_flows = plant, flows
        return state


def zero_state(model: FreewayModel) -> SimState:
    return SimState(np.zeros(model.n), np.zeros(model.n))


@dataclass(frozen=True)
class DisturbanceSpec:
    """Multiplicative flow noise: each flow is scaled by N(1, sigma_phi),
    then clipped back into [0, unperturbed flow].

    ``seed`` is one seed, or a sequence of R seeds that makes the run a
    batch of R; each run draws from its own generator.
    """

    sigma_phi: float = 0.0
    seed: int | Sequence[int] = 0

    def __post_init__(self):
        _require_nonnegative("sigma_phi", self.sigma_phi)

    @property
    def runs(self) -> int | None:
        return None if np.ndim(self.seed) == 0 else len(self.seed)

    def factors(self, runs: int | None, T: int,
                n: int) -> Iterator[np.ndarray]:
        """Each run's (T, n+1) flow factors N(1, sigma_phi), drawn at once
        from the run's own generator: one per seed, or one seed for each
        of the ``runs`` runs (one run if None). Row t is step t's factors,
        as the generator gives them drawing n+1 per step. Runs that share
        a seed share its block, drawn once; the caller copies it."""
        seeds = [self.seed] * (runs or 1) if self.runs is None else self.seed
        drawn = {}
        for s in seeds:
            if s not in drawn:
                drawn[s] = np.random.default_rng(s).normal(
                    1.0, self.sigma_phi, size=(T, n + 1))
            yield drawn[s]


class DemandProfile:
    """External arrivals per step: mainline w0 (cars/h) and per-ramp w (cars/h).

    ``w_ramp`` has shape (horizon, n); columns for cells without a ramp must
    be zero. Arrivals above the metering-rate cap are fine on ramps with
    queue storage (the queue absorbs the excess until its own box binds) but
    are rejected on queueless ramps, where traffic must pass straight through.
    """

    def __init__(self, w0: np.ndarray, w_ramp: np.ndarray):
        self.w0 = np.asarray(w0, dtype=float)
        self.w_ramp = np.asarray(w_ramp, dtype=float)
        if self.w0.ndim != 1 or self.w_ramp.ndim != 2:
            raise ValueError("w0 must be 1-d and w_ramp 2-d")
        if self.w_ramp.shape[0] != self.w0.shape[0]:
            raise ValueError(
                f"horizon mismatch: w0 has {self.w0.shape[0]} steps, "
                f"w_ramp has {self.w_ramp.shape[0]}")
        _require_finite("demands", self.w0, self.w_ramp)
        if np.any(self.w0 < 0.0) or np.any(self.w_ramp < 0.0):
            raise ValueError("demands must be nonnegative")

    @property
    def horizon(self) -> int:
        return self.w0.shape[0]

    def check_against(self, model: FreewayModel) -> None:
        """Refuse demands the model cannot take; a stack is checked
        member by member. A queueless ramp takes exactly the arrivals
        whose rate interval :func:`step` accepts: at most its rate cap,
        up to the tolerance of the rate check."""
        if self.w_ramp.shape[1] != model.n:
            raise ValueError(
                f"demand has {self.w_ramp.shape[1]} ramp columns for "
                f"{model.n} cells")
        # ramps with a queue buffer arrivals above the metering cap; ramps
        # without one must pass arrivals through, so there the cap is hard,
        # up to the rate check's own tolerance
        cap = model.ramp_flow_max[..., None, :]
        over = (model.queue_max[..., None, :] <= 0.0) & (
            self.w_ramp > cap + _BOX_TOL * np.maximum(1.0, cap))
        if np.any(over):
            *member, t, k = np.argwhere(over)[0]
            plant = f" of plant {member[0]}" if member else ""
            raise ValueError(
                f"ramp demand {self.w_ramp[t, k]:g} at step {t}, cell {k + 1} "
                f"exceeds ramp_flow_max "
                f"{model.ramp_flow_max[(*member, k)]:g}{plant} and the "
                f"ramp has no queue storage")

    def row(self, t: int) -> np.ndarray:
        """Length n+1 vector (w0, w_1, ..., w_n) at step t."""
        return np.concatenate(([self.w0[t]], self.w_ramp[t]))


@dataclass
class Trajectory:
    """A simulated run: T+1 states plus the T flow/rate rows between them.

    ``flows[t]`` has length n+1 with entry 0 the mainline inflow; in a
    noiseless run consecutive states reproduce the dynamics with these
    flows and rates to floating-point accuracy. A batch of R runs puts a
    leading run axis on every array: ``rho[r]`` is run r.
    """

    rho: np.ndarray     # (T+1, n), or (R, T+1, n)
    q: np.ndarray       # (T+1, n), or (R, T+1, n)
    flows: np.ndarray   # (T, n+1), or (R, T, n+1)
    rates: np.ndarray   # (T, n), or (R, T, n)
    demand: DemandProfile

    @property
    def horizon(self) -> int:
        return self.flows.shape[-2]

    def state(self, t: int) -> SimState:
        return SimState(self.rho[..., t, :], self.q[..., t, :])

    def run(self, r: int) -> "Trajectory":
        """Run r of a batch as a single-run trajectory of views."""
        return Trajectory(rho=self.rho[r], q=self.q[r], flows=self.flows[r],
                          rates=self.rates[r], demand=self.demand)


def compute_flows(model: FreewayModel, state: SimState, w0: float) -> np.ndarray:
    """Flow row (phi_0 .. phi_n) the network realizes at this state. A
    state outside its boxes is refused, and one outside by rounding only
    is moved onto them, as in :func:`simulate`."""
    return _flows(model, _check_state(model, state.rho, state.q)[0],
                  float(w0))


def _flows(model: FreewayModel, rho: np.ndarray, w0: float) -> np.ndarray:
    """Flow rows for densities (n,) or (R, n); the model may be a stack.

    A batch's rows are cell-major (Fortran order), like a stack's
    parameters and :func:`simulate`'s loop state, so each shifted view
    ``phi[..., 1:]``, ``phi[..., :-1]`` is one contiguous block, not R
    strided rows."""
    d = model.demand(rho)
    phi = np.empty(d.shape[:-1] + (model.n + 1,), order="F")
    phi[..., 0] = w0
    np.minimum(d, model.capacity, out=phi[..., 1:])
    inner = phi[..., 1:-1]
    np.minimum(inner, model.supply(rho)[..., 1:], out=inner)
    return phi


def feasible_rate_interval(model: FreewayModel, k: int, q_k: float,
                           w_k: float) -> tuple[float, float]:
    """Admissible metering rates for the ramp of cell k (1-based) given its
    queue and current arrivals: the rate cap and both queue-box limits."""
    if not 1 <= k <= model.n:
        raise ValueError(f"cell {k} outside 1..{model.n}")
    q, w = np.zeros((2, model.n))
    q[k - 1], w[k - 1] = q_k, w_k
    lo, hi = _rate_bounds(model, q, w, _rate_caps(model, False))
    _check_rates(lo, lo, hi)
    return float(lo[k - 1]), float(hi[k - 1])


def _rate_caps(model: FreewayModel, relaxed: bool | Sequence[bool],
               ) -> tuple[np.ndarray, np.ndarray]:
    """The constant rate bounds [0, ramp_flow_max], or (-inf, inf) where
    ``relaxed`` waives them: one flag, or R flags, one per run of a batch."""
    flags = np.asarray(relaxed, dtype=bool)[..., None]
    return (np.where(flags, -np.inf, 0.0),
            np.where(flags, np.inf, model.ramp_flow_max))


def _rate_bounds(model: FreewayModel, q: np.ndarray, w: np.ndarray,
                 caps: tuple[np.ndarray, np.ndarray],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The feasible rate interval: both queue-box limits within ``caps``,
    the constant bounds from :func:`_rate_caps`."""
    return (np.maximum(caps[0], (q - model.queue_max) / model._dt + w),
            np.minimum(caps[1], q / model._dt + w))


def _check_rates(r: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise unless every rate lies in its interval up to rounding; an
    empty interval is refused as ``_check_rates(lo, lo, hi)``."""
    _check_box(r, lo, hi, _BOX_TOL * np.maximum(1.0, np.abs(hi)),
               "rate outside feasible interval")


def _check_box(x: np.ndarray, lo, hi, tol, what: str) -> None:
    """Raise unless lo - tol <= x <= hi + tol everywhere; NaN fails. The
    arrays broadcast, so one (n,) state can be checked against (R, n)
    boxes."""
    inside = (x >= lo - tol) & (x <= hi + tol)
    if not inside.all():
        bad = np.unravel_index(int(np.argmin(inside)), inside.shape)
        x_b, lo_b, hi_b = (np.broadcast_to(b, inside.shape)[bad]
                           for b in (x, lo, hi))
        run = f" of run {bad[0]}" if inside.ndim > 1 else ""
        raise ContractViolationError(
            f"{what} at cell {bad[-1] + 1}{run}: value {float(x_b)!r} "
            f"outside [{float(lo_b)!r}, {float(hi_b)!r}]")


def _check_state(model: FreewayModel, rho: np.ndarray, q: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The state clipped onto [0, rho_jam] x [0, queue_max]; raise unless
    it lies there up to rounding. A stacked model checks it against every
    member's boxes, and the clipped state has the stack's shape. Each box
    is one count against the model's folded bounds; only a failure builds
    the message."""
    inside = (rho >= model._rho_floor) & (rho <= model._rho_ceil)
    if np.count_nonzero(inside) != inside.size:   # NaN fails
        _check_box(rho, 0.0, model.rho_jam, model._rho_tol,
                   "density outside its box")
    inside = (q >= model._q_floor) & (q <= model._q_ceil)
    if np.count_nonzero(inside) != inside.size:
        _check_box(q, 0.0, model.queue_max, model._q_tol,
                   "queue outside its box")
    return _clip(rho, _ZERO, model.rho_jam), _clip(q, _ZERO, model.queue_max)


def step(model: FreewayModel, state: SimState, rates: np.ndarray,
         w_row: np.ndarray, noise: np.ndarray | None = None,
         relaxed: bool | Sequence[bool] = False,
         ) -> tuple[SimState, np.ndarray]:
    """Advance one step and return (next state, realized flow row).

    ``state`` and ``rates`` are (n,) for one run or (R, n) for a batch;
    ``w_row`` is (w0, w_1..w_n), shared by every run. Rates outside the
    feasible interval are a contract violation. With ``relaxed=True`` the
    constant rate bounds [0, ramp_flow_max] are waived and only the
    queue-box limits apply; a batch may instead pass R flags, one per run.
    ``noise`` is the step's flow factors, (n+1,) or one row per run
    (R, n+1), as :meth:`DisturbanceSpec.factors` draws them; None is a
    noiseless step, and a non-finite factor is refused. A state outside
    its boxes is refused, and one outside by rounding only is moved onto
    them, as in :func:`simulate`.
    """
    if np.ndim(relaxed) and np.shape(relaxed) != state.q.shape[:-1]:
        raise ValueError(f"{len(relaxed)} relaxed flags for state "
                         f"of shape {state.q.shape}")
    if noise is not None:
        _require_finite("noise factors", noise)
    rho, q = _check_state(model, state.rho, state.q)
    rates = np.asarray(rates, dtype=float)
    _check_rates(rates, *_rate_bounds(model, q, w_row[1:],
                                      _rate_caps(model, relaxed)))
    rho_next, q_next, phi = _advance(model, rho, q, rates, w_row[1:], noise,
                                     _flows(model, rho, w_row[0]))
    return SimState(rho_next, q_next), phi


def _advance(model: FreewayModel, rho: np.ndarray, q: np.ndarray,
             rates: np.ndarray, w: np.ndarray, noise: np.ndarray | None,
             phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step itself, from rates already checked against their interval:
    (next densities, next queues, flow row), given the ramp arrivals
    ``w`` and the noiseless flow row ``phi`` at ``rho``. ``noise`` holds
    the flow factors, or is None for a noiseless step; it scales a copy
    of ``phi``, never the row itself. It reads the constants the model
    folds once: ``_dt`` and ``_dt_over_length`` for dt and dt / length,
    and the density box widened by its tolerance, [``_rho_floor``,
    ``_rho_ceil``].

    The rate interval implies the queue box (a rate in it leaves the queue
    in [0, queue_max] up to dt times the rate tolerance), so the queue is
    only clipped. Densities depend on the flows, which the interval does
    not bound: a noiseless step checks that they left their box by
    rounding only, which also catches a NaN inflow, before the clip."""
    if noise is not None:
        phi = _clip(phi * noise, _ZERO, phi)
    rho_next = rho + model._dt_over_length * (
        phi[..., :-1] + rates - phi[..., 1:] / model.beta_bar)
    q_next = _clip(q + model._dt * (w - rates), _ZERO, model.queue_max)
    if noise is None:
        inside = (rho_next >= model._rho_floor) & (rho_next <= model._rho_ceil)
        if np.count_nonzero(inside) != inside.size:   # NaN fails
            _check_box(rho_next, 0.0, model.rho_jam, model._rho_tol,
                       "density left its box")
    return _clip(rho_next, _ZERO, model.rho_jam), q_next, phi


def _batch_size(*sizes: int | None) -> int | None:
    given = {s for s in sizes if s is not None}
    if len(given) > 1:
        raise ValueError(f"batch sizes disagree: {sorted(given)}")
    if 0 in given:
        raise ValueError("a batch needs at least one run")
    return given.pop() if given else None


def simulate(model: FreewayModel, demand: DemandProfile,
             controller=None,
             disturbance: DisturbanceSpec | None = None,
             initial_state: SimState | None = None,
             relaxed: bool | Sequence[bool] = False) -> Trajectory:
    """Run the closed loop over the demand horizon.

    ``controller`` is anything with ``compute_rates(t, state, w_row,
    r_prev)`` returning the raw rates for step t; ``r_prev`` is the rates
    applied at step t - 1 (None at t = 0). None means every ramp releases
    as much as its bounds allow. Each step clamps the controller's output
    into the plant's feasible interval before applying it; this is the
    only saturation, so a controller cannot break the queue boxes, and a
    law needs no bounds of its own. A rate the clamp cannot make feasible
    (NaN, or a full queue whose arrivals exceed the rate cap) is a
    contract violation, as in :func:`step`, and so is an initial state
    outside [0, rho_jam] x [0, queue_max]; one outside by rounding only
    is moved onto the boxes.

    ``relaxed`` waives the constant rate bounds [0, ramp_flow_max] in that
    clamp, for every run or, given as R flags, per run; it applies to
    whatever law runs.

    The run is a batch of R when the plant (a :meth:`FreewayModel.stack`
    of R models, run r on plant r), the controller (``runs``), the
    disturbance seeds or the ``relaxed`` flags say so: every run starts
    from ``initial_state`` and every array of the trajectory has a leading
    run axis. Otherwise it is one run with the unbatched shapes.

    Each run's noise factors are drawn up front by
    :meth:`DisturbanceSpec.factors` into the flow history, and each noisy
    step advances like :func:`step` given its row of them. The loop
    carries the state in the arrays :func:`_advance` returns, copies each
    step's ramp arrivals to every run once, and writes each history row
    once, without reading it back. A batch is cell-major: the loop state,
    the arrivals, the noise buffer and the rate caps (built at full shape)
    are (R, n) arrays in Fortran order, like a stack's parameters, so each
    step's shifted flow views are contiguous blocks. A batch on a plant
    that is not a stack broadcasts its parameters.

    The plant's noiseless flow row depends on the densities only, so each
    step evaluates it once, before the law runs: :func:`_advance` takes
    it, and the state handed to the law carries it with the plant, so a
    law that believes the plant (``internal_model is model``) reads it
    instead of predicting the same row again.
    """
    demand.check_against(model)
    runs = _batch_size(model.runs, getattr(controller, "runs", None),
                       disturbance.runs if disturbance is not None else None,
                       len(relaxed) if np.ndim(relaxed) else None)
    state = initial_state if initial_state is not None else zero_state(model)
    rho0, q0 = _check_state(model, state.rho, state.q)

    T, n, R = demand.horizon, model.n, runs or 1
    shape = (n,) if runs is None else (R, n)
    caps = tuple(np.array(np.broadcast_to(c, shape), order="F")
                 for c in _rate_caps(model, relaxed))
    rho_hist = np.empty((R, T + 1, n))
    q_hist = np.empty((R, T + 1, n))
    flows = np.empty((R, T, n + 1))
    rates_hist = np.empty((R, T, n))
    rho_hist[:, 0] = rho0
    q_hist[:, 0] = q0
    noisy = disturbance is not None and disturbance.sigma_phi > 0.0
    if noisy:
        for run_flows, factors in zip(flows, disturbance.factors(runs, T, n)):
            run_flows[...] = factors
    if runs is None:   # one run: drop the run axis everywhere
        rho_hist, q_hist, flows, rates_hist = (
            rho_hist[0], q_hist[0], flows[0], rates_hist[0])
    w_rows = np.column_stack((demand.w0, demand.w_ramp))

    rho = rho_hist[..., 0, :].copy(order="F")
    q = q_hist[..., 0, :].copy(order="F")
    w = np.empty(shape, order="F")   # the step's ramp arrivals, every run
    noise = np.empty(shape[:-1] + (n + 1,), order="F") if noisy else None
    r = None
    for t in range(T):
        w_row = w_rows[t]
        w[...] = w_row[1:]
        phi = _flows(model, rho, w_row[0])
        raw = np.inf if controller is None else controller.compute_rates(
            t, SimState._of(rho, q, model, phi), w_row, r)
        lo, hi = _rate_bounds(model, q, w, caps)
        r = _clip(np.asarray(raw, dtype=float), lo, hi)
        # the clamp leaves r <= hi, so only the lower side can fail: at a
        # NaN rate or an empty interval (lo > hi), refused as in step
        # unless the interval is empty by rounding only
        ok = r >= lo
        if np.count_nonzero(ok) != ok.size:
            _check_rates(r, lo, hi)
        if noisy:
            noise[...] = flows[..., t, :]
        rho, q, flows[..., t, :] = _advance(model, rho, q, r, w, noise, phi)
        rho_hist[..., t + 1, :] = rho
        q_hist[..., t + 1, :] = q
        rates_hist[..., t, :] = r
    return Trajectory(rho=rho_hist, q=q_hist, flows=flows,
                      rates=rates_hist, demand=demand)


class RateSchedule:
    """Open-loop playback of a precomputed rate table (T, n): step t
    returns row t, which :func:`simulate` clamps like any law's output."""

    def __init__(self, rates: np.ndarray):
        self.rates = np.asarray(rates, dtype=float)

    def compute_rates(self, t: int, state: SimState, w_row: np.ndarray,
                      r_prev: np.ndarray | None) -> np.ndarray:
        return self.rates[t]


@dataclass(frozen=True)
class Metrics:
    """Run totals; on a batch, tts and twt carry a leading run axis, and
    so does tft on a stack of plants."""

    tts: float           # car-hours spent in the network
    tft: float           # car-hours if every car ran at free-flow speed
    twt: float           # tts - tft, time lost to congestion and queues


def freeflow_traverse_times(model: FreewayModel) -> np.ndarray:
    """tau[k-1]: hours a car entering at cell k needs to leave the network
    at free-flow speed, weighted by the share that survives each offramp;
    (R, n) for a stack of R models."""
    tau = np.empty(model.length.shape)
    acc = 0.0
    for j in range(model.n - 1, -1, -1):
        acc = (model.length[..., j] / model.v_free[..., j]
               + model.beta_bar[..., j] * acc)
        tau[..., j] = acc
    return tau


def _dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x @ v`` over the last axis. A stacked ``v`` (R, n) contracts run r
    of ``x`` with row r, rounding as ``x[r] @ v[r]`` does on run r's own
    model, whose row is contiguous. A stack keeps its parameters
    cell-major, and matmul rounds a strided ``v`` otherwise, so it
    contracts a C-ordered copy."""
    if v.ndim == 1:
        return x @ v
    runs, n = v.shape
    v = np.ascontiguousarray(v)
    return np.matmul(x.reshape(runs, -1, n),
                     v[:, :, None]).reshape(x.shape[:-1])


def _per_run(x):
    """A float for one run, an array with one entry per run for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def evaluate_metrics(model: FreewayModel, traj: Trajectory) -> Metrics:
    """Totals of a run, of a batch, or of a batch on a stack of plants."""
    dt = model.dt
    tts = _per_run(dt * (np.sum(_dot(traj.rho, model.length), axis=-1)
                         + np.sum(traj.q, axis=(-2, -1))))
    tau = freeflow_traverse_times(model)
    tft = _per_run(dt * (np.sum(traj.demand.w0) * tau[..., 0] + np.sum(
        np.matmul(traj.demand.w_ramp, tau[..., None])[..., 0], axis=-1)))
    return Metrics(tts=tts, tft=tft, twt=tts - tft)


def mass_conservation_residual(model: FreewayModel, traj: Trajectory) -> float:
    """Relative gap between cars entering and cars stored plus cars leaving;
    the worst run's gap for a batch."""
    dt = model.dt
    entered = dt * (float(np.sum(traj.demand.w0)) + float(np.sum(traj.demand.w_ramp)))
    stored0 = _dot(traj.rho[..., 0, :], model.length) + np.sum(traj.q[..., 0, :], axis=-1)
    storedT = _dot(traj.rho[..., -1, :], model.length) + np.sum(traj.q[..., -1, :], axis=-1)
    offramp = model.beta / model.beta_bar
    left = dt * (np.sum(traj.flows[..., -1], axis=-1)
                 + np.sum(_dot(traj.flows[..., 1:], offramp), axis=-1))
    scale = np.maximum(1.0, entered + stored0)
    return float(np.max(np.abs(entered + stored0 - storedT - left) / scale))
