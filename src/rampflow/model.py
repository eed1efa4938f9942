"""Freeway geometry and fundamental diagram primitives.

A freeway is a chain of cells, each with a piecewise-affine demand curve
(how much traffic the cell wants to send downstream) and supply curve
(how much it can accept from upstream). Cells may carry an onramp with a
finite queue and a metering-rate cap, and an offramp taking a fixed split
of the cell outflow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from typing import Sequence

import numpy as np

#: relative tolerance of every box check (state, rates, queueless ramps):
#: a value may leave its box by this fraction of max(1, |bound|)
_BOX_TOL = 1e-9


class GeometryError(ValueError):
    """Raised when cell parameters cannot define a usable fundamental diagram."""


class UnsupportedModelError(ValueError):
    """Model outside the class a method's guarantees cover (the LP
    relaxation and the bound sandwich need a monotone model)."""


@dataclass(frozen=True)
class CellParams:
    """Static description of one mainline cell and its ramps.

    ``w_back`` and ``capacity`` may be left unset (None); use
    :func:`triangular_fd_defaults` or let :class:`FreewayModel` derive them.
    """

    length: float                 # km
    v_free: float                 # km/h, free-flow speed
    rho_crit: float               # cars/km, critical density
    rho_jam: float                # cars/km, jam density
    w_back: float | None = None   # km/h, congestion wave speed
    capacity: float | None = None  # cars/h, hard cap on cell outflow
    beta: float = 0.0             # offramp split, fraction of outflow leaving
    ramp_flow_max: float = 0.0    # cars/h, metering-rate upper bound
    queue_max: float = 0.0        # cars, onramp storage
    capacity_drop: float = 0.0    # fractional demand drop above rho_crit

    @property
    def beta_bar(self) -> float:
        """Fraction of cell outflow that continues to the next cell."""
        return 1.0 - self.beta


def triangular_fd_defaults(cell: CellParams) -> CellParams:
    """Fill unset fundamental-diagram parameters from the triangular shape.

    The congestion wave speed makes supply vanish exactly at jam density,
    and the default outflow cap sits at the supply peak so it stays
    inactive unless explicitly overridden.
    """
    if not (0.0 < cell.rho_crit < cell.rho_jam):
        raise GeometryError(
            f"need 0 < rho_crit < rho_jam, got rho_crit={cell.rho_crit}, "
            f"rho_jam={cell.rho_jam}"
        )
    if cell.v_free <= 0.0:
        raise GeometryError(f"need v_free > 0, got {cell.v_free}")
    w = cell.w_back
    if w is None:
        w = cell.v_free * cell.rho_crit / (cell.rho_jam - cell.rho_crit)
    cap = cell.capacity
    if cap is None:
        cap = cell.v_free * cell.rho_crit
    return replace(cell, w_back=w, capacity=cap)


@dataclass(frozen=True)
class Violation:
    """One failed model check; ``cell`` is 1-based, 0 means model-level."""

    cell: int
    rule: str
    detail: str

    def __str__(self) -> str:
        where = f"cell {self.cell}" if self.cell else "model"
        return f"{where}: {self.rule}: {self.detail}"


class FreewayModel:
    """Immutable cell chain plus step length, with vectorized parameter arrays.

    Unset w_back/capacity entries are resolved with triangular defaults at
    construction. Parameter arrays are read-only numpy views indexed 0..n-1
    for cells 1..n. ``runs`` is None here; see :meth:`stack` for a batch.

    The step kernel's constants are folded once per model, a stack
    included: the curves' pieces (``_demand_slope``, ``_demand_dropped``,
    ``_supply_max``) and whether any cell drops (``_drops``), ``_dt`` (dt
    as a 0-d array), ``_dt_over_length`` =
    dt / length and ``_length_over_dt`` = length / dt, the density box
    widened by its tolerance ``_rho_tol`` to [``_rho_floor``,
    ``_rho_ceil``], and the queue box widened by ``_q_tol`` to
    [``_q_floor``, ``_q_ceil``]. Each is the value the step would compute,
    so folding changes no bit of a result.
    """

    runs: int | None = None

    def __init__(self, cells: Sequence[CellParams], dt: float):
        if len(cells) == 0:
            raise GeometryError("model needs at least one cell")
        if not 0.0 < dt < inf:   # NaN fails too
            raise GeometryError(f"need finite dt > 0, got {dt}")
        resolved = []
        for cell in cells:
            if cell.w_back is None or cell.capacity is None:
                cell = triangular_fd_defaults(cell)
            resolved.append(cell)
        self.cells: tuple[CellParams, ...] = tuple(resolved)
        self.dt = float(dt)          # hours
        self.n = len(resolved)
        self._set_params({name: [getattr(c, name) for c in resolved]
                          for name in _PARAMS})

    @classmethod
    def stack(cls, models: Sequence["FreewayModel"]) -> "FreewayModel":
        """A batch of R models with equal cell counts and step length.

        Every parameter array gets a leading run axis, (R, n), so
        :meth:`demand` and :meth:`supply` evaluate all R curves on an
        (R, n) density array at once. A stack evaluates curves and bounds
        for a batch of beliefs, or is the plant of a batch of runs (run r
        on model r); it has no ``cells`` of its own.

        The (R, n) arrays are cell-major (Fortran order): a cell's R
        values are adjacent, so a step's views shifted by one cell are
        contiguous blocks, and so are the batch arrays :func:`simulate`
        computes from them.
        """
        models = tuple(models)
        if not models:
            raise GeometryError("need at least one model to stack")
        first = models[0]
        for m in models:
            if m.runs is not None or m.n != first.n or m.dt != first.dt:
                raise GeometryError(
                    "stacked models must be single models with equal "
                    "cell counts and dt")
        out = cls.__new__(cls)
        out.runs = len(models)
        out.dt = first.dt
        out.n = first.n
        out._set_params({name: [getattr(m, name) for m in models]
                         for name in _PARAMS})
        return out

    def _set_params(self, values: dict) -> None:
        def frozen(a) -> np.ndarray:
            a = np.array(a, dtype=float, order="F")
            a.flags.writeable = False
            return a

        for name, v in values.items():
            setattr(self, name, frozen(v))
        # beta_run[..., j] = product of beta_bar over cells 1..j, [..., 0] = 1
        self.beta_run = frozen(np.concatenate(
            (np.ones(self.beta_bar.shape[:-1] + (1,)),
             np.cumprod(self.beta_bar, axis=-1)), axis=-1))
        # constant pieces of the fundamental diagram
        self._demand_slope = frozen(self.beta_bar * self.v_free)
        self._demand_dropped = frozen(
            (1.0 - self.capacity_drop) * self._demand_slope * self.rho_crit)
        # without a drop the dropped level is slope * rho_crit, which the
        # min already gives above rho_crit, so demand skips the copy
        self._drops = bool(np.any(self.capacity_drop != 0.0))
        self._supply_max = frozen(self.w_back * (self.rho_jam - self.rho_crit))
        # constant pieces of the step: dt / length for the density update,
        # length / dt for the greedy law, the state boxes with their
        # tolerances, and dt as a 0-d array, which numpy takes as is where it
        # converts the float anew on every call
        self._dt = frozen(self.dt)
        self._dt_over_length = frozen(self.dt / self.length)
        self._length_over_dt = frozen(self.length / self.dt)
        self._rho_tol = frozen(_BOX_TOL * np.maximum(1.0, self.rho_jam))
        self._rho_floor = frozen(-self._rho_tol)
        self._rho_ceil = frozen(self.rho_jam + self._rho_tol)
        self._q_tol = frozen(_BOX_TOL * np.maximum(1.0, self.queue_max))
        self._q_floor = frozen(-self._q_tol)
        self._q_ceil = frozen(self.queue_max + self._q_tol)

    @property
    def has_capacity_drop(self) -> bool:
        return bool(np.any(self.capacity_drop > 0.0))

    def with_cells(self, cells: Sequence[CellParams]) -> "FreewayModel":
        return FreewayModel(cells, self.dt)

    def demand(self, rho: np.ndarray) -> np.ndarray:
        """Vectorized demand curve over all cells; broadcasts over a
        leading run axis of ``rho`` or of the model."""
        rho = np.asarray(rho, dtype=float)
        out = self._demand_slope * np.minimum(rho, self.rho_crit)
        if self._drops:
            np.copyto(out, self._demand_dropped, where=rho > self.rho_crit)
        return out

    def supply(self, rho: np.ndarray) -> np.ndarray:
        """Vectorized supply curve over all cells; broadcasts like
        :meth:`demand`."""
        rho = np.asarray(rho, dtype=float)
        return np.minimum(self._supply_max, self.w_back * (self.rho_jam - rho))


_PARAMS = ("length", "v_free", "rho_crit", "rho_jam", "w_back", "capacity",
           "beta", "beta_bar", "ramp_flow_max", "queue_max", "capacity_drop")


_STEP_RULES = ("dt * demand slope <= length * beta_bar",
               "dt * supply slope <= length")


def validate_model(model: FreewayModel) -> list[Violation]:
    """Check geometry and the step-size conditions that make one simulation
    step well posed (density change per step bounded by the steepest
    demand and supply slopes).

    Returns an empty list for a usable model; violations are data, not
    exceptions, so callers can report all of them at once. Every range
    rule is written so that a non-finite value (NaN or an infinity)
    breaks it. A stack (:meth:`FreewayModel.stack`) has no cells to check
    and is refused with a ``ValueError``.
    """
    if model.runs is not None:
        raise ValueError(f"validate_model checks one model, not a stack of "
                         f"R = {model.runs}")
    out: list[Violation] = []
    for i, c in enumerate(model.cells):
        k = i + 1
        if not 0.0 < c.length < inf:
            out.append(Violation(k, "length > 0", f"length={c.length}"))
        if not 0.0 < c.v_free < inf:
            out.append(Violation(k, "v_free > 0", f"v_free={c.v_free}"))
        if not 0.0 < c.rho_crit < c.rho_jam < inf:
            out.append(Violation(
                k, "0 < rho_crit < rho_jam",
                f"rho_crit={c.rho_crit}, rho_jam={c.rho_jam}"))
        if not 0.0 < c.w_back < inf:
            out.append(Violation(k, "w_back > 0", f"w_back={c.w_back}"))
        if not 0.0 < c.capacity < inf:
            out.append(Violation(k, "capacity > 0", f"capacity={c.capacity}"))
        if not 0.0 <= c.beta < 1.0:
            out.append(Violation(k, "0 <= beta < 1", f"beta={c.beta}"))
        if not 0.0 <= c.ramp_flow_max < inf:
            out.append(Violation(
                k, "ramp_flow_max >= 0", f"ramp_flow_max={c.ramp_flow_max}"))
        if not 0.0 <= c.queue_max < inf:
            out.append(Violation(k, "queue_max >= 0", f"queue_max={c.queue_max}"))
        if not 0.0 <= c.capacity_drop < 1.0:
            out.append(Violation(
                k, "0 <= capacity_drop < 1", f"capacity_drop={c.capacity_drop}"))
        # Step-size conditions, using the slopes of the PWA pieces.
        c_d = c.beta_bar * c.v_free
        if model.dt * c_d > c.length * c.beta_bar + 1e-12:
            out.append(Violation(
                k, _STEP_RULES[0],
                f"dt*{c_d:g} = {model.dt * c_d:g} > {c.length * c.beta_bar:g}"))
        if model.dt * c.w_back > c.length + 1e-12:
            out.append(Violation(
                k, _STEP_RULES[1],
                f"dt*{c.w_back:g} = {model.dt * c.w_back:g} > {c.length:g}"))
    return out


def require_monotone(model: FreewayModel) -> None:
    """Refuse a model outside the monotone class, which is all that the LP
    relaxation and the bound sandwich cover: a capacity drop makes outflow
    non-concave in density, a step that breaks the step-size conditions
    makes the dynamics non-monotone, and a parameter outside its range
    (any rule of :func:`validate_model`, a NaN included) leaves the
    theory altogether. The constructor accepts such models, so the
    monotonicity probe can show them failing. A stack of models is
    refused too: the LP and the bounds are built for one model."""
    if model.runs is not None:
        raise UnsupportedModelError(
            f"a stack of R = {model.runs} models; the LP relaxation and the "
            f"bound sandwich take one model")
    if model.has_capacity_drop:
        raise UnsupportedModelError(
            "capacity drop breaks monotonicity; neither the LP relaxation "
            "nor the bound sandwich is exact for such models")
    violations = validate_model(model)
    bad = [str(v) for v in violations if v.rule not in _STEP_RULES]
    if bad:
        raise UnsupportedModelError(
            "parameters outside their ranges: " + "; ".join(bad))
    bad = [str(v) for v in violations if v.rule in _STEP_RULES]
    if bad:
        raise UnsupportedModelError(
            f"dt = {model.dt:g} h is too long for monotone dynamics: "
            + "; ".join(bad))
