"""Distributed ramp-metering laws.

Every law is decentralized: the rate for the ramp of cell k uses only
quantities measurable at that cell (local density and queue, arrivals,
adjacent flows). Controllers carry their own FreewayModel, which may
differ from the plant to study model mismatch; flow predictions always
come from the internal model, while queue and rate brackets use ramp
hardware constants that are assumed known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CellParams, FreewayModel, validate_model
from .simulator import SimState, _flows, _rate_bounds

KINDS = ("none", "best_effort", "relaxed_best_effort", "alinea")

#: integral gain in (cars/h) per (cars/km); a stock roadside value
DEFAULT_KI = 70.0


@dataclass(frozen=True)
class ControllerSpec:
    """Metering law selector plus the model the law believes in.

    ``internal_model`` is one model, or a stack of R beliefs (see
    :meth:`FreewayModel.stack`) for a batch of R runs. The law is pure:
    the only state it carries between steps is the ``memory`` that
    :func:`simulate` passes in and gets back.
    """

    kind: str
    internal_model: FreewayModel
    ki: float = DEFAULT_KI

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")

    @property
    def runs(self) -> int | None:
        return self.internal_model.runs

    def compute_rates(self, state: SimState, w_row: np.ndarray,
                      memory=None) -> tuple[np.ndarray, np.ndarray | None]:
        """Rate vector for one step given measured state and arrivals, and
        the memory for the next step (the integrator of the alinea law,
        None for the memoryless laws). Pass None on a run's first step."""
        w_now = np.asarray(w_row[1:], dtype=float)
        if self.kind == "none":
            _, hi = _rate_bounds(self.internal_model, state.q, w_now)
            return hi, None
        if self.kind == "alinea":
            r = alinea_rates(self, state, w_now, memory)
            return r, r
        flows_now = internal_flows(self.internal_model, state.rho, w_row[0])
        if self.kind == "best_effort":
            return best_effort_rates(self, state, flows_now, w_now), None
        return relaxed_best_effort_rates(self, state, flows_now, w_now), None


def make_controller(kind: str,
                    model: FreewayModel | Sequence[FreewayModel],
                    ki: float = DEFAULT_KI) -> ControllerSpec:
    """Controller believing in ``model``; a sequence of R belief models
    makes a controller for a batch of R runs, run r believing model r."""
    if not isinstance(model, FreewayModel):
        model = FreewayModel.stack(model)
    return ControllerSpec(kind=kind, internal_model=model, ki=ki)


def internal_flows(model: FreewayModel, rho_measured: np.ndarray,
                   w0: float) -> np.ndarray:
    """Flow row predicted by a belief model at measured densities.

    Measurements can sit outside the belief model's density range (for
    example when the believed jam density is below the true one), so they
    are clipped into it first.
    """
    rho = np.clip(np.asarray(rho_measured, dtype=float), 0.0, model.rho_jam)
    return _flows(model, rho, w0)


def _tracking_term(model: FreewayModel, state: SimState,
                   flows_now: np.ndarray) -> np.ndarray:
    """Rate that would place each density exactly at its critical value
    one step ahead, given the predicted flows."""
    return (model.length / model.dt * (model.rho_crit - state.rho)
            + flows_now[..., 1:] / model.beta_bar - flows_now[..., :-1])


def best_effort_rates(spec: ControllerSpec, state: SimState,
                      flows_now: np.ndarray, w_now: np.ndarray) -> np.ndarray:
    """Greedy one-step law: drive density to the critical value, saturated
    by the rate cap and both queue-box limits. Maximizes next-step travelled
    distance among feasible rate vectors."""
    m = spec.internal_model
    raw = _tracking_term(m, state, flows_now)
    lo, hi = _rate_bounds(m, state.q, w_now)
    return np.clip(raw, lo, hi)


def relaxed_best_effort_rates(spec: ControllerSpec, state: SimState,
                              flows_now: np.ndarray,
                              w_now: np.ndarray) -> np.ndarray:
    """Same tracking term but only the queue-box limits apply; rates may be
    negative or exceed the cap. Simulating this law with relaxed rate
    bounds yields a lower bound on the achievable total time spent."""
    m = spec.internal_model
    raw = _tracking_term(m, state, flows_now)
    lo, hi = _rate_bounds(m, state.q, w_now, relaxed=True)
    return np.clip(raw, lo, hi)


def alinea_rates(spec: ControllerSpec, state: SimState, w_now: np.ndarray,
                 r_prev: np.ndarray | None = None) -> np.ndarray:
    """Integral feedback on the local density error, saturated like the
    greedy law. ``r_prev`` is the previous step's rate (None: zero); it is
    the saturated rate, which keeps the integrator from winding up while a
    bound is active."""
    m = spec.internal_model
    if r_prev is None:
        r_prev = 0.0
    raw = r_prev + spec.ki * (m.rho_crit - state.rho)
    lo, hi = _rate_bounds(m, state.q, w_now)
    return np.clip(raw, lo, hi)


def sample_controller_model(nominal: FreewayModel, dv: float, drho: float,
                            seed: int, max_tries: int = 100) -> FreewayModel:
    """Draw a belief model with v_free and rho_jam perturbed uniformly by
    +-dv and +-drho (relative); critical densities are kept, and the wave
    speed and outflow cap are re-derived from the perturbed values.

    Resamples until the perturbed model validates; identical seeds give
    identical models.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        cells = []
        for c in nominal.cells:
            v_hat = c.v_free * (1.0 + rng.uniform(-dv, dv))
            rj_hat = c.rho_jam * (1.0 + rng.uniform(-drho, drho))
            cells.append(CellParams(
                length=c.length, v_free=v_hat, rho_crit=c.rho_crit,
                rho_jam=rj_hat, beta=c.beta,
                ramp_flow_max=c.ramp_flow_max, queue_max=c.queue_max,
                capacity_drop=c.capacity_drop))
        try:
            model = FreewayModel(cells, nominal.dt)
        except ValueError:
            continue
        if not validate_model(model):
            return model
    raise ValueError(
        f"no valid perturbed model after {max_tries} draws "
        f"(dv={dv}, drho={drho})")
