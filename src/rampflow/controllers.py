"""Distributed ramp-metering laws.

Every law is decentralized: the rate for the ramp of cell k uses only
quantities measurable at that cell (local density and queue, arrivals,
adjacent flows). Controllers carry their own FreewayModel, which may
differ from the plant to study model mismatch; flow predictions always
come from the internal model.

A law returns its raw, unsaturated rate. :func:`simulate` clamps it into
the plant's feasible interval (the rate cap and both queue-box limits,
whose hardware constants are assumed known exactly), and that clamp is
the only saturation. Whether the cap applies is a property of the run,
``simulate(relaxed=...)``, not of the law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CellParams, FreewayModel, validate_model
from .simulator import _ZERO, SimState, _clip, _flows, _require_nonnegative

KINDS = ("none", "best_effort", "alinea")

#: integral gain in (cars/h) per (cars/km); a stock roadside value
DEFAULT_KI = 70.0

#: belief models :func:`sample_controller_model` draws before giving up
_MAX_DRAWS = 100


@dataclass(frozen=True)
class ControllerSpec:
    """Metering law selector plus the model the law believes in.

    ``internal_model`` is one model, or a stack of R beliefs (see
    :meth:`FreewayModel.stack`) for a batch of R runs. The law is pure:
    it sees the step index, the measured state, the arrivals and the
    rates :func:`simulate` applied on the previous step, and returns the
    raw rate, which :func:`simulate` saturates.

    - ``none``: ``inf``, so every ramp releases as much as its bounds allow
    - ``best_effort``: the rate that places each density exactly at its
      critical value one step ahead, given the predicted flows; saturated,
      it maximizes the next step's travelled distance
    - ``alinea``: integral feedback on the local density error, starting
      from the applied previous rate (zero on the first step), so the
      integrator cannot wind up while a bound is active
    """

    kind: str
    internal_model: FreewayModel
    ki: float = DEFAULT_KI

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        _require_nonnegative("ki", self.ki)

    @property
    def runs(self) -> int | None:
        return self.internal_model.runs

    def compute_rates(self, t: int, state: SimState, w_row: np.ndarray,
                      r_prev: np.ndarray | None) -> np.ndarray | float:
        """Raw rate vector for step ``t``; ``r_prev`` is the rate applied
        at step t - 1 (None at t = 0).

        The greedy law predicts the flow row with :func:`internal_flows`,
        except on a state from :func:`simulate` whose plant is the
        internal model itself: there it reads the plant's row off the
        state, which is the same row, bit for bit, because the loop's
        densities already lie in the plant's [0, rho_jam]."""
        m = self.internal_model
        if self.kind == "none":
            return np.inf
        if self.kind == "alinea":
            return (0.0 if r_prev is None else r_prev) \
                + self.ki * (m.rho_crit - state.rho)
        if getattr(state, "_plant", None) is m:
            flows_now = state._plant_flows
        else:
            flows_now = internal_flows(m, state.rho, w_row[0])
        return (m._length_over_dt * (m.rho_crit - state.rho)
                + flows_now[..., 1:] / m.beta_bar - flows_now[..., :-1])


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
    are clipped into it first. On densities already in that range the clip
    is the identity, and the row is the model's own ``_flows`` row, which
    is why a law that believes the plant may take the plant's row from
    :func:`simulate` instead.
    """
    rho = _clip(np.asarray(rho_measured, dtype=float), _ZERO, model.rho_jam)
    return _flows(model, rho, w0)


def sample_controller_model(nominal: FreewayModel, dv: float, drho: float,
                            seed: int) -> FreewayModel:
    """Draw a belief model with v_free and rho_jam perturbed uniformly by
    +-dv and +-drho (relative); critical densities are kept, and the wave
    speed and outflow cap are re-derived from the perturbed values.

    Resamples, up to ``_MAX_DRAWS`` times, until the perturbed model
    validates; identical seeds give identical models. A negative or
    non-finite half-width is refused.
    """
    _require_nonnegative("dv", dv)
    _require_nonnegative("drho", drho)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
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
        f"no valid perturbed model after {_MAX_DRAWS} draws "
        f"(dv={dv}, drho={drho})")
