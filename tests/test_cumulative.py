"""Cumulative coordinates: roundtrips, the monotone one-step map, probes,
restrictiveness classification, and the certified bounds."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampflow import controllers, cumulative
from rampflow.controllers import make_controller
from rampflow.cumulative import (
    BoundsReport,
    DEMAND_LIMITED,
    NONRESTRICTIVE,
    SUPPLY_LIMITED,
    _REASONS,
    _reason_codes,
    cctm_step,
    cumulative_from_state,
    monotonicity_probe,
    reconstruct_densities,
    reconstruct_queues,
    restrictiveness_report,
    to_cumulative,
    tts_bounds,
    tts_from_cumulative,
)
from rampflow.lp import build_lp
from rampflow.model import (
    CellParams,
    FreewayModel,
    UnsupportedModelError,
    _STEP_RULES,
    validate_model,
)
from rampflow.simulator import (
    ContractViolationError,
    DisturbanceSpec,
    SimState,
    _rate_bounds,
    _rate_caps,
    compute_flows,
    evaluate_metrics,
    simulate,
    step,
    zero_state,
)
from rampflow.scenarios import (
    Scenario,
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
    with_capacity_drop,
)

from conftest import random_demand, random_model, random_state, tiled_grenoble


def _phi_reference(model, rho, inflow_cum, virtual_cars):
    """Direct double-loop transcription of the boundary-count definition."""
    n = model.n
    out = []
    for k in range(n + 1):
        total = 0.0
        for j in range(k + 1, n + 2):
            scale = math.prod(model.beta_bar[m - 1] for m in range(k + 1, j))
            if j == n + 1:
                content = virtual_cars
            else:
                content = model.length[j - 1] * rho[j - 1] - inflow_cum[j - 1]
            total += content / scale
        out.append(total)
    return np.array(out)


def _run(rng, model, horizon=30, load=0.8):
    demand = random_demand(rng, model, horizon, load=load)
    return simulate(model, demand, controller=None)


# ---------------------------------------------------------------------------
# transform and roundtrip

def test_initial_counts_match_direct_definition():
    rng = np.random.default_rng(3)
    for _ in range(30):
        model = random_model(rng)
        state = random_state(rng, model)
        R = rng.uniform(0.0, 50.0, model.n)
        virtual = float(rng.uniform(0, 40))
        cum = cumulative_from_state(model, state, inflow_cum=R,
                                    virtual_cars=virtual)
        ref = _phi_reference(model, state.rho, R, virtual)
        np.testing.assert_allclose(cum.phi_cum, ref, rtol=1e-12, atol=1e-9)


def test_roundtrip_recovers_states_along_trajectories():
    rng = np.random.default_rng(4)
    for _ in range(20):
        model = random_model(rng)
        traj = _run(rng, model)
        states = to_cumulative(model, traj)
        assert len(states) == traj.horizon + 1
        for t, cum in enumerate(states):
            np.testing.assert_allclose(
                reconstruct_densities(model, cum), traj.rho[t],
                rtol=1e-9, atol=1e-9 * max(1.0, float(traj.rho.max())))
            np.testing.assert_allclose(
                reconstruct_queues(model, cum), traj.q[t],
                rtol=1e-9, atol=1e-9)


def test_boundary_counts_accumulate_simulated_flows():
    rng = np.random.default_rng(5)
    model = random_model(rng)
    traj = _run(rng, model)
    states = to_cumulative(model, traj)
    for t in range(traj.horizon):
        np.testing.assert_allclose(
            states[t + 1].phi_cum - states[t].phi_cum,
            model.dt * traj.flows[t], rtol=1e-12, atol=1e-12)
    # the last boundary count is the cars past the last cell, none at t = 0
    assert states[0].phi_cum[-1] == 0.0


def test_reconstruct_rejects_unphysical_counters():
    model = FreewayModel([CellParams(length=1.0, v_free=100.0, rho_crit=50.0,
                                     rho_jam=250.0)], dt=0.002)
    cum = cumulative_from_state(model, SimState(rho=np.array([100.0]),
                                                q=np.array([0.0])))
    cum.phi_cum = cum.phi_cum + np.array([500.0, 0.0])  # decodes to rho = 600
    with pytest.raises(ContractViolationError, match="density outside its box"):
        reconstruct_densities(model, cum)


def test_total_time_identity_in_cumulative_coordinates():
    rng = np.random.default_rng(6)
    for _ in range(15):
        model = random_model(rng)
        traj = _run(rng, model)
        tts = evaluate_metrics(model, traj).tts
        assert tts_from_cumulative(model, to_cumulative(model, traj)) \
            == pytest.approx(tts, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# one-step map equivalence

def test_cumulative_step_matches_density_step():
    rng = np.random.default_rng(7)
    for _ in range(15):
        model = random_model(rng)
        demand = random_demand(rng, model, 25, load=0.8)
        traj = simulate(model, demand, controller=None)
        cum = cumulative_from_state(model, traj.state(0))
        for t in range(traj.horizon):
            cum = cctm_step(model, cum, traj.rates[t], demand.row(t))
            np.testing.assert_allclose(reconstruct_densities(model, cum),
                                       traj.rho[t + 1], rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(reconstruct_queues(model, cum),
                                       traj.q[t + 1], rtol=1e-9, atol=1e-9)


def _single_ramp_cell_model(dt=0.01):
    return FreewayModel([CellParams(length=1.0, v_free=100.0, rho_crit=50.0,
                                    rho_jam=250.0, ramp_flow_max=1000.0,
                                    queue_max=50.0)], dt=dt)


def test_cumulative_step_rejects_bad_ramp_counters():
    model = _single_ramp_cell_model()
    state = SimState(rho=np.array([40.0]), q=np.array([10.0]))
    cum = cumulative_from_state(model, state)
    w_row = np.array([0.0, 0.0])
    # dt = 0.01 h, so the 10 waiting cars allow at most 1000 cars/h
    with pytest.raises(ContractViolationError, match="rate"):   # negative
        cctm_step(model, cum, np.array([-100.0]), w_row)
    with pytest.raises(ContractViolationError, match="rate"):   # above the cap
        cctm_step(model, cum, np.array([1200.0]), w_row)
    with pytest.raises(ContractViolationError, match="rate"):   # empties past 0
        cctm_step(model, cum, np.array([1100.0]), w_row, relaxed=True)
    # a rate in the relaxed interval that drains the cell below empty is
    # refused as step refuses it
    with pytest.raises(ContractViolationError, match="density left its box"):
        cctm_step(model, cum, np.array([-100.0]), w_row, relaxed=True)
    nxt = cctm_step(model, cum, np.array([500.0]), w_row)
    assert reconstruct_queues(model, nxt)[0] == pytest.approx(5.0)
    # relaxed mode waives both rate caps but keeps the queue box: from a
    # cell whose outflow covers it, a negative rate pulls cars back into
    # the queue, and a rate above the cap empties it
    roomy = cumulative_from_state(model, SimState(rho=np.array([100.0]),
                                                  q=np.array([15.0])))
    back = cctm_step(model, roomy, np.array([-100.0]), w_row, relaxed=True)
    assert reconstruct_queues(model, back)[0] == pytest.approx(16.0)
    out = cctm_step(model, roomy, np.array([1500.0]), w_row, relaxed=True)
    assert reconstruct_queues(model, out)[0] == pytest.approx(0.0, abs=1e-9)


# one ramp cell: jam 250, queue_max 50, dt 0.01 h; from 40 veh/km it
# sends 4000 veh/h, so with no arrivals its next density is 0.01 * rate
_CELL = _single_ramp_cell_model()
_NO_ARRIVALS = np.zeros(2)


def _counters(rho, q):
    """The cell's counters that decode to (rho, q) wherever it lies,
    lifted without the state check."""
    zero = np.zeros(1)
    return cumulative.CumulativeState(
        cumulative._phi_from_density(_CELL, np.array([rho]), zero, 0.0),
        zero, np.array([q]))


def _step_on(rho, q, rate=0.0, relaxed=False):
    """``step`` on an unchecked state, as ``cctm_step`` hands it one."""
    return step(_CELL, SimState._of(np.array([rho]), np.array([q])),
                np.array([rate]), _NO_ARRIVALS, relaxed=relaxed)


def _cctm_on(rho, q, rate=0.0, relaxed=False):
    return cctm_step(_CELL, _counters(rho, q), np.array([rate]),
                     _NO_ARRIVALS, relaxed=relaxed)


def _decode_on(rho, q):
    return reconstruct_densities(_CELL, _counters(rho, q))


def _lift_on(rho, q):
    return cumulative_from_state(_CELL, SimState([rho], [q]))


_EDGE = 1.0 + 1e-10
# message, step's call, the cumulative calls, then the input refused, one
# inside its box and one outside by 1e-10 relative (None: no box applies)
_CONTRACT_ROWS = {
    "queue": ("queue outside its box", _step_on, (_cctm_on,),
              (40.0, -5.0), (40.0, 10.0), (40.0, -50.0 * 1e-10)),
    "next_density": ("density left its box",
                     partial(_step_on, 40.0, 10.0, relaxed=True),
                     (partial(_cctm_on, 40.0, 10.0, relaxed=True),),
                     (-100.0,), (500.0,), (-250.0 * 1e-10 / 0.01,)),
    "density": ("density outside its box", _step_on, (_cctm_on, _decode_on),
                (250.0 * (1.0 + 1e-7), 10.0), (250.0, 10.0),
                (250.0 * _EDGE, 10.0)),
    "nan_count": ("density outside its box", _step_on,
                  (_cctm_on, _decode_on), (float("nan"), 10.0), (40.0, 10.0),
                  None),
    "lift": ("density outside its box", _step_on, (_lift_on,),
             (300.0, 80.0), (250.0, 50.0), (250.0 * _EDGE, 50.0 * _EDGE)),
}


@pytest.mark.parametrize("row", list(_CONTRACT_ROWS))
def test_the_cumulative_layer_refuses_what_step_refuses(row):
    """Every input ``step`` refuses is refused in cumulative coordinates
    with its error and message; the same input inside its box, or outside
    by 1e-10 relative, is accepted (negative controls)."""
    message, step_call, calls, bad, inside, near = _CONTRACT_ROWS[row]
    with pytest.raises(ContractViolationError, match=message) as want:
        step_call(*bad)
    for call in calls:
        with pytest.raises(ContractViolationError) as got:
            call(*bad)
        assert str(got.value) == str(want.value)
        for ok in (inside, near):
            if ok is not None:
                step_call(*ok)
                call(*ok)


def _box_message(e):
    """("<what> at cell k", [x, lo, hi]) of a box check's message."""
    head, tail = str(e).split(": value ")
    return head, [float(x) for x in
                  tail.replace(" outside [", ", ").rstrip("]").split(", ")]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_cctm_step_is_step_in_cumulative_coordinates(seed, relaxed, outside):
    """On random models and in-box states lifted with random ramp
    counters, with mainline inflow and rates inside or outside their
    interval, ``cctm_step`` refuses exactly when ``step`` does, with its
    message up to the rounding of the decode; otherwise its counters
    decode to ``step``'s next state within 1e-9 relative."""
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    state = random_state(rng, m)
    cum = cumulative_from_state(m, state,
                                inflow_cum=rng.uniform(0.0, 30.0, m.n))
    w_row = np.concatenate(([rng.uniform(0.0, 1.2) * m.capacity[0]],
                            rng.uniform(0.0, 1.2, m.n) * m.ramp_flow_max))
    lo, hi = _rate_bounds(m, state.q, w_row[1:], _rate_caps(m, relaxed))
    rates = lo + rng.uniform(0.0, 1.0, m.n) * (hi - lo)
    if outside:   # one ramp well past an edge of its interval
        k = int(rng.integers(0, m.n))
        rates[k] = (hi[k] + 1.0 + 0.1 * abs(hi[k]) if rng.random() < 0.5
                    else lo[k] - 1.0 - 0.1 * abs(lo[k]))
    try:
        want, _ = step(m, state, rates, w_row, relaxed=relaxed)
    except ContractViolationError as e:
        with pytest.raises(ContractViolationError) as got:
            cctm_step(m, cum, rates, w_row, relaxed=relaxed)
        head, values = _box_message(e)
        got_head, got_values = _box_message(got.value)
        assert got_head == head
        np.testing.assert_allclose(got_values, values, rtol=1e-9,
                                   atol=1e-9 * float(np.max(m.rho_jam)))
        return
    nxt = cctm_step(m, cum, rates, w_row, relaxed=relaxed)
    for got, exact, box in ((reconstruct_densities(m, nxt), want.rho,
                             m.rho_jam),
                            (reconstruct_queues(m, nxt), want.q,
                             m.queue_max)):
        assert np.all(np.abs(got - exact) <= 1e-9 * np.maximum(1.0, box))


# ---------------------------------------------------------------------------
# monotonicity probes

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_raising_any_boundary_count_never_lowers_future_counts(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    cum = cumulative_from_state(model, random_state(rng, model),
                                inflow_cum=rng.uniform(0, 30, model.n))
    bump = rng.uniform(0.0, 1.0, model.n + 1) \
        * rng.integers(0, 2, model.n + 1) \
        * 0.2 * float(np.min(model.length * model.rho_jam))
    pert = cum.copy()
    pert.phi_cum = cum.phi_cum + bump
    w0 = float(rng.uniform(0.0, model.v_free[0] * model.rho_crit[0]))
    assert monotonicity_probe(model, cum, pert, w0=w0) == []


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_ramp_counter_moves_its_own_boundary_along_and_upstream_against(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    cum = cumulative_from_state(model, random_state(rng, model),
                                inflow_cum=rng.uniform(5.0, 30.0, model.n))
    k = int(rng.integers(0, model.n))
    delta = float(rng.uniform(-1.0, 1.0)) \
        * 0.3 * float(model.length[k] * model.rho_jam[k])
    pert = cum.copy()
    pert.inflow_cum = cum.inflow_cum.copy()
    pert.inflow_cum[k] += delta
    w0 = float(rng.uniform(0.0, model.v_free[0] * model.rho_crit[0]))
    assert monotonicity_probe(model, cum, pert, w0=w0) == []


def test_probe_rejects_malformed_perturbations():
    model = _single_ramp_cell_model()
    cum = cumulative_from_state(model, SimState(rho=np.array([40.0]),
                                                q=np.array([10.0])))
    lower = cum.copy()
    lower.phi_cum = cum.phi_cum - 1.0
    with pytest.raises(ValueError):
        monotonicity_probe(model, cum, lower)
    mixed = cum.copy()
    mixed.phi_cum = cum.phi_cum + 1.0
    mixed.inflow_cum = cum.inflow_cum + 1.0
    with pytest.raises(ValueError):
        monotonicity_probe(model, cum, mixed)


def test_probe_flags_unstable_step_size():
    """Negative control: with the step-size rules broken, probes must fail.

    dt = 0.06 h on 1 km cells with backward speed 25 km/h and forward speed
    100 km/h violates both slope rules, so a one-car bump at an internal
    boundary swings the downstream supply (or demand) by more than a car.
    """
    cells = [CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0)
             for _ in range(2)]
    model = FreewayModel(cells, dt=0.06)
    assert validate_model(model) != []

    congested = cumulative_from_state(
        model, SimState(rho=np.array([100.0, 200.0]), q=np.zeros(2)))
    pert = congested.copy()
    pert.phi_cum = congested.phi_cum + np.array([0.0, 1.0, 0.0])
    bad = monotonicity_probe(model, congested, pert)
    assert any(v.component == 1 for v in bad)

    freeflow = cumulative_from_state(
        model, SimState(rho=np.array([40.0, 10.0]), q=np.zeros(2)))
    pert = freeflow.copy()
    pert.phi_cum = freeflow.phi_cum + np.array([0.0, 1.0, 0.0])
    bad = monotonicity_probe(model, freeflow, pert)
    assert any(v.component == 1 for v in bad)


@pytest.mark.parametrize("rho, component", [
    ([40.0, 40.0], 2),      # free flow: cell 2's outflow follows demand
    ([40.0, 200.0], 1),     # congested: cell 1's outflow is cell 2's supply
], ids=["own-boundary-against", "upstream-along"])
def test_input_probe_flags_a_cell_of_negative_length(rho, component):
    """An input probe moves cell 2's ramp counter by one car either way.
    On a cell of negative length, which breaks both step-size rules, the
    car moves the cell's density the wrong way: in free flow its own
    boundary then moves against the counter, and in congestion the
    upstream boundary along with it. Negative control: the same probes on
    the cell at length 1 report nothing."""
    cell = CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                      ramp_flow_max=1000.0, queue_max=50.0)
    for length in (-1.0, 1.0):
        model = FreewayModel([cell, replace(cell, length=length)], dt=0.005)
        broken = {v.rule for v in validate_model(model)} >= set(
            _STEP_RULES)
        cum = cumulative_from_state(model, SimState(rho, np.zeros(2)),
                                    inflow_cum=np.full(2, 10.0))
        for delta in (1.0, -1.0):
            pert = cum.copy()
            pert.inflow_cum = cum.inflow_cum + np.array([0.0, delta])
            found = monotonicity_probe(model, cum, pert, w0=3000.0)
            assert [v.component for v in found] == \
                ([component] if broken else [])
        assert broken is (length < 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_boundary_count_dominance_propagates_through_time(seed):
    """A state ahead in every cumulative count stays ahead forever."""
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    rho = rng.uniform(0.05, 0.95) * model.rho_jam
    q0 = rng.uniform(0.0, 1.0) * model.queue_max
    base = cumulative_from_state(model, SimState(rho=rho, q=q0))

    slack = np.minimum(rho, model.rho_jam - rho) * model.length
    room = float(np.min(slack / (1.0 + 1.0 / model.beta_bar)))
    bump = rng.uniform(0.0, 1.0, model.n + 1) * 0.9 * room
    ahead = base.copy()
    ahead.phi_cum = base.phi_cum + bump

    # pure drainage: external arrivals enter unconditionally in this model
    # family, so any sustained inflow could overfill a cell that the head
    # start already pushed near jam
    w_row = np.zeros(model.n + 1)
    for _ in range(15):
        base = cctm_step(model, base, np.zeros(model.n), w_row)
        ahead = cctm_step(model, ahead, np.zeros(model.n), w_row)
        assert np.all(ahead.phi_cum - base.phi_cum
                      >= -1e-9 * np.maximum(1.0, np.abs(base.phi_cum)))


# ---------------------------------------------------------------------------
# restrictiveness

def _two_cell_bottleneck():
    cells = [
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0),
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                   ramp_flow_max=1800.0, queue_max=100.0),
    ]
    return FreewayModel(cells, dt=0.002)


def test_classify_supply_limited_cell_with_queue_space():
    model = _two_cell_bottleneck()
    state = SimState(rho=np.array([60.0, 150.0]), q=np.array([0.0, 10.0]))
    flows = compute_flows(model, state, w0=0.0)
    assert flows[1] == pytest.approx(25.0 * 100.0)     # supply of cell 2
    assert _REASONS[_reason_codes(model, state.rho, state.q, flows)[1]] \
        == SUPPLY_LIMITED
    # a full queue removes the trade: nothing left to hold back
    full = SimState(rho=state.rho, q=np.array([0.0, 100.0]))
    flows = compute_flows(model, full, 0.0)
    assert _REASONS[_reason_codes(model, full.rho, full.q, flows)[1]] \
        == NONRESTRICTIVE


def test_classify_demand_limited_cell_with_waiting_queue():
    model = _single_ramp_cell_model(dt=0.002)
    state = SimState(rho=np.array([20.0]), q=np.array([5.0]))
    flows = compute_flows(model, state, w0=0.0)
    assert flows[1] == pytest.approx(2000.0)
    assert _REASONS[_reason_codes(model, state.rho, state.q, flows)[0]] \
        == DEMAND_LIMITED
    drained = SimState(rho=state.rho, q=np.array([0.0]))
    assert _REASONS[_reason_codes(model, drained.rho, drained.q, flows)[0]] \
        == NONRESTRICTIVE


def test_classify_skips_supply_condition_on_first_cell():
    model = _single_ramp_cell_model(dt=0.002)
    # heavily congested first cell; external inflow is never supply limited
    state = SimState(rho=np.array([150.0]), q=np.array([20.0]))
    flows = compute_flows(model, state, w0=2500.0)
    # outflow runs at full demand = capacity, so neither condition fires
    assert flows[1] == pytest.approx(5000.0)
    assert _REASONS[_reason_codes(model, state.rho, state.q, flows)[0]] \
        == NONRESTRICTIVE


def test_cells_without_queue_storage_are_never_restrictive():
    cells = [
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0),
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                   ramp_flow_max=1800.0, queue_max=0.0),
    ]
    model = FreewayModel(cells, dt=0.002)
    state = SimState(rho=np.array([60.0, 150.0]), q=np.array([0.0, 0.0]))
    flows = compute_flows(model, state, w0=0.0)
    assert _REASONS[_reason_codes(model, state.rho, state.q, flows)[1]] \
        == NONRESTRICTIVE


def test_report_summarizes_flags_consistently():
    sc = builtin_example1()
    traj = simulate(sc.model, sc.demand,
                    controller=make_controller("best_effort", sc.model),
                    initial_state=sc.initial)
    report = restrictiveness_report(sc.model, traj)
    assert report.restrictive.shape == (traj.horizon, sc.model.n)
    metered = sc.model.queue_max > 0
    frac = report.restrictive[:, metered].mean()
    assert report.restrictive_fraction == pytest.approx(float(frac))
    assert report.interior_clean == (not report.restrictive[1:].any())
    assert report.restrictive_fraction > 0.0
    reasons = np.array(report.reasons, dtype=object)
    assert reasons.shape == (traj.horizon, sc.model.n)
    flagged = reasons[report.restrictive]
    assert flagged.size and all(r in (SUPPLY_LIMITED, DEMAND_LIMITED)
                                for r in flagged)
    assert all(r == NONRESTRICTIVE for r in reasons[~report.restrictive])


def _scalar_reason(model, rho, q, flows, k):
    """The restrictiveness rule written out for one cell k (1-based)."""
    i = k - 1
    eps_q = 1e-9 * max(1.0, model.queue_max[i])
    if k >= 2:
        cap_up = model.capacity[i - 1]
        eps = 1e-6 * cap_up
        if (q[i] < model.queue_max[i] - eps_q
                and abs(flows[i] - float(model.supply(rho)[i])) <= eps
                and flows[i] < cap_up - eps):
            return SUPPLY_LIMITED
    cap = model.capacity[i]
    eps = 1e-6 * cap
    if (q[i] > eps_q and abs(flows[i + 1] - float(model.demand(rho)[i])) <= eps
            and flows[i + 1] < cap - eps):
        return DEMAND_LIMITED
    return NONRESTRICTIVE


def _restrictiveness_cases():
    rng = np.random.default_rng(31)
    for i in range(6):
        model = random_model(rng)
        yield f"random{i}", model, random_demand(rng, model, 40, load=0.9), None
    sc = builtin_example1()
    yield "example1", sc.model, sc.demand, sc.initial


@pytest.mark.parametrize("drop", [0.0, 0.1], ids=["monotone", "capacity_drop"])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["best_effort", "alinea", "none"])
def test_report_equals_a_loop_over_classify_cell(kind, sigma, drop):
    """The report equals the rule written out cell by cell, and its
    summary fields follow from those reasons."""
    seen = set()
    for label, model, demand, initial in _restrictiveness_cases():
        plant = with_capacity_drop(model, drop)
        law = None if kind == "none" else make_controller(kind, model)
        noise = DisturbanceSpec(sigma, seed=5) if sigma else None
        traj = simulate(plant, demand, law, disturbance=noise,
                        initial_state=initial)
        report = restrictiveness_report(plant, traj)
        T, n = traj.horizon, plant.n
        oracle = [[_scalar_reason(plant, traj.rho[t], traj.q[t],
                                  traj.flows[t], k)
                   for k in range(1, n + 1)] for t in range(T)]
        assert report.reasons == oracle, label
        flags = np.array([[r != NONRESTRICTIVE for r in row]
                          for row in oracle])
        np.testing.assert_array_equal(report.restrictive, flags)
        metered = plant.queue_max > 0.0
        pairs = T * int(metered.sum())
        want = float(flags[:, metered].sum()) / pairs if pairs else 0.0
        assert report.restrictive_fraction == want, label
        assert report.interior_clean == (not flags[1:].any()), label
        seen.update(r for row in oracle for r in row)
    assert seen == {NONRESTRICTIVE, SUPPLY_LIMITED, DEMAND_LIMITED}


def test_report_reason_follows_a_nudged_flow():
    """Negative control: moving one flow off the curve it sat on changes
    that pair's reason, and the per-cell rule agrees."""
    sc = builtin_example1()
    traj = simulate(sc.model, sc.demand,
                    make_controller("best_effort", sc.model),
                    initial_state=sc.initial)
    report = restrictiveness_report(sc.model, traj)
    for reason, column in ((SUPPLY_LIMITED, 0), (DEMAND_LIMITED, 1)):
        t, i = next((t, i) for t, row in enumerate(report.reasons)
                    for i, r in enumerate(row) if r == reason)
        flows = traj.flows.copy()
        flows[t, i + column] -= 1e-3 * sc.model.capacity[i]
        nudged = restrictiveness_report(sc.model, replace(traj, flows=flows))
        assert nudged.reasons[t][i] != reason
        assert nudged.reasons[t][i] == _scalar_reason(
            sc.model, traj.rho[t], traj.q[t], flows[t], i + 1)


def test_report_refuses_a_batch():
    sc = builtin_example1()
    batch = simulate(sc.model, sc.demand,
                     make_controller("best_effort", [sc.model, sc.model]),
                     initial_state=sc.initial)
    with pytest.raises(ValueError, match="one run"):
        restrictiveness_report(sc.model, batch)
    assert restrictiveness_report(sc.model, batch.run(1)).reasons \
        == restrictiveness_report(sc.model, batch.run(0)).reasons


# ---------------------------------------------------------------------------
# bounds

@pytest.mark.parametrize("make", [builtin_example1, builtin_example2,
                                  lambda: builtin_grenoble(0)],
                         ids=["example1", "example2", "grenoble"])
def test_bounds_equal_separate_greedy_and_relaxed_runs(make):
    sc = make()
    b = tts_bounds(sc.model, sc.demand, sc.initial)
    be = simulate(sc.model, sc.demand,
                  make_controller("best_effort", sc.model),
                  initial_state=sc.initial)
    lb = simulate(sc.model, sc.demand,
                  make_controller("best_effort", sc.model),
                  initial_state=sc.initial, relaxed=True)
    assert b.tts_be == evaluate_metrics(sc.model, be).tts
    assert b.tts_lb == evaluate_metrics(sc.model, lb).tts
    for name in ("rho", "q", "flows", "rates"):
        np.testing.assert_array_equal(getattr(b.greedy, name),
                                      getattr(be, name))
    assert b.restrictiveness.reasons \
        == restrictiveness_report(sc.model, be).reasons


def _corridor63() -> Scenario:
    model, demand = tiled_grenoble()
    return Scenario("corridor63", model, demand, zero_state(model))


@pytest.mark.parametrize("make", [builtin_example1, builtin_example2,
                                  lambda: builtin_grenoble(0), _corridor63],
                         ids=["example1", "example2", "grenoble",
                              "corridor63"])
def test_bounds_equal_the_pair_on_the_unstacked_plant(make):
    """tts_bounds runs its pair on a two-run stack; the reference is the
    same pair on the unstacked plant, whose batch broadcasts the plant's
    parameters. Both bounds and the greedy history agree bit for bit."""
    sc = make()
    b = tts_bounds(sc.model, sc.demand, sc.initial)
    pair = simulate(sc.model, sc.demand,
                    make_controller("best_effort", sc.model),
                    initial_state=sc.initial, relaxed=(False, True))
    assert b.tts_be == evaluate_metrics(sc.model, pair.run(0)).tts
    assert b.tts_lb == evaluate_metrics(sc.model, pair.run(1)).tts
    for name in ("rho", "q", "flows", "rates"):
        assert getattr(b.greedy, name).tobytes() \
            == getattr(pair.run(0), name).tobytes(), name


def test_the_bounds_pair_reads_its_plant_row(monkeypatch):
    """The pair runs on a two-run stack that its law believes too, so the
    law reads the plant's flow row off the state and predicts none of its
    own, and none of its operands broadcast. Negative control: a law
    believing an equal but distinct stack predicts its row at every step,
    and lands on the same bits."""
    predicted = []
    own = controllers.internal_flows

    def counted(*args):
        predicted.append(1)
        return own(*args)
    monkeypatch.setattr(controllers, "internal_flows", counted)
    pairs = []

    def recorded(model, demand, controller, **kw):
        pairs.append((model, controller.internal_model))
        return simulate(model, demand, controller, **kw)
    monkeypatch.setattr(cumulative, "simulate", recorded)
    sc = builtin_example1()
    b = tts_bounds(sc.model, sc.demand, sc.initial)
    [(plant, belief)] = pairs
    assert plant.runs == 2 and belief is plant
    assert predicted == []
    other = FreewayModel.stack([sc.model, sc.model])
    pair = simulate(FreewayModel.stack([sc.model, sc.model]), sc.demand,
                    make_controller("best_effort", other),
                    initial_state=sc.initial, relaxed=(False, True))
    assert len(predicted) == sc.demand.horizon
    assert pair.run(0).rates.tobytes() == b.greedy.rates.tobytes()


def test_bounds_refuse_capacity_drop_models():
    sc = builtin_example1()
    with pytest.raises(UnsupportedModelError, match="monotonicity"):
        tts_bounds(with_capacity_drop(sc.model, 0.1), sc.demand, sc.initial)
    # negative control: the same corridor without the drop is monotone
    b = tts_bounds(with_capacity_drop(sc.model, 0.0), sc.demand, sc.initial)
    assert b.tts_lb <= b.tts_be


@pytest.mark.parametrize("refuse", [tts_bounds, build_lp])
def test_parameters_outside_their_ranges_are_refused(refuse):
    """A negative drop and a NaN length break validate_model's range rules,
    so neither the bound sandwich nor the LP answers for them; the same
    corridor with finite in-range values (negative control) answers."""
    sc = builtin_example1()
    nan_length = sc.model.with_cells(
        [replace(sc.model.cells[0], length=math.nan), *sc.model.cells[1:]])
    for bad, where in ((with_capacity_drop(sc.model, -0.2),
                        "cell 1: 0 <= capacity_drop < 1"),
                       (nan_length, "cell 1: length > 0: length=nan")):
        with pytest.raises(UnsupportedModelError,
                           match=f"outside their ranges: {where}"):
            refuse(bad, sc.demand, sc.initial)
    refuse(with_capacity_drop(sc.model, 0.0), sc.demand, sc.initial)
    refuse(sc.model.with_cells(sc.model.cells), sc.demand, sc.initial)


def test_bounds_sandwich_on_builtin_examples():
    for sc in (builtin_example1(), builtin_example2()):
        b = tts_bounds(sc.model, sc.demand, sc.initial)
        assert isinstance(b, BoundsReport)
        assert b.tts_lb <= b.tts_be + 1e-9
        assert b.gap_abs == pytest.approx(b.tts_be - b.tts_lb, abs=1e-12)
        assert b.gap_rel == pytest.approx(b.gap_abs / b.tts_be, rel=1e-12)
        assert b.certificate == "bounded"
        assert b.restrictive_fraction > 0.0


def test_bounds_certify_optimality_without_restrictive_steps():
    """Light traffic never congests, queues drain instantly: the greedy
    law is provably optimal and the certificate must say so."""
    rng = np.random.default_rng(11)
    model = _two_cell_bottleneck()
    demand = random_demand(rng, model, 40, load=0.25)
    b = tts_bounds(model, demand)
    assert b.certificate == "optimal"
    assert b.restrictive_fraction == 0.0


def test_random_scenarios_keep_bounds_ordered():
    rng = np.random.default_rng(12)
    for _ in range(10):
        model = random_model(rng)
        demand = random_demand(rng, model, 30, load=0.7)
        b = tts_bounds(model, demand)
        assert b.tts_lb <= b.tts_be + 1e-9 * max(1.0, b.tts_be)
        assert b.certificate in ("optimal", "bounded")
