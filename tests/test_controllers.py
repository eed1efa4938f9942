import numpy as np
import pytest

from rampflow.controllers import (
    ControllerSpec,
    best_effort_rates,
    internal_flows,
    make_controller,
    relaxed_best_effort_rates,
    sample_controller_model,
)
from rampflow.model import CellParams, FreewayModel, validate_model
from rampflow.simulator import DemandProfile, RateSchedule, SimState, simulate

from conftest import random_demand, random_model


def ramp_cell_model(dt=0.01, **kw):
    base = dict(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                ramp_flow_max=1800.0, queue_max=1000.0)
    base.update(kw)
    return FreewayModel([CellParams(**base)], dt=dt)


def test_best_effort_saturates_at_rate_cap():
    m = ramp_cell_model()
    spec = make_controller("best_effort", m)
    # tracking term: 100*(50-40) + 3000/1 - 2000 = 2000, cap clips to 1800
    r = best_effort_rates(spec, SimState([40.0], [10.0]),
                          flows_now=np.array([2000.0, 3000.0]),
                          w_now=np.array([1000.0]))
    assert r[0] == pytest.approx(1800.0, rel=1e-12)


def test_relaxed_best_effort_ignores_rate_cap():
    m = ramp_cell_model()
    spec = make_controller("relaxed_best_effort", m)
    # same tracking term 2000; only the queue-box bound q/dt + w = 2000 binds
    r = relaxed_best_effort_rates(spec, SimState([40.0], [10.0]),
                                  flows_now=np.array([2000.0, 3000.0]),
                                  w_now=np.array([1000.0]))
    assert r[0] == pytest.approx(2000.0, rel=1e-12)


def test_relaxed_best_effort_can_go_negative():
    m = ramp_cell_model(queue_max=100.0)
    spec = make_controller("relaxed_best_effort", m)
    # congested cell wants -13000; queue box allows down to (50-100)/dt = -5000
    r = relaxed_best_effort_rates(spec, SimState([200.0], [50.0]),
                                  flows_now=np.array([3000.0, 5000.0]),
                                  w_now=np.array([0.0]))
    assert r[0] == pytest.approx(-5000.0, rel=1e-12)


def test_alinea_update_and_antiwindup():
    m = ramp_cell_model()
    spec = make_controller("alinea", m, ki=70.0)
    r, memory = spec.compute_rates(SimState([60.0], [0.0]),
                                   np.array([0.0, 500.0]),
                                   memory=np.array([1000.0]))
    # 1000 + 70*(50-60) = 300, inside [0, 500]
    assert r[0] == pytest.approx(300.0, rel=1e-12)
    assert memory[0] == pytest.approx(300.0, rel=1e-12)
    # empty queue and no arrivals pin the rate (and the returned memory) at 0
    r, memory = spec.compute_rates(SimState([10.0], [0.0]),
                                   np.array([0.0, 0.0]), memory)
    assert r[0] == 0.0
    assert memory[0] == 0.0


def test_best_effort_tracks_critical_density_when_unclamped():
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(200):
        m = random_model(rng)
        spec = make_controller("best_effort", m)
        rho = rng.uniform(0.0, m.rho_jam)
        q = rng.uniform(0.0, m.queue_max)
        state = SimState(rho, q)
        w_row = np.concatenate((
            [rng.uniform(0.0, 2000.0)],
            rng.uniform(0.0, m.ramp_flow_max)))
        flows = internal_flows(m, rho, w_row[0])
        r, _ = spec.compute_rates(state, w_row)
        from rampflow.simulator import _rate_bounds, step
        lo, hi = _rate_bounds(m, q, w_row[1:])
        unclamped = lo + 1e-7 < r
        unclamped &= r < hi - 1e-7
        if not np.any(unclamped):
            continue
        hits += 1
        nxt, _ = step(m, state, r, w_row)
        np.testing.assert_allclose(nxt.rho[unclamped], m.rho_crit[unclamped],
                                   rtol=1e-9, atol=1e-9)
    assert hits > 20


def test_controller_kinds_run_in_closed_loop():
    rng = np.random.default_rng(5)
    m = random_model(rng)
    dem = random_demand(rng, m, horizon=30)
    for kind in ("none", "best_effort", "relaxed_best_effort", "alinea"):
        ctrl = make_controller(kind, m)
        traj = simulate(m, dem, controller=ctrl,
                        relaxed=(kind == "relaxed_best_effort"))
        assert traj.horizon == 30


def test_unknown_kind_rejected():
    m = ramp_cell_model()
    with pytest.raises(ValueError):
        ControllerSpec(kind="bang_bang", internal_model=m)


def test_internal_flows_clips_out_of_range_measurements():
    m = ramp_cell_model()
    belief = sample_controller_model(m, dv=0.0, drho=0.2, seed=13)
    rho_true = np.array([belief.rho_jam[0] + 30.0])
    phi = internal_flows(belief, rho_true, w0=0.0)
    assert np.all(np.isfinite(phi))
    assert phi[1] >= 0.0


def test_sample_controller_model_deterministic_and_in_range():
    m = ramp_cell_model()
    a = sample_controller_model(m, dv=0.05, drho=0.10, seed=3)
    b = sample_controller_model(m, dv=0.05, drho=0.10, seed=3)
    c = sample_controller_model(m, dv=0.05, drho=0.10, seed=4)
    assert a.v_free[0] == b.v_free[0]
    assert a.v_free[0] != c.v_free[0]
    assert abs(a.v_free[0] - 100.0) <= 5.0 + 1e-9
    assert abs(a.rho_jam[0] - 250.0) <= 25.0 + 1e-9
    # critical density is left alone; wave speed re-derived
    assert a.rho_crit[0] == 50.0
    expected_w = a.v_free[0] * 50.0 / (a.rho_jam[0] - 50.0)
    assert a.w_back[0] == pytest.approx(expected_w, rel=1e-12)
    assert validate_model(a) == []


def test_sample_controller_model_zero_mismatch_is_identity():
    m = ramp_cell_model()
    a = sample_controller_model(m, dv=0.0, drho=0.0, seed=0)
    assert a.v_free[0] == m.v_free[0]
    assert a.rho_jam[0] == m.rho_jam[0]
    assert a.capacity[0] == m.capacity[0]


def _steady_ramp_case():
    """One metered cell under constant load: the alinea integrator and the
    replay cursor are both still moving at the end of the horizon."""
    m = ramp_cell_model()
    T = 40
    dem = DemandProfile(w0=np.full(T, 3000.0), w_ramp=np.full((T, 1), 400.0))
    return m, dem


def test_rate_schedule_can_be_simulated_twice():
    m, dem = _steady_ramp_case()
    schedule = RateSchedule(simulate(m, dem, make_controller("best_effort", m)).rates)
    first = simulate(m, dem, schedule)
    second = simulate(m, dem, schedule)
    np.testing.assert_array_equal(first.rates, schedule.rates)
    np.testing.assert_array_equal(second.rates, first.rates)
    np.testing.assert_array_equal(second.rho, first.rho)


def test_alinea_controller_reused_starts_from_a_clean_integrator():
    m, dem = _steady_ramp_case()
    ctrl = make_controller("alinea", m)
    # a waiting queue keeps the first rate of a run off its bounds, so a
    # leftover integrator would show in it
    start = SimState([49.0], [500.0])
    first = simulate(m, dem, ctrl, initial_state=start)
    assert first.rates[-1, 0] > 0.0     # the integrator ends away from zero
    second = simulate(m, dem, ctrl, initial_state=start)
    np.testing.assert_array_equal(second.rates, first.rates)
    np.testing.assert_array_equal(second.rho, first.rho)
