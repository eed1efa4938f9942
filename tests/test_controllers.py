import numpy as np
import pytest

from rampflow.controllers import (
    KINDS,
    ControllerSpec,
    internal_flows,
    make_controller,
    sample_controller_model,
)
from rampflow import controllers
from rampflow.model import CellParams, FreewayModel, validate_model
from rampflow.scenarios import builtin_example1, builtin_example2, builtin_grenoble
from rampflow.simulator import (
    DemandProfile,
    DisturbanceSpec,
    RateSchedule,
    SimState,
    _rate_bounds,
    _rate_caps,
    simulate,
    step,
)

from conftest import one_step_rates, random_demand, random_model


def ramp_cell_model(dt=0.01, **kw):
    base = dict(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                ramp_flow_max=1800.0, queue_max=1000.0)
    base.update(kw)
    return FreewayModel([CellParams(**base)], dt=dt)


def test_best_effort_saturates_at_rate_cap():
    m = ramp_cell_model()
    # predicted flows (3000, 4000); tracking term: 100*(50-40) + 4000/1 - 3000
    # = 2000, cap clips to 1800
    r = one_step_rates(m, "best_effort", SimState([40.0], [10.0]),
                      np.array([3000.0, 1000.0]))
    assert r[0] == pytest.approx(1800.0, rel=1e-12)


def test_relaxed_best_effort_ignores_rate_cap():
    m = ramp_cell_model()
    # same tracking term 2000; only the queue-box bound q/dt + w = 2000 binds
    r = one_step_rates(m, "best_effort", SimState([40.0], [10.0]),
                      np.array([3000.0, 1000.0]), relaxed=True)
    assert r[0] == pytest.approx(2000.0, rel=1e-12)


def test_relaxed_best_effort_can_go_negative():
    m = ramp_cell_model(queue_max=100.0)
    # congested cell with predicted flows (3000, 5000) wants
    # 100*(50-200) + 5000 - 3000 = -13000; queue box allows down to
    # (50-100)/dt = -5000
    r = one_step_rates(m, "best_effort", SimState([200.0], [50.0]),
                      np.array([3000.0, 0.0]), relaxed=True)
    assert r[0] == pytest.approx(-5000.0, rel=1e-12)


def test_alinea_update_and_antiwindup():
    m = ramp_cell_model()
    # step 0: empty queue and no arrivals pin the rate at 0 (raw 70*40);
    # step 1: raw 0 + 70*(50-20) = 2100, clipped to q/dt + w = 1000;
    # step 2: the integrator resumes from the applied 1000, not from the
    # raw 2800 + 2100: 1000 + 70*(50-60) = 300, inside [0, 500]
    dem = DemandProfile(w0=np.array([2000.0, 5000.0, 3000.0]),
                        w_ramp=np.array([[0.0], [1000.0], [500.0]]))
    traj = simulate(m, dem, make_controller("alinea", m, ki=70.0),
                    initial_state=SimState([10.0], [0.0]))
    assert traj.rho[1:3, 0] == pytest.approx([20.0, 60.0], rel=1e-12)
    assert traj.rates[0, 0] == 0.0
    assert traj.rates[1, 0] == pytest.approx(1000.0, rel=1e-12)
    assert traj.rates[2, 0] == pytest.approx(300.0, rel=1e-12)


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
        lo, hi = _rate_bounds(m, q, w_row[1:], _rate_caps(m, False))
        r = np.clip(spec.compute_rates(0, state, w_row, None), lo, hi)
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
    for kind in KINDS:
        for relaxed in (False, True):
            traj = simulate(m, dem, controller=make_controller(kind, m),
                            relaxed=relaxed)
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


@pytest.mark.parametrize("dv, drho", [
    (-0.05, 0.0), (0.0, -0.1), (float("nan"), 0.0), (0.0, float("inf"))])
def test_sample_controller_model_refuses_bad_half_widths(dv, drho):
    with pytest.raises(ValueError, match="dv|drho"):
        sample_controller_model(ramp_cell_model(), dv=dv, drho=drho, seed=0)


@pytest.mark.parametrize("ki", [-5.0, float("nan"), float("inf")])
def test_controller_refuses_a_bad_integral_gain(ki):
    with pytest.raises(ValueError, match="ki"):
        make_controller("alinea", ramp_cell_model(), ki=ki)


@pytest.mark.parametrize("ki", [0.0, 70.0])
def test_a_zero_or_stock_integral_gain_runs(ki):
    """Negative control for the gain refusal."""
    m, dem = _steady_ramp_case()
    traj = simulate(m, dem, make_controller("alinea", m, ki=ki))
    assert np.all(np.isfinite(traj.rates))


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


class _OwnPrediction:
    """The greedy law predicting its flow row with ``internal_flows`` at
    every step, whatever the plant: the reference for the shared row."""

    def __init__(self, belief: FreewayModel):
        self.m = belief

    def compute_rates(self, t, state, w_row, r_prev):
        m = self.m
        flows_now = internal_flows(m, state.rho, w_row[0])
        return (m._length_over_dt * (m.rho_crit - state.rho)
                + flows_now[..., 1:] / m.beta_bar - flows_now[..., :-1])


def _edge_state(model: FreewayModel, demand: DemandProfile) -> SimState:
    """A state on its boxes' edges, some values outside by rounding only:
    jammed cells with empty queues between empty cells, whose queues are
    full where the arrivals never exceed the rate cap."""
    odd = np.arange(model.n) % 2 == 1
    calm = demand.w_ramp.max(axis=0) <= model.ramp_flow_max
    rho = np.where(odd, model.rho_jam * (1.0 + 1e-12), -1e-12)
    q = np.where(calm & ~odd, model.queue_max * (1.0 + 1e-12), 0.0)
    return SimState(rho, q)


def _greedy_runs(plant: FreewayModel, demand: DemandProfile) -> dict:
    """The runs the shared row serves: simulate's keywords by label."""
    return {
        "one run": {},
        "relaxed batch": {"relaxed": (False, True)},
        "noisy": {"disturbance": DisturbanceSpec(sigma_phi=0.05, seed=3)},
        "box edge": {"initial_state": _edge_state(plant, demand)},
    }


def _trajectory_bytes(traj) -> bytes:
    return b"".join(a.tobytes()
                    for a in (traj.rho, traj.q, traj.flows, traj.rates))


def _shared_row_mismatches(belief_of) -> list[str]:
    """Greedy runs on the builtins whose law, believing ``belief_of(plant)``,
    differs in any bit from the law that predicts its own row with an
    equal but distinct copy of that belief."""
    bad = []
    for sc in (builtin_example1(), builtin_example2(), builtin_grenoble()):
        plant = sc.model
        belief = belief_of(plant)
        copy = _OwnPrediction(belief.with_cells(belief.cells))
        for label, kw in _greedy_runs(plant, sc.demand).items():
            got = simulate(plant, sc.demand,
                           make_controller("best_effort", belief), **kw)
            want = simulate(plant, sc.demand, copy, **kw)
            if _trajectory_bytes(got) != _trajectory_bytes(want):
                bad.append(f"{sc.label}: {label}")
    return bad


def test_a_law_believing_the_plant_reads_the_plant_row(monkeypatch):
    predicted = []
    own = controllers.internal_flows

    def counted(*args):
        predicted.append(1)
        return own(*args)
    monkeypatch.setattr(controllers, "internal_flows", counted)
    # the plant itself: its row, never a prediction of its own
    assert _shared_row_mismatches(lambda plant: plant) == []
    assert predicted == []
    # an equal but distinct belief predicts its row, to the same bits
    copies = _shared_row_mismatches(lambda plant: plant.with_cells(plant.cells))
    assert copies == [] and predicted


def test_the_plant_row_is_not_read_by_a_mismatched_belief(monkeypatch):
    def mismatched(plant):
        return sample_controller_model(plant, dv=0.1, drho=0.2, seed=11)
    assert _shared_row_mismatches(mismatched) == []
    # negative control: a law that reads the plant row whatever it believes
    greedy = ControllerSpec.compute_rates

    def any_belief(self, t, state, w_row, r_prev):
        if state._plant is not None and self.kind == "best_effort":
            m = self.internal_model
            flows_now = state._plant_flows
            return (m._length_over_dt * (m.rho_crit - state.rho)
                    + flows_now[..., 1:] / m.beta_bar - flows_now[..., :-1])
        return greedy(self, t, state, w_row, r_prev)
    monkeypatch.setattr(ControllerSpec, "compute_rates", any_belief)
    assert _shared_row_mismatches(mismatched)
