from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rampflow.controllers import KINDS, make_controller, sample_controller_model
from rampflow.cumulative import cctm_step, cumulative_from_state, tts_bounds
from rampflow.lp import build_lp, solve_lp
from rampflow.model import CellParams, FreewayModel
from rampflow.scenarios import (
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
    with_capacity_drop,
)
from rampflow.simulator import (
    ContractViolationError,
    DemandProfile,
    DisturbanceSpec,
    SimState,
    _ZERO,
    _check_state,
    _clip,
    _dot,
    _rate_bounds,
    _rate_caps,
    compute_flows,
    evaluate_metrics,
    feasible_rate_interval,
    freeflow_traverse_times,
    mass_conservation_residual,
    simulate,
    step,
)

from conftest import one_step_rates, random_demand, random_model, random_state
from oracles import brute_force_max_next_flows
from test_model import demand_value, supply_value


def one_cell(dt=0.01, **kw):
    base = dict(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0)
    base.update(kw)
    return FreewayModel([CellParams(**base)], dt=dt)


def test_compute_flows_single_cell():
    m = one_cell()
    phi = compute_flows(m, SimState([30.0], [0.0]), w0=1200.0)
    assert phi[0] == 1200.0
    assert phi[1] == pytest.approx(3000.0, rel=1e-12)


def test_compute_flows_supply_limited():
    cells = [
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0),
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0),
    ]
    m = FreewayModel(cells, dt=0.005)
    # downstream near jam: supply 25*(250-240) = 250 beats demand 3000
    phi = compute_flows(m, SimState([30.0, 240.0], [0.0, 0.0]), w0=0.0)
    assert phi[1] == pytest.approx(250.0, rel=1e-12)
    # exit flow of the last cell ignores supply
    assert phi[2] == pytest.approx(5000.0, rel=1e-12)


def test_compute_flows_respects_capacity_override():
    m = one_cell(capacity=1000.0)
    phi = compute_flows(m, SimState([40.0], [0.0]), w0=0.0)
    assert phi[1] == pytest.approx(1000.0, rel=1e-12)


def _scalar_flows(cells, rho, w0: float) -> list[float]:
    """phi_0 .. phi_n from the scalar curves, one cell at a time."""
    n = len(cells)
    phi = [w0]
    for k, cell in enumerate(cells):
        f = min(demand_value(cell, rho[k]), cell.capacity)
        if k + 1 < n:
            f = min(f, supply_value(cells[k + 1], rho[k + 1]))
        phi.append(f)
    return phi


def _flow_cases():
    """(model, per-run cell lists, densities, w0): single and stacked
    states on a single and a stacked model, with densities exactly at
    rho_crit and rho_jam, dropping cells and a binding capacity."""
    base = [dict(rho_crit=50.0, rho_jam=250.0),
            dict(rho_crit=40.0, rho_jam=200.0, beta=0.2, capacity_drop=0.1),
            dict(rho_crit=60.0, rho_jam=300.0, capacity=4000.0),
            dict(rho_crit=45.0, rho_jam=240.0, beta=0.1, capacity_drop=0.3),
            dict(rho_crit=55.0, rho_jam=260.0)]
    cells = [CellParams(length=1.0, v_free=90.0 + 5 * k, **kw)
             for k, kw in enumerate(base)]
    alt = [replace(c, v_free=c.v_free * 1.1, capacity_drop=0.2 - c.beta)
           for c in cells]
    single = FreewayModel(cells, dt=0.002)
    members = [single, FreewayModel(alt, dt=0.002), single]
    stack = FreewayModel.stack(members)
    resolved = [m.cells for m in members]
    rng = np.random.default_rng(5)

    def densities(shape, jam):
        rho = rng.uniform(0.0, jam, size=shape)
        pick = rng.random(shape)
        crit = np.broadcast_to(stack.rho_crit if len(shape) > 1
                               else single.rho_crit, shape)
        rho = np.where(pick < 0.2, crit, rho)
        return np.where(pick > 0.85, np.broadcast_to(jam, shape), rho)

    for _ in range(20):
        rho = densities((5,), single.rho_jam)
        yield single, [single.cells], rho, 1500.0
        yield stack, resolved, rho, 1500.0
        rows = densities((3, 5), single.rho_jam)
        yield single, [single.cells] * 3, rows, 900.0
        yield stack, resolved, densities((3, 5), stack.rho_jam), 900.0


def _flow_mismatches() -> int:
    """Entries where compute_flows differs from the scalar curves."""
    bad = 0
    for model, runs, rho, w0 in _flow_cases():
        got = compute_flows(model, SimState(rho, np.zeros_like(rho)), w0)
        rows = np.broadcast_to(rho, (len(runs), rho.shape[-1])) \
            if model.runs else np.atleast_2d(rho)
        want = np.array([_scalar_flows(c, r, w0) for c, r in zip(runs, rows)])
        bad += int(np.sum(np.atleast_2d(got) != want))
    return bad


def test_compute_flows_equals_the_scalar_curves(monkeypatch):
    assert _flow_mismatches() == 0
    # negative control: the drop applied at rho_crit itself
    def drop_at_crit(self, rho):
        free = self._demand_slope * np.minimum(rho, self.rho_crit)
        return np.where(rho >= self.rho_crit, self._demand_dropped, free)
    monkeypatch.setattr(FreewayModel, "demand", drop_at_crit)
    assert _flow_mismatches() > 0


def test_feasible_rate_interval():
    m = one_cell(dt=1.0 / 240.0, ramp_flow_max=1800.0, queue_max=50.0)
    lo, hi = feasible_rate_interval(m, 1, q_k=50.0, w_k=1000.0)
    # full queue forces at least the arrivals through; cap holds the top
    assert lo == pytest.approx(1000.0, rel=1e-12)
    assert hi == pytest.approx(1800.0, rel=1e-12)
    lo, hi = feasible_rate_interval(m, 1, q_k=0.0, w_k=500.0)
    assert lo == 0.0
    assert hi == pytest.approx(500.0, rel=1e-12)
    for k in (0, 2):
        with pytest.raises(ValueError, match="outside 1..1"):
            feasible_rate_interval(m, k, q_k=0.0, w_k=500.0)


def test_step_density_update():
    m = one_cell(dt=0.01)
    state, phi = step(m, SimState([30.0], [0.0]), np.zeros(1),
                      np.array([2000.0, 0.0]))
    assert phi.tolist() == [2000.0, 3000.0]
    # 30 + 0.01 * (2000 - 3000) = 20
    assert state.rho[0] == pytest.approx(20.0, rel=1e-12)


def test_step_queue_update():
    m = one_cell(dt=0.01, ramp_flow_max=2000.0, queue_max=100.0)
    state, _ = step(m, SimState([0.0], [10.0]), np.array([500.0]),
                    np.array([0.0, 1500.0]))
    assert state.q[0] == pytest.approx(10.0 + 0.01 * 1000.0, rel=1e-12)


def test_step_rejects_infeasible_rate():
    m = one_cell(dt=0.01, ramp_flow_max=1000.0, queue_max=100.0)
    with pytest.raises(ContractViolationError):
        step(m, SimState([0.0], [0.0]), np.array([500.0]),
             np.array([0.0, 0.0]))  # queue empty, no arrivals: only 0 feasible


def test_relaxed_step_allows_negative_rates():
    m = one_cell(dt=0.01, ramp_flow_max=1000.0, queue_max=100.0)
    # congested cell (outflow capped at 5000) sheds 2000 cars/h to the ramp
    state, _ = step(m, SimState([100.0], [50.0]), np.array([-2000.0]),
                    np.array([0.0, 0.0]), relaxed=True)
    assert state.q[0] == pytest.approx(70.0, rel=1e-12)
    assert state.rho[0] == pytest.approx(100.0 + 0.01 * (-2000.0 - 5000.0),
                                         rel=1e-12)
    with pytest.raises(ContractViolationError):
        # below even the relaxed queue-box bound (q - q_max)/dt + w = -5000
        step(m, SimState([100.0], [50.0]), np.array([-6000.0]),
             np.array([0.0, 0.0]), relaxed=True)


def test_step_and_compute_flows_refuse_a_state_outside_its_boxes():
    """``step`` and ``compute_flows`` check their state as ``simulate``
    does. Unchecked, a step from a second cell 10 cars/km over its jam
    density sent -250 cars/h into that cell, and the flow row at 50 over
    read -1250 cars/h. Negative control: a density over its jam density
    by 1e-12 relative is over by rounding only, and both run from the
    clipped state."""
    cell = CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0)
    m = FreewayModel([cell, cell], dt=0.005)
    w_row = np.zeros(3)
    with pytest.raises(ContractViolationError, match=r"density outside "
                       r"its box at cell 2: value 260\.0 outside"):
        step(m, SimState([100.0, 260.0], [0.0, 0.0]), np.zeros(2), w_row)
    with pytest.raises(ContractViolationError, match=r"density outside "
                       r"its box at cell 2: value 300\.0 outside"):
        compute_flows(m, SimState([100.0, 300.0], [0.0, 0.0]), 0.0)

    over = SimState([100.0, 250.0 * (1.0 + 1e-12)], [0.0, 0.0])
    on = SimState([100.0, 250.0], [0.0, 0.0])
    assert over.rho[1] > 250.0
    nxt, phi = step(m, over, np.zeros(2), w_row)
    want, want_phi = step(m, on, np.zeros(2), w_row)
    assert phi.tolist() == want_phi.tolist() == [0.0, 0.0, 5000.0]
    assert nxt.rho.tolist() == want.rho.tolist()
    assert compute_flows(m, over, 0.0).tolist() == want_phi.tolist()


@pytest.mark.parametrize("what, bad, message", [
    ("rho", np.nan, r"density outside its box at cell 2: value nan outside "
                    r"\[0\.0, 250\.0\]"),
    ("q", np.nan, r"queue outside its box at cell 2: value nan outside "
                  r"\[0\.0, 50\.0\]"),
    ("q", 50.001, r"queue outside its box at cell 2: value 50\.001 outside"),
    ("q", -0.001, r"queue outside its box at cell 2: value -0\.001 outside"),
])
def test_the_state_check_refuses_nan_and_names_the_cell(what, bad, message):
    """``_check_state`` counts each box against the model's folded bounds
    and builds the message only on a failure: a NaN density or queue still
    fails, and the message names the cell. Negative control: a state over
    both boxes by 1e-12 relative passes, clipped onto them bit for bit as
    ``np.clip`` clips it."""
    cell = CellParams(length=1.0, v_free=100.0, rho_crit=50.0,
                      rho_jam=250.0, ramp_flow_max=1000.0, queue_max=50.0)
    m = FreewayModel([cell, cell], dt=0.005)
    state = {"rho": np.array([100.0, 200.0]), "q": np.array([0.0, 10.0])}
    state[what][1] = bad
    with pytest.raises(ContractViolationError, match=message):
        step(m, SimState._of(state["rho"], state["q"]), np.zeros(2),
             np.zeros(3))

    over = 1.0 + 1e-12
    rho, q = np.array([0.0, 250.0 * over]), np.array([0.0, 50.0 * over])
    got = _check_state(m, rho, q)
    assert [a.tobytes() for a in got] == [
        np.clip(rho, 0.0, 250.0).tobytes(), np.clip(q, 0.0, 50.0).tobytes()]


def test_a_stacked_state_check_names_the_run():
    """A stack checks one state against each member's boxes; the density
    that fits run 0's box but not run 1's is refused with run 1 named.
    Negative control: the stack of two equal members takes it."""
    cell = CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0)
    m = FreewayModel([cell, cell], dt=0.005)
    tight = FreewayModel([cell, replace(cell, rho_jam=190.0)], dt=0.005)
    rho, q = np.array([100.0, 200.0]), np.zeros(2)
    with pytest.raises(ContractViolationError, match=r"density outside its "
                       r"box at cell 2 of run 1: value 200\.0 outside"):
        _check_state(FreewayModel.stack([m, tight]), rho, q)
    got, _ = _check_state(FreewayModel.stack([m, m]), rho, q)
    assert got.tolist() == [[100.0, 200.0]] * 2


def test_demand_profile_validation():
    overload = DemandProfile(w0=np.zeros(5), w_ramp=np.full((5, 1), 1500.0))
    # a queue buffers arrivals above the metering cap ...
    overload.check_against(one_cell(ramp_flow_max=1000.0, queue_max=50.0))
    # ... but a queueless ramp cannot
    with pytest.raises(ValueError):
        overload.check_against(one_cell(ramp_flow_max=1000.0, queue_max=0.0))
    with pytest.raises(ValueError):
        DemandProfile(w0=-np.ones(5), w_ramp=np.zeros((5, 1)))
    with pytest.raises(ValueError):
        DemandProfile(w0=np.zeros(4), w_ramp=np.zeros((5, 1)))


def test_trajectory_reproduces_dynamics():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_model(rng)
        dem = random_demand(rng, m, horizon=40)
        traj = simulate(m, dem)
        for t in range(traj.horizon):
            phi, r = traj.flows[t], traj.rates[t]
            rho_pred = traj.rho[t] + m.dt / m.length * (
                phi[:-1] + r - phi[1:] / m.beta_bar)
            q_pred = traj.q[t] + m.dt * (dem.w_ramp[t] - r)
            np.testing.assert_allclose(traj.rho[t + 1], rho_pred,
                                       rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(traj.q[t + 1], q_pred,
                                       rtol=1e-9, atol=1e-9)


def test_mass_conservation_and_boxes():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_model(rng)
        dem = random_demand(rng, m, horizon=60)
        traj = simulate(m, dem)
        assert mass_conservation_residual(m, traj) < 1e-6
        assert np.all(traj.rho >= -1e-9)
        assert np.all(traj.rho <= m.rho_jam + 1e-9)
        assert np.all(traj.q >= -1e-9)
        assert np.all(traj.q <= m.queue_max + 1e-9)


def test_open_loop_releases_everything():
    m = one_cell(dt=0.01, ramp_flow_max=2000.0, queue_max=100.0)
    T = 20
    dem = DemandProfile(w0=np.zeros(T), w_ramp=np.full((T, 1), 800.0))
    traj = simulate(m, dem)
    # queue never builds: every arrival goes straight to the mainline
    np.testing.assert_allclose(traj.q, 0.0, atol=1e-9)
    np.testing.assert_allclose(traj.rates[:, 0], 800.0, rtol=1e-12)


def test_noise_clips_to_same_state_flows():
    m = one_cell(dt=0.005)
    state = SimState([30.0], [0.0])
    w_row = np.array([2000.0, 0.0])
    _, clean = step(m, state, np.zeros(1), w_row)
    rng = np.random.default_rng(7)
    saw_reduction = False
    for _ in range(50):
        _, noisy = step(m, state, np.zeros(1), w_row,
                        rng.normal(1.0, 0.1, size=2))
        assert np.all(noisy <= clean + 1e-12)
        assert np.all(noisy >= 0.0)
        saw_reduction |= bool(np.any(noisy < clean - 1.0))
    assert saw_reduction


def test_noisy_simulation_deterministic_per_seed():
    m = one_cell(dt=0.005)
    T = 50
    dem = DemandProfile(w0=np.full(T, 3000.0), w_ramp=np.zeros((T, 1)))
    noiseless = simulate(m, dem)
    a = simulate(m, dem, disturbance=DisturbanceSpec(sigma_phi=0.05, seed=9))
    b = simulate(m, dem, disturbance=DisturbanceSpec(sigma_phi=0.05, seed=9))
    np.testing.assert_array_equal(a.flows, b.flows)
    np.testing.assert_array_equal(a.rho, b.rho)
    assert not np.allclose(a.flows, noiseless.flows)
    assert np.all(a.rho >= 0.0) and np.all(a.rho <= m.rho_jam[0])


def test_runs_that_share_a_seed_share_one_draw(monkeypatch):
    """A batch whose runs repeat two seeds draws two blocks, and each
    run's block has the bits of its seed's own generator, as a batch of
    one run per seed gives it. Negative control: the two seeds' blocks
    differ."""
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(seed) or real(seed))
    seeds = [3, 5, 3, 3, 5]
    blocks = list(DisturbanceSpec(0.05, seed=seeds).factors(None, 7, 2))
    assert made == [3, 5]
    for seed, block in zip(seeds, blocks):
        assert block.tobytes() == real(seed).normal(
            1.0, 0.05, size=(7, 3)).tobytes()
    assert blocks[0].tobytes() != blocks[1].tobytes()


def test_sigma_zero_disturbance_matches_noiseless():
    m = one_cell(dt=0.005)
    T = 30
    dem = DemandProfile(w0=np.full(T, 2500.0), w_ramp=np.zeros((T, 1)))
    a = simulate(m, dem, disturbance=DisturbanceSpec(sigma_phi=0.0, seed=4))
    b = simulate(m, dem)
    np.testing.assert_array_equal(a.rho, b.rho)


def test_freeflow_traverse_times():
    cells = [
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                   beta=0.8),
        CellParams(length=1.0, v_free=100.0, rho_crit=10.0, rho_jam=20.0),
    ]
    m = FreewayModel(cells, dt=1.0 / 360.0)
    tau = freeflow_traverse_times(m)
    assert tau[0] == pytest.approx(1.0 / 100.0 + 0.2 * 1.0 / 100.0, rel=1e-12)
    assert tau[1] == pytest.approx(1.0 / 100.0, rel=1e-12)


def test_metrics_free_flow_total():
    # 500 cars crossing one 1 km cell at 100 km/h: 5 car-hours of free flow
    m = one_cell(dt=0.01)
    T = 50
    dem = DemandProfile(w0=np.full(T, 1000.0), w_ramp=np.zeros((T, 1)))
    traj = simulate(m, dem)
    met = evaluate_metrics(m, traj)
    assert met.tft == pytest.approx(5.0, rel=1e-12)
    assert met.tts >= met.tft - 1e-9
    assert met.twt == pytest.approx(met.tts - met.tft, rel=1e-12)


def test_tts_counts_states_and_queues():
    m = one_cell(dt=0.01, ramp_flow_max=1000.0, queue_max=50.0)
    T = 2
    dem = DemandProfile(w0=np.zeros(T), w_ramp=np.zeros((T, 1)))
    init = SimState([30.0], [10.0])
    traj = simulate(m, dem, initial_state=init)
    met = evaluate_metrics(m, traj)
    # densities decay 30 -> 0 via outflow 3000; queue drains at the cap
    rho_seq = traj.rho[:, 0]
    expect = 0.01 * (np.sum(rho_seq * 1.0) + np.sum(traj.q))
    assert met.tts == pytest.approx(expect, rel=1e-12)


def test_non_finite_inputs_are_refused():
    m = one_cell(dt=0.01, ramp_flow_max=1000.0, queue_max=50.0)
    T = 5
    w_ramp = np.full((T, 1), 100.0)
    # negative control: finite inputs build and run
    traj = simulate(m, DemandProfile(w0=np.full(T, 500.0), w_ramp=w_ramp),
                    initial_state=SimState([30.0], [10.0]))
    assert np.isfinite(evaluate_metrics(m, traj).tts)
    for bad in (np.nan, np.inf, -np.inf):
        w0 = np.full(T, 500.0)
        w0[2] = bad
        with pytest.raises(ValueError, match="finite"):
            DemandProfile(w0=w0, w_ramp=w_ramp)
        with pytest.raises(ValueError, match="finite"):
            SimState([bad], [0.0])
        with pytest.raises(ValueError, match="finite"):
            SimState([30.0], [bad])

    state = SimState([30.0], [10.0])
    w_row = np.array([500.0, 100.0])
    step(m, state, np.array([100.0]), w_row)   # negative control
    with pytest.raises(ContractViolationError, match="rate"):
        step(m, state, np.array([np.nan]), w_row)
    # a NaN inflow reaches the density, whose box check must catch it
    with pytest.raises(ContractViolationError, match="density"):
        step(m, state, np.array([100.0]), np.array([np.nan, 100.0]))


def test_noise_levels_outside_the_theory_are_refused():
    m = one_cell(dt=0.01, ramp_flow_max=1000.0, queue_max=50.0)
    dem = DemandProfile(w0=np.full(5, 500.0), w_ramp=np.full((5, 1), 100.0))
    for bad in (-0.3, -1e-12, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma_phi"):
            DisturbanceSpec(sigma_phi=bad, seed=1)
    # negative controls: no noise and a small noise level still run
    for ok in (0.0, 0.05):
        traj = simulate(m, dem, disturbance=DisturbanceSpec(ok, seed=1))
        assert np.isfinite(evaluate_metrics(m, traj).tts)


def test_step_refuses_non_finite_noise_factors():
    """A noisy step skips the density check, so a NaN factor would reach
    the state unseen; step refuses it up front, for one run or a batch."""
    m = one_cell(dt=0.01, ramp_flow_max=1000.0, queue_max=50.0)
    rates, w_row = np.array([100.0]), np.array([500.0, 100.0])
    one = SimState([30.0], [10.0])
    batch = SimState(np.full((2, 1), 30.0), np.full((2, 1), 10.0))
    for state, shape in ((one, (2,)), (batch, (2, 2))):
        for bad in (np.nan, np.inf):
            noise = np.full(shape, 0.9)
            noise[..., -1] = bad
            with pytest.raises(ValueError, match="noise factors"):
                step(m, state, rates, w_row, noise)
        # negative control: finite factors, also ones the clip cuts
        nxt, phi = step(m, state, rates, w_row, np.full(shape, 1.5))
        _, clean = step(m, state, rates, w_row)
        assert np.isfinite(nxt.rho).all()
        np.testing.assert_array_equal(phi, np.broadcast_to(clean, phi.shape))


RUN_FIELDS = ("rho", "q", "flows", "rates")


# every law, plus the greedy law in a relaxed run
LAWS = [pytest.param(kind, False, id=kind) for kind in KINDS] \
    + [pytest.param("best_effort", True, id="relaxed_best_effort")]


@pytest.mark.parametrize("drop", [0.0, 0.1], ids=["monotone", "capacity_drop"])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("kind,relaxed", LAWS)
def test_batch_of_r_equals_r_batches_of_one(kind, relaxed, sigma, drop):
    sc = builtin_example1()
    plant = with_capacity_drop(sc.model, drop)
    beliefs = [sample_controller_model(sc.model, 0.05, 0.10, seed=s)
               for s in range(3)]
    seeds = [11, 12, 13]

    def run(belief, seed):
        noise = DisturbanceSpec(sigma, seed=seed) if sigma else None
        return simulate(plant, sc.demand, make_controller(kind, belief),
                        disturbance=noise, initial_state=sc.initial,
                        relaxed=relaxed)

    batch = run(beliefs, seeds)
    T, n = sc.horizon, plant.n
    assert batch.rho.shape == (3, T + 1, n)
    assert batch.flows.shape == (3, T, n + 1)
    met = evaluate_metrics(plant, batch)
    assert met.tts.shape == met.twt.shape == (3,)
    worst = 0.0
    for r in range(3):
        one = run(beliefs[r], seeds[r])
        assert one.rho.shape == (T + 1, n)
        for name in RUN_FIELDS:
            np.testing.assert_allclose(getattr(batch, name)[r],
                                       getattr(one, name), rtol=1e-12, atol=0)
        assert met.tts[r] == pytest.approx(evaluate_metrics(plant, one).tts,
                                           rel=1e-12)
        worst = max(worst, mass_conservation_residual(plant, one))
    assert mass_conservation_residual(plant, batch) == pytest.approx(
        worst, rel=1e-12, abs=1e-15)


def test_a_batch_on_one_plant_runs_that_plant(monkeypatch):
    """simulate stacks nothing: a batch on a plant that is not a stack
    runs that plant, broadcasting its parameters, and the law's state
    names it. The same batch on the plant stacked by the caller (the
    reference, simulated before stacking is patched out) has the same
    bits."""
    sc = builtin_example1()
    law = make_controller("best_effort", sc.model)
    kw = dict(initial_state=sc.initial, relaxed=(False, True),
              disturbance=DisturbanceSpec(0.05, seed=[1, 2]))
    stacked = simulate(FreewayModel.stack([sc.model] * 2), sc.demand, law,
                       **kw)
    plants = []

    class Seen:
        def compute_rates(self, t, state, w_row, r_prev):
            plants.append(state._plant)
            return law.compute_rates(t, state, w_row, r_prev)

    def no_stack(cls, models):
        raise AssertionError("simulate stacked the plant")
    monkeypatch.setattr(FreewayModel, "stack", classmethod(no_stack))
    batch = simulate(sc.model, sc.demand, Seen(), **kw)
    assert len(plants) == sc.horizon
    assert all(plant is sc.model for plant in plants)
    for name in RUN_FIELDS:
        assert getattr(batch, name).tobytes() \
            == getattr(stacked, name).tobytes(), name


def test_batch_sizes_must_agree():
    sc = builtin_example1()
    beliefs = [sc.model, sc.model]
    with pytest.raises(ValueError, match="batch sizes disagree"):
        simulate(sc.model, sc.demand, make_controller("best_effort", beliefs),
                 disturbance=DisturbanceSpec(0.05, seed=[1, 2, 3]))
    # a single seed is shared by every run of the batch
    traj = simulate(sc.model, sc.demand, make_controller("best_effort", beliefs),
                    disturbance=DisturbanceSpec(0.05, seed=4))
    np.testing.assert_array_equal(traj.rho[0], traj.rho[1])


@pytest.mark.parametrize("empty", [
    dict(disturbance=DisturbanceSpec(0.05, seed=[])), dict(relaxed=[])],
    ids=["no-seeds", "no-relaxed-flags"])
def test_an_empty_batch_is_refused(empty):
    """An empty seed list once ran as one run on uninitialized noise (NaN
    flows and TTS, no error), and an empty list of relaxed flags failed
    inside numpy broadcasting. Negative control: a one-element list is a
    batch of 1, equal to the single run."""
    sc = builtin_example1()
    with pytest.raises(ValueError, match="a batch needs at least one run"):
        simulate(sc.model, sc.demand, **empty)
    single = simulate(sc.model, sc.demand,
                      disturbance=DisturbanceSpec(0.05, seed=3))
    for one in (dict(disturbance=DisturbanceSpec(0.05, seed=[3])),
                dict(disturbance=DisturbanceSpec(0.05, seed=3),
                     relaxed=[False])):
        traj = simulate(sc.model, sc.demand, **one)
        assert traj.rho.shape == (1,) + single.rho.shape
        assert traj.flows[0].tobytes() == single.flows.tobytes()


@pytest.mark.parametrize("make", [builtin_example1, builtin_example2,
                                  lambda: builtin_grenoble(0)],
                         ids=["example1", "example2", "grenoble"])
def test_per_run_relaxed_flags_equal_separate_runs(make):
    sc = make()
    law = make_controller("best_effort", sc.model)
    batch = simulate(sc.model, sc.demand, law, initial_state=sc.initial,
                     relaxed=(False, True))
    assert batch.rho.shape[0] == 2
    for r, relaxed in enumerate((False, True)):
        one = simulate(sc.model, sc.demand, law, initial_state=sc.initial,
                       relaxed=relaxed)
        for name in RUN_FIELDS:
            np.testing.assert_array_equal(getattr(batch, name)[r],
                                          getattr(one, name))


def test_per_run_relaxed_flags_differ_where_the_caps_bind():
    sc = builtin_example1()
    batch = simulate(sc.model, sc.demand,
                     make_controller("best_effort", sc.model),
                     initial_state=sc.initial, relaxed=(False, True))
    assert batch.rates[0].max() <= sc.model.ramp_flow_max.max()
    assert batch.rates[1].max() > sc.model.ramp_flow_max.max()


def test_relaxed_flags_must_match_the_batch():
    sc = builtin_example1()
    law = make_controller("best_effort", [sc.model] * 3)
    with pytest.raises(ValueError, match="batch sizes disagree"):
        simulate(sc.model, sc.demand, law, relaxed=(False, True))
    state = SimState(np.zeros((3, sc.model.n)), np.zeros((3, sc.model.n)))
    with pytest.raises(ValueError, match="relaxed flags"):
        step(sc.model, state, np.zeros((3, sc.model.n)), sc.demand.row(0),
             relaxed=(False, True))
    # negative control: one flag per run is accepted
    traj = simulate(sc.model, sc.demand, law, relaxed=(False, True, False))
    assert traj.rho.shape[0] == 3


# ---------------------------------------------------------------------------
# simulate's clamp is the only saturation


@pytest.mark.parametrize("kind", KINDS)
def test_relaxed_runs_waive_the_cap_for_every_law(kind):
    sc = builtin_example2()
    m = sc.model
    start = SimState(np.zeros(m.n), np.full(m.n, 50.0) * (m.queue_max > 0))
    w_row = sc.demand.row(0)
    raw = make_controller(kind, m, ki=1e6).compute_rates(0, start, w_row, None)
    applied = {}
    for flag in (False, True):
        applied[flag] = one_step_rates(m, kind, start, w_row, relaxed=flag,
                                       ki=1e6)
        lo, hi = _rate_bounds(m, start.q, w_row[1:], _rate_caps(m, flag))
        np.testing.assert_array_equal(applied[flag], np.clip(raw, lo, hi))
    # an empty corridor makes every law ask for more than the cap, and a
    # relaxed run lets it through up to the queue box
    ramps = m.ramp_flow_max > 0
    np.testing.assert_array_equal(applied[False][ramps],
                                  m.ramp_flow_max[ramps])
    assert np.all(applied[True][ramps] > m.ramp_flow_max[ramps])
    if kind == "none":
        assert applied[True][ramps].max() == pytest.approx(19_800.0)


def test_a_belief_is_saturated_by_the_plant_bounds():
    sc = builtin_example1()
    belief = FreewayModel([replace(c, ramp_flow_max=c.ramp_flow_max / 2)
                           for c in sc.model.cells], sc.model.dt)
    greedy = simulate(sc.model, sc.demand,
                      make_controller("best_effort", sc.model),
                      initial_state=sc.initial)
    halved = simulate(sc.model, sc.demand,
                      make_controller("best_effort", belief),
                      initial_state=sc.initial)
    # the greedy law never reads the ramp cap, so a belief that halves it
    # runs exactly like the nominal law
    assert halved.rates.max() > belief.ramp_flow_max.max()
    np.testing.assert_array_equal(halved.rates, greedy.rates)
    assert evaluate_metrics(sc.model, halved).tts == pytest.approx(
        13.530489, abs=5e-7)


# ---------------------------------------------------------------------------
# simulate's fused loop against a loop of public steps


def step_loop(plant, demand, law, initial, sigma, seed, relaxed):
    """The closed loop as the reference writes it: clamp the law's raw
    rate into the plant's interval, then one checked ``step`` given that
    step's noise factors, which each run draws from its own generator."""
    runs = law.runs
    shape = (plant.n,) if runs is None else (runs, plant.n)
    state = SimState(np.broadcast_to(initial.rho, shape),
                     np.broadcast_to(initial.q, shape))
    gens = [np.random.default_rng(s) for s in np.atleast_1d(seed)]
    hist = {name: [] for name in RUN_FIELDS}
    hist["rho"].append(state.rho)
    hist["q"].append(state.q)
    r = None
    for t in range(demand.horizon):
        w_row = demand.row(t)
        lo, hi = _rate_bounds(plant, state.q, w_row[1:],
                              _rate_caps(plant, relaxed))
        r = np.clip(law.compute_rates(t, state, w_row, r), lo, hi)
        noise = np.reshape([g.normal(1.0, sigma, size=plant.n + 1)
                            for g in gens], shape[:-1] + (-1,)) \
            if sigma else None
        state, phi = step(plant, state, r, w_row, noise, relaxed=relaxed)
        for name, value in zip(RUN_FIELDS, (state.rho, state.q, phi, r)):
            hist[name].append(value)
    return {name: np.stack(v, axis=-2) for name, v in hist.items()}


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("drop", [0.0, 0.1], ids=["monotone", "capacity_drop"])
@pytest.mark.parametrize("relaxed", [False, True], ids=["capped", "relaxed"])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("kind", KINDS)
def test_simulate_equals_a_loop_of_steps(kind, sigma, relaxed, drop, batch):
    sc = builtin_example1()
    plant = with_capacity_drop(sc.model, drop)
    if batch:
        belief = [sample_controller_model(sc.model, 0.05, 0.10, seed=s)
                  for s in range(3)]
        seed = [11, 12, 13]
    else:
        belief, seed = sample_controller_model(sc.model, 0.05, 0.10, 0), 11
    law = make_controller(kind, belief)

    def outcome(run):
        """The run's arrays, or the message of the box it broke."""
        try:
            traj = run()
        except ContractViolationError as e:
            return str(e)
        return traj if isinstance(traj, dict) else \
            {name: getattr(traj, name) for name in RUN_FIELDS}

    got = outcome(lambda: simulate(
        plant, sc.demand, law, disturbance=DisturbanceSpec(sigma, seed=seed),
        initial_state=sc.initial, relaxed=relaxed))
    want = outcome(lambda: step_loop(plant, sc.demand, law, sc.initial,
                                     sigma, seed, relaxed))
    if isinstance(want, str):
        # an unmetered relaxed ramp can overfill its cell; both loops stop
        # there with the same message
        assert got == want
        return
    for name in RUN_FIELDS:
        assert got[name].shape == want[name].shape
        np.testing.assert_array_equal(got[name], want[name])


class _Constant:
    """A law that asks for the same rate at every step."""

    def __init__(self, value):
        self.value = value

    def compute_rates(self, t, state, w_row, r_prev):
        return np.full(state.q.shape, self.value)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_simulate_refuses_rates_no_clamp_makes_feasible(sigma):
    m = one_cell(dt=1.0 / 240.0, ramp_flow_max=1800.0, queue_max=50.0)
    noise = DisturbanceSpec(sigma, seed=3)
    calm = DemandProfile(w0=np.full(5, 500.0), w_ramp=np.full((5, 1), 900.0))
    # a NaN rate survives the clamp
    with pytest.raises(ContractViolationError, match="rate"):
        simulate(m, calm, _Constant(np.nan), disturbance=noise)
    # a full queue whose arrivals exceed the cap has an empty interval
    flood = DemandProfile(w0=np.full(5, 500.0),
                          w_ramp=np.full((5, 1), 2400.0))
    full = SimState([10.0], [50.0])
    with pytest.raises(ContractViolationError, match="rate"):
        simulate(m, flood, initial_state=full, disturbance=noise)
    # negative control: a finite rate on the full queue and arrivals under
    # the cap is clamped up to the arrivals and runs
    traj = simulate(m, calm, _Constant(700.0), initial_state=full,
                    disturbance=noise)
    assert np.all(traj.rates == 900.0)


@pytest.mark.parametrize("excess,refused", [(2e-9, True), (0.5e-9, False)],
                         ids=["refused", "accepted"])
def test_every_rate_check_refuses_an_empty_interval_at_one_edge(excess,
                                                                refused):
    """A full queue, or a queueless ramp, whose arrivals w exceed the cap
    has the empty interval [w, cap]. Every entry point that checks rates,
    in density and in cumulative coordinates, refuses it once w passes the
    cap by more than 1e-9 relative, and accepts it (negative control)
    while the gap is rounding. On a queueless ramp the demand check
    refuses such arrivals first, and ``simulate`` through it."""
    w = 1800.0 * (1.0 + excess)
    w_row = np.array([500.0, w])
    flood = DemandProfile(w0=np.full(3, 500.0), w_ramp=np.full((3, 1), w))
    for queue_max in (50.0, 0.0):
        m = one_cell(dt=1.0 / 240.0, ramp_flow_max=1800.0,
                     queue_max=queue_max)
        full = SimState([10.0], [queue_max])
        checks = {
            "feasible_rate_interval":
                lambda: feasible_rate_interval(m, 1, queue_max, w),
            "brute_force_max_next_flows":
                lambda: brute_force_max_next_flows(m, full, w_row),
            "step": lambda: step(m, full, np.array([1800.0]), w_row),
            "cctm_step": lambda: cctm_step(m, cumulative_from_state(m, full),
                                           np.array([1800.0]), w_row),
            "simulate": lambda: simulate(m, flood, initial_state=full),
            "check_against": lambda: flood.check_against(m),
        }
        for name, check in checks.items():
            # a queue stores arrivals above the cap, so its demand passes
            if not refused or (name == "check_against" and queue_max > 0.0):
                check()
            elif name in ("simulate", "check_against") and queue_max == 0.0:
                with pytest.raises(ValueError, match="no queue storage"):
                    check()
            else:
                with pytest.raises(ContractViolationError, match="rate"):
                    check()
        if not refused:
            assert feasible_rate_interval(m, 1, queue_max, w) == (w, 1800.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_the_rate_interval_implies_the_queue_box(seed, relaxed):
    """Rates just inside the tolerance of either edge of the interval pass
    the rate check; a step may then refuse only a density that leaves its
    box, and every queue it returns lies in [0, queue_max]. Negative
    control: a rate twice the tolerance above the top edge is refused."""
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    state = random_state(rng, m)
    w_row = np.concatenate(([rng.uniform(0.0, 3000.0)],
                            rng.uniform(0.0, 1.5, m.n) * m.ramp_flow_max))
    lo, hi = _rate_bounds(m, state.q, w_row[1:], _rate_caps(m, relaxed))
    assume(np.all(lo <= hi))
    tol = 1e-9 * np.maximum(1.0, np.abs(hi))
    for rates in (lo - 0.99 * tol, hi + 0.99 * tol):
        try:
            nxt, _ = step(m, state, rates, w_row, relaxed=relaxed)
        except ContractViolationError as e:
            assert "density" in str(e)
            continue
        assert np.all((nxt.q >= 0.0) & (nxt.q <= m.queue_max))
    with pytest.raises(ContractViolationError, match="rate"):
        step(m, state, hi + 2.0 * tol, w_row, relaxed=relaxed)


# ---------------------------------------------------------------------------
# a stack of plants


def _variant_plants():
    sc = builtin_example1()
    return sc, [sc.model, with_capacity_drop(sc.model, 0.1)]


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("kind", KINDS)
def test_a_plant_stack_equals_the_per_variant_batches(kind, sigma):
    sc, plants = _variant_plants()
    beliefs = [sample_controller_model(sc.model, 0.05, 0.10, seed=s)
               for s in range(3)]
    seeds = [11, 12, 13]

    def run(plant, belief, seed):
        return simulate(plant, sc.demand, make_controller(kind, belief),
                        disturbance=DisturbanceSpec(sigma, seed=seed),
                        initial_state=sc.initial)

    stack = FreewayModel.stack([p for p in plants for _ in seeds])
    both = run(stack, beliefs * 2, seeds * 2)
    for v, plant in enumerate(plants):
        one = run(plant, beliefs, seeds)
        for name in RUN_FIELDS:
            np.testing.assert_array_equal(getattr(both, name)[3 * v:3 * v + 3],
                                          getattr(one, name))
    # with one law and no noise the plant alone sets the batch size
    traj = simulate(FreewayModel.stack(plants), sc.demand,
                    make_controller(kind, sc.model), initial_state=sc.initial)
    for v, plant in enumerate(plants):
        one = simulate(plant, sc.demand, make_controller(kind, sc.model),
                       initial_state=sc.initial)
        for name in RUN_FIELDS:
            np.testing.assert_array_equal(getattr(traj, name)[v],
                                          getattr(one, name))


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_stack_metrics_equal_the_members(sigma):
    sc, plants = _variant_plants()
    stack = FreewayModel.stack(plants)
    traj = simulate(stack, sc.demand, make_controller("best_effort", sc.model),
                    disturbance=DisturbanceSpec(sigma, seed=[5, 6]),
                    initial_state=sc.initial)
    met = evaluate_metrics(stack, traj)
    tau = freeflow_traverse_times(stack)
    assert tau.shape == (2, stack.n)
    for v, plant in enumerate(plants):
        np.testing.assert_array_equal(tau[v], freeflow_traverse_times(plant))
        one = evaluate_metrics(plant, traj.run(v))
        for name in ("tts", "tft", "twt"):
            np.testing.assert_array_equal(getattr(met, name)[v],
                                          getattr(one, name))
    assert mass_conservation_residual(stack, traj) == max(
        mass_conservation_residual(p, traj.run(v))
        for v, p in enumerate(plants))


def test_stack_demand_check_equals_the_members():
    sc = builtin_example2()
    ok = sc.model
    queueless = ok.with_cells([replace(c, queue_max=0.0) for c in ok.cells])
    flood = DemandProfile(w0=np.zeros(3), w_ramp=np.full((3, 1), 2000.0))
    flood.check_against(ok)
    with pytest.raises(ValueError, match="no queue storage"):
        flood.check_against(queueless)
    with pytest.raises(ValueError, match="plant 1 and the ramp has no queue"):
        flood.check_against(FreewayModel.stack([ok, queueless]))
    flood.check_against(FreewayModel.stack([ok, ok]))


def test_a_plant_stack_must_match_the_batch():
    sc, plants = _variant_plants()
    stack = FreewayModel.stack(plants)
    with pytest.raises(ValueError, match="batch sizes disagree"):
        simulate(stack, sc.demand, make_controller("alinea", [sc.model] * 3))
    with pytest.raises(ValueError, match="batch sizes disagree"):
        simulate(stack, sc.demand,
                 disturbance=DisturbanceSpec(0.05, seed=[1, 2, 3]))
    # negative control: sizes that agree
    traj = simulate(stack, sc.demand, make_controller("alinea", [sc.model] * 2),
                    disturbance=DisturbanceSpec(0.05, seed=[1, 2]))
    assert traj.rho.shape[0] == 2


def _two_queued_cells():
    cell = CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                      ramp_flow_max=900.0, queue_max=40.0)
    horizon = 20
    return (FreewayModel([cell, cell], dt=0.01),
            DemandProfile(np.full(horizon, 500.0),
                          np.full((horizon, 2), 100.0)))


# the box tolerance is 1e-9 * max(1, bound): 2.5e-7 cars/km on rho_jam 250
# and 4e-8 cars on queue_max 40; a refusal shows the value's every digit
@pytest.mark.parametrize("rho0, q0, refused", [
    ([250.0, 0.0], [0.0, 40.0], None),                  # on the edges
    ([250.0 + 1e-7, 0.0], [0.0, 40.0 + 2e-8], None),    # out by rounding
    ([250.0 + 5e-7, 0.0], [0.0, 0.0],
     r"density outside its box at cell 1: value 250\.0000005 outside "
     r"\[0\.0, 250\.0\]"),
    ([0.0, 0.0], [0.0, -4.0],
     r"queue outside its box at cell 2: value -4\.0 outside \[0\.0, 40\.0\]"),
    ([0.0, 0.0], [0.0, 40.0 + 1e-7],
     r"queue outside its box at cell 2: value 40\.0000001 outside"),
], ids=["on-the-edges", "out-by-rounding", "density-above-jam",
        "negative-queue", "queue-above-its-box"])
def test_initial_states_outside_the_boxes_are_refused(rho0, q0, refused):
    model, demand = _two_queued_cells()
    state = SimState(rho0, q0)
    runs = (lambda: simulate(model, demand, initial_state=state),
            lambda: tts_bounds(model, demand, state),
            lambda: solve_lp(build_lp(model, demand, state)))
    for run in runs:
        if refused:
            with pytest.raises(ContractViolationError, match=refused):
                run()
        else:
            run()


def test_a_state_outside_its_boxes_by_rounding_starts_on_them():
    """A state that passes the box check by rounding only starts the run
    on the boxes. Before it did, the LP from a density 1e-7 below 0 was
    infeasible, and a queue 5e-10 above a queueless ramp's box left a rate
    interval [1.8e-07, 0] at step 0. Negative control: a queue outside by
    more than rounding is still refused."""
    model, demand = _two_queued_cells()
    model = model.with_cells([replace(c, ramp_flow_max=1000.0)
                              for c in model.cells])
    state = SimState([250.0, -1e-7], [0.0, 0.0])
    inst = build_lp(model, demand, state)
    assert inst.initial.rho.tolist() == [250.0, 0.0]
    sol = solve_lp(inst)
    traj = simulate(model, demand, initial_state=state)
    assert traj.rho[0].tolist() == [250.0, 0.0]
    assert sol.objective <= evaluate_metrics(model, traj).tts + 1e-9

    sc = builtin_example1()
    assert sc.model.queue_max[0] == 0.0
    traj = simulate(sc.model, sc.demand,
                    initial_state=SimState(sc.initial.rho, [5e-10, 0.0]))
    assert traj.q[0].tolist() == [0.0, 0.0]
    with pytest.raises(ContractViolationError,
                       match=r"queue outside its box at cell 1: value 5e-08"):
        simulate(sc.model, sc.demand,
                 initial_state=SimState(sc.initial.rho, [5e-8, 0.0]))

    # on a stack, each plant's run starts on that plant's boxes
    low = model.with_cells([replace(c, rho_jam=200.0) for c in model.cells])
    traj = simulate(FreewayModel.stack([model, low]), demand,
                    initial_state=SimState([200.0 + 1e-7, 0.0], [0.0, 0.0]))
    assert traj.rho[:, 0, 0].tolist() == [200.0 + 1e-7, 200.0]


def test_one_initial_state_is_checked_against_every_plant_of_a_stack():
    model, demand = _two_queued_cells()
    low = model.with_cells([replace(c, rho_jam=200.0) for c in model.cells])
    stack = FreewayModel.stack([model, low])
    with pytest.raises(ContractViolationError,
                       match="density outside its box at cell 1 of run 1"):
        simulate(stack, demand, initial_state=SimState([220.0, 0.0],
                                                       [0.0, 0.0]))
    # negative control: a state inside both plants' boxes
    traj = simulate(stack, demand, initial_state=SimState([200.0, 0.0],
                                                          [0.0, 40.0]))
    assert traj.rho.shape == (2, demand.horizon + 1, model.n)


def _dot_mismatches(dot) -> int:
    """Random contractions, in every stack layout, on which ``dot(x, v)``
    differs in any bit from ``x[r] @ v[r]`` on each row as one model's
    contiguous parameter array."""
    rng = np.random.default_rng(0)
    bad = 0
    for _ in range(300):
        runs, n, T = (int(k) for k in rng.integers((1, 1, 0), (20, 70, 50)))
        x = rng.normal(size=(runs, T, n) if T else (runs, n))
        c = rng.normal(size=(runs, n))
        strided = rng.normal(size=(runs, 2 * n))[:, ::2]
        for v in (c, np.asfortranarray(c), strided):
            want = np.array([x[r] @ v[r].copy() for r in range(runs)])
            bad += not np.array_equal(dot(x, v), want)
    return bad


def test_dot_rounds_as_each_run_alone_in_every_layout():
    assert _dot_mismatches(_dot) == 0
    # negative control: matmul on the stack as laid out, without the copy

    def uncopied(x, v):
        runs, n = v.shape
        return np.matmul(x.reshape(runs, -1, n),
                         v[:, :, None]).reshape(x.shape[:-1])
    assert _dot_mismatches(uncopied) > 0


def test_the_kernel_clip_is_ndarray_clip_bit_for_bit():
    """``_clip`` is the ufunc behind ``ndarray.clip``, called without its
    Python wrapper: every value, bound and order of bounds (lo > hi
    included) gives the same bits, as do the kernel's 0-d ``_ZERO`` lower
    bound and a 0-d value against array bounds."""
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.5, 1.5, 3.0])
    k = values.size
    x, lo, hi = (np.broadcast_to(values.reshape(shape), (k, k, k)).copy()
                 for shape in ((k, 1, 1), (1, k, 1), (1, 1, k)))
    assert (lo > hi).any() and np.isnan(lo).any()

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    same(_clip(x, lo, hi), x.clip(lo, hi))
    same(_clip(x, _ZERO, hi), x.clip(_ZERO, hi))
    same(_clip(x, lo, x), x.clip(lo, x))
    for v in values:
        same(_clip(np.asarray(v), lo[0], hi[0]),
             np.asarray(v).clip(lo[0], hi[0]))
    # negative control: the comparison tells -0.0 from 0.0
    with pytest.raises(AssertionError):
        same(np.array([-0.0]), np.array([0.0]))
