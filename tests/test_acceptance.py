"""Acceptance battery: one test per advertised guarantee of the package.

Each test emits a single verdict line ``[acceptance NN] PASS/FAIL — ...``;
the conftest terminal hook replays all verdict lines at the end of the
pytest run so the battery reads as a ten-line scorecard. Soft checks
(reported but not enforced) are labelled SOFT.

The checks are deliberately end to end: random scenario round-trips, bulk
monotonicity probing, engineered zero-restrictiveness scenarios against the
linear program, pinned regressions on the bundled examples, bound
orderings, brute-force cross-checks, one-step optimality of the greedy
law, exact critical-density tracking, the Grenoble uncertainty campaign,
and conservation/box invariants on every noiseless trajectory produced
here.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from rampflow.controllers import make_controller
from rampflow.cumulative import (
    cumulative_from_state,
    monotonicity_probe,
    reconstruct_densities,
    reconstruct_queues,
    restrictiveness_report,
    to_cumulative,
    tts_bounds,
    tts_from_cumulative,
)
from rampflow.lp import build_lp, solve_lp
from rampflow.model import CellParams, FreewayModel, validate_model
from rampflow.scenarios import (
    MISMATCH_GRID,
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
    uncertainty_campaign,
)
from rampflow.simulator import (
    DemandProfile,
    SimState,
    compute_flows,
    evaluate_metrics,
    mass_conservation_residual,
    simulate,
    step,
)

from conftest import (
    one_step_rates,
    random_demand,
    random_model,
    random_state,
    safe_one_step_instance,
)
from oracles import brute_force_max_next_flows, brute_force_min_tts

VERDICTS: list[str] = []

_DT = 10.0 / 3600.0


def _record(line: str) -> None:
    VERDICTS.append(line)
    print(line)


def _criterion(num: int, title: str):
    """Wrap a test so it always leaves one verdict line, pass or fail."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                _record(f"[acceptance {num:02d}] FAIL — {title}: "
                        f"{type(exc).__name__}: {exc}")
                raise
            _record(f"[acceptance {num:02d}] PASS — {title}: {detail}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. trajectory <-> cumulative-coordinate round trip


@_criterion(1, "cumulative round trip on 100 random scenarios")
def test_cumulative_roundtrip_over_random_scenarios():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        horizon = int(rng.integers(8, 30))
        demand = random_demand(rng, model, horizon,
                               load=float(rng.uniform(0.3, 0.9)))
        kind = str(rng.choice(["none", "best_effort", "alinea"]))
        initial = SimState(rho=rng.uniform(0.0, 0.8 * model.rho_crit),
                           q=rng.uniform(0.0, 0.5 * model.queue_max))
        traj = simulate(model, demand,
                        controller=make_controller(kind, model),
                        initial_state=initial)
        states = to_cumulative(model, traj)
        for t, cum in enumerate(states):
            rho = reconstruct_densities(model, cum)
            q = reconstruct_queues(model, cum)
            worst = max(worst, float(np.max(
                np.abs(rho - traj.rho[t]) / np.maximum(1.0, traj.rho[t]))))
            worst = max(worst, float(np.max(
                np.abs(q - traj.q[t]) / np.maximum(1.0, traj.q[t]))))
        tts_direct = evaluate_metrics(model, traj).tts
        tts_cum = tts_from_cumulative(model, states)
        worst = max(worst, abs(tts_cum - tts_direct) / max(1.0, tts_direct))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"round-trip error {worst:g} above 1e-9"
    assert elapsed < 10.0, f"round trip took {elapsed:.1f}s, budget 10s"
    return f"worst relative error {worst:.2e}, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. bulk monotonicity probing plus a broken-step-size negative control


@_criterion(2, "10,000 monotonicity probes and a negative control")
def test_bulk_monotonicity_probes_pass_and_negative_control_fails():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    violations = 0
    while checked < 10_000:
        model = random_model(rng)
        for _ in range(25):
            state = random_state(rng, model)
            base = cumulative_from_state(
                model, state, inflow_cum=rng.uniform(0.0, 30.0, model.n))
            w0 = float(rng.uniform(
                0.0, model.beta_bar[0] * model.v_free[0] * model.rho_crit[0]))
            pert = base.copy()
            if rng.random() < 0.5:
                bump = (rng.uniform(0.0, 1.0, model.n + 1)
                        * rng.integers(0, 2, model.n + 1)
                        * 0.2 * float(np.min(model.length * model.rho_jam)))
                pert.phi_cum = base.phi_cum + bump
            else:
                k = int(rng.integers(0, model.n))
                pert.inflow_cum = base.inflow_cum.copy()
                pert.inflow_cum[k] += (float(rng.uniform(-1.0, 1.0)) * 0.3
                                       * float(model.length[k]
                                               * model.rho_jam[k]))
            violations += len(monotonicity_probe(model, base, pert, w0=w0))
            checked += 1
            if checked == 10_000:
                break

    # negative control: break both step-size slope rules and require that
    # the probe actually notices.
    bad = FreewayModel(
        [CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0)
         for _ in range(2)], dt=0.06)
    assert validate_model(bad) != []
    congested = cumulative_from_state(
        bad, SimState(rho=np.array([100.0, 200.0]), q=np.zeros(2)))
    pert = congested.copy()
    pert.phi_cum = congested.phi_cum + np.array([0.0, 1.0, 0.0])
    control = monotonicity_probe(bad, congested, pert)

    elapsed = time.perf_counter() - start
    assert violations == 0, f"{violations} monotonicity violations"
    assert len(control) > 0, "negative control raised no violation"
    assert elapsed < 30.0, f"probing took {elapsed:.1f}s, budget 30s"
    return (f"{checked} probes, 0 violations, negative control flagged "
            f"{len(control)}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. engineered scenarios where the greedy law is provably optimal


def _nonrestrictive_scenarios():
    """Three scenarios whose greedy runs never trip a restrictiveness test.

    free_flow: everything fits, no bound is ever tight.
    saturated_drain: queued cell drains exactly at its outflow capacity, so
        the demand-limited test is escaped by the strict-capacity clause.
    downstream_confined: congestion from a downstream capacity cut never
        reaches the single metered ramp.
    """
    plain = dict(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0)

    model_a = FreewayModel(
        [CellParams(ramp_flow_max=1000.0, queue_max=100.0, **plain),
         CellParams(ramp_flow_max=1000.0, queue_max=100.0, **plain)], _DT)
    w_ramp = np.zeros((120, 2))
    w_ramp[:60, :] = 500.0
    demand_a = DemandProfile(w0=np.full(120, 2000.0), w_ramp=w_ramp)
    initial_a = SimState(rho=np.zeros(2), q=np.zeros(2))

    model_b = FreewayModel(
        [CellParams(**plain),
         CellParams(ramp_flow_max=2000.0, queue_max=60.0, **plain)], _DT)
    demand_b = DemandProfile(w0=np.full(60, 3500.0), w_ramp=np.zeros((60, 2)))
    initial_b = SimState(rho=np.array([35.0, 50.0]), q=np.array([0.0, 50.0]))

    model_c = FreewayModel(
        [CellParams(ramp_flow_max=1000.0, queue_max=60.0, **plain),
         CellParams(**plain),
         CellParams(capacity=2000.0, **plain)], _DT)
    w0 = np.full(240, 500.0)
    w0[:60] = 3000.0
    w_ramp = np.zeros((240, 3))
    w_ramp[:180, 0] = 400.0
    demand_c = DemandProfile(w0=w0, w_ramp=w_ramp)
    initial_c = SimState(rho=np.zeros(3), q=np.zeros(3))

    return [("free_flow", model_a, demand_a, initial_a),
            ("saturated_drain", model_b, demand_b, initial_b),
            ("downstream_confined", model_c, demand_c, initial_c)]


@_criterion(3, "zero-restrictiveness scenarios match the linear program")
def test_nonrestrictive_greedy_runs_attain_the_lp_optimum():
    details = []
    for name, model, demand, initial in _nonrestrictive_scenarios():
        traj = simulate(model, demand,
                        controller=make_controller("best_effort", model),
                        initial_state=initial)
        report = restrictiveness_report(model, traj)
        assert report.restrictive_fraction == 0.0, \
            f"{name}: fraction {report.restrictive_fraction:g}"
        assert report.interior_clean, f"{name}: interior not clean"
        tts_be = evaluate_metrics(model, traj).tts
        sol = solve_lp(build_lp(model, demand, initial))
        rel = abs(tts_be - sol.objective) / sol.objective
        assert rel <= 1e-6, f"{name}: relative optimality gap {rel:g}"
        details.append(f"{name} gap {rel:.1e}")
    return ", ".join(details)


# ---------------------------------------------------------------------------
# 4. pinned regressions on the two bundled examples


@_criterion(4, "bundled example regressions")
def test_bundled_example_regressions():
    sc1 = builtin_example1()
    sol1 = solve_lp(build_lp(sc1.model, sc1.demand, sc1.initial))
    be1 = simulate(sc1.model, sc1.demand,
                   controller=make_controller("best_effort", sc1.model),
                   initial_state=sc1.initial)
    tts_be1 = evaluate_metrics(sc1.model, be1).tts

    np.testing.assert_allclose(sol1.objective, 13.160130602294492, rtol=1e-6)
    np.testing.assert_allclose(tts_be1, 13.530489036374892, rtol=1e-6)
    assert sol1.objective < tts_be1 - 0.2, "optimum not strictly better"

    # shape of the optimal solution: it meters early enough that the small
    # cell crosses its critical density later than under the greedy law,
    # and it drains the residual queue at a density strictly below critical
    # while the greedy law holds the density exactly critical.
    rho_c2 = sc1.model.rho_crit[1]
    cross_be = int(np.argmax(be1.rho[:, 1] > rho_c2))
    cross_lp = int(np.argmax(sol1.rho[:, 1] > rho_c2))
    assert 0 < cross_be < cross_lp, (cross_be, cross_lp)
    assert float(np.max(sol1.rho[60:80, 1])) < rho_c2 - 1.0
    assert float(np.max(np.abs(be1.rho[60:80, 1] - rho_c2))) <= 1e-6

    sc2 = builtin_example2()
    sol2 = solve_lp(build_lp(sc2.model, sc2.demand, sc2.initial))
    ol2 = simulate(sc2.model, sc2.demand, initial_state=sc2.initial)
    be2 = simulate(sc2.model, sc2.demand,
                   controller=make_controller("best_effort", sc2.model),
                   initial_state=sc2.initial)
    tts_ol2 = evaluate_metrics(sc2.model, ol2).tts
    tts_be2 = evaluate_metrics(sc2.model, be2).tts
    np.testing.assert_allclose(sol2.objective, 4.049067339687407, rtol=1e-6)
    np.testing.assert_allclose(tts_be2, 5.018967531694591, rtol=1e-6)
    rel = abs(sol2.objective - tts_ol2) / tts_ol2
    assert rel <= 1e-6, f"open loop vs optimum gap {rel:g}"
    assert sol2.objective < tts_be2 - 0.2

    return (f"ex1 lp {sol1.objective:.6f} < be {tts_be1:.6f}, crossings "
            f"{cross_be}<{cross_lp}; ex2 lp==open-loop rel {rel:.1e}")


# ---------------------------------------------------------------------------
# 5. lower bound <= optimum <= greedy on builtins and fuzzed scenarios


@_criterion(5, "bound ordering on builtins plus 50 fuzzed scenarios")
def test_bound_ordering_holds_everywhere():
    start = time.perf_counter()
    slack = -1e-6
    cases = []

    for sc in (builtin_example1(), builtin_example2(), builtin_grenoble(0)):
        cases.append((sc.label, sc.model, sc.demand, sc.initial))
    rng = np.random.default_rng(505)
    for i in range(50):
        model = random_model(rng, n_max=3)
        horizon = int(rng.integers(6, 24))
        demand = random_demand(rng, model, horizon,
                               load=float(rng.uniform(0.3, 1.0)))
        cases.append((f"fuzz{i}", model, demand, None))

    worst_lb = worst_be = 0.0
    for label, model, demand, initial in cases:
        bounds = tts_bounds(model, demand, initial)
        sol = solve_lp(build_lp(model, demand, initial))
        rel_lb = (bounds.tts_lb - sol.objective) / max(1.0, sol.objective)
        rel_be = (sol.objective - bounds.tts_be) / max(1.0, bounds.tts_be)
        assert rel_lb <= -slack, f"{label}: lower bound above optimum {rel_lb:g}"
        assert rel_be <= -slack, f"{label}: optimum above greedy {rel_be:g}"
        worst_lb = max(worst_lb, rel_lb)
        worst_be = max(worst_be, rel_be)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"ordering sweep took {elapsed:.1f}s, budget 300s"
    return (f"{len(cases)} scenarios, worst lb slack {worst_lb:.1e}, worst "
            f"be slack {worst_be:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. linear program vs exhaustive gridded search on a tiny instance


@_criterion(6, "linear program matches exhaustive search")
def test_lp_matches_brute_force_on_small_instance():
    model = FreewayModel(
        [CellParams(length=1.0, v_free=100.0, rho_crit=40.0, rho_jam=200.0,
                    ramp_flow_max=600.0, queue_max=30.0),
         CellParams(length=1.0, v_free=100.0, rho_crit=40.0, rho_jam=200.0,
                    capacity=2500.0)], _DT)
    horizon, points = 3, 50
    demand = DemandProfile(w0=np.full(horizon, 3500.0),
                           w_ramp=np.column_stack((np.full(horizon, 500.0),
                                                   np.zeros(horizon))))
    initial = SimState(rho=np.array([45.0, 42.0]), q=np.array([12.0, 0.0]))

    tts_grid, _ = brute_force_min_tts(model, demand, initial, points=points)
    sol = solve_lp(build_lp(model, demand, initial))

    # the grid quantizes each rate to r_max/(points-1); one step of rate
    # error changes at most dt * delta cars, which then each cost at most
    # dt per remaining step.
    delta = float(np.max(model.ramp_flow_max)) / (points - 1)
    grid_tol = delta * model.dt ** 2 * horizon * (horizon + 1) / 2.0
    assert sol.objective <= tts_grid + 1e-9, \
        f"search beat the relaxation by {tts_grid - sol.objective:g}"
    assert tts_grid - sol.objective <= grid_tol, \
        f"gap {tts_grid - sol.objective:g} above grid resolution {grid_tol:g}"
    return (f"lp {sol.objective:.9f} vs grid {tts_grid:.9f}, "
            f"tolerance {grid_tol:.1e}")


# ---------------------------------------------------------------------------
# 7. greedy law is one-step optimal against gridded adversaries


@_criterion(7, "greedy metering is one-step optimal on 1,000 instances")
def test_greedy_rates_maximize_next_step_travelled_distance():
    rng = np.random.default_rng(707)
    worst = -np.inf
    for _ in range(1000):
        model, state, w_row = safe_one_step_instance(rng)
        w0_next = float(rng.uniform(
            0.0, model.beta_bar[0] * model.v_free[0] * model.rho_crit[0]))
        rates = one_step_rates(model, "best_effort", state, w_row)
        nxt, _ = step(model, state, rates, w_row)
        flows_be = compute_flows(model, nxt, w0_next)
        flows_grid = brute_force_max_next_flows(model, state, w_row,
                                                w0_next, points=11)
        tdt_be = model.dt * float(model.length @ flows_be[1:])
        tdt_grid = model.dt * float(model.length @ flows_grid[1:])
        worst = max(worst, tdt_grid - tdt_be)
    assert worst <= 1e-9, f"a gridded rate beat the greedy law by {worst:g}"
    return f"worst adversary margin {worst:.1e} car-hours-km"


# ---------------------------------------------------------------------------
# 8. exact critical-density tracking when no bound is active


@_criterion(8, "greedy tracking lands exactly on critical density")
def test_greedy_tracking_hits_critical_density_with_inactive_bounds():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        cells = []
        for _ in range(n):
            v = float(rng.uniform(60.0, 110.0))
            rho_c = float(rng.uniform(20.0, 60.0))
            cells.append(CellParams(
                length=float(rng.uniform(0.4, 1.5)), v_free=v,
                rho_crit=rho_c, rho_jam=rho_c * float(rng.uniform(3.5, 6.0)),
                beta=float(rng.choice([0.0, 0.1])),
                ramp_flow_max=1e6, queue_max=1e6))
        dt = (0.9 * min(c.length for c in cells)
              / max(c.v_free for c in cells) * float(rng.uniform(0.3, 1.0)))
        model = FreewayModel(cells, dt=dt)
        assert validate_model(model) == []

        state = SimState(rho=rng.uniform(0.1, 0.7, n) * model.rho_crit,
                         q=np.full(n, 1e5))
        w_row = np.zeros(n + 1)
        w_row[0] = float(rng.uniform(0.0, 0.2 * model.capacity[0]))

        rates = one_step_rates(model, "best_effort", state, w_row)
        nxt, _ = step(model, state, rates, w_row)
        worst = max(worst, float(np.max(
            np.abs(nxt.rho - model.rho_crit)
            / np.maximum(1.0, model.rho_crit))))
    assert worst <= 1e-9, f"tracking error {worst:g} above 1e-9"
    return f"worst relative tracking error {worst:.1e} over 300 instances"


# ---------------------------------------------------------------------------
# 9. Grenoble uncertainty campaign, noiseless slice


def _campaign_row(rows, variant, controller, dv, drho):
    for row in rows:
        if (row.variant == variant and row.controller == controller
                and row.sigma == 0.0 and row.dv == dv and row.drho == drho):
            return row
    raise AssertionError(f"missing row {variant}/{controller}/{dv}/{drho}")


@_criterion(9, "Grenoble campaign mismatch and variant ordering")
def test_grenoble_campaign_orderings():
    start = time.perf_counter()
    rows = uncertainty_campaign(builtin_grenoble(0), sigmas=(0.0,),
                                runs=20, seed=0)
    mono = [_campaign_row(rows, "monotonic", "best_effort", dv, drho)
            for dv, drho in MISMATCH_GRID]
    gains = [row.mean_twt_improvement for row in mono]
    for a, b in zip(gains, gains[1:]):
        assert b <= a + 1e-9, f"improvement rose with mismatch: {gains}"

    drop0 = _campaign_row(rows, "capacity_drop", "best_effort", 0.0, 0.0)
    assert drop0.mean_twt_improvement > gains[0] + 0.1, \
        (drop0.mean_twt_improvement, gains[0])

    # soft check: the integral controller should sit between the greedy
    # law's worst-mismatch and nominal improvements, within one point.
    alinea = _campaign_row(rows, "monotonic", "alinea", 0.0, 0.0)
    lo, hi = gains[-1] - 1.0, gains[0] + 1.0
    soft_ok = lo <= alinea.mean_twt_improvement <= hi
    _record(f"[acceptance 09.alinea] SOFT {'PASS' if soft_ok else 'FAIL'} — "
            f"integral controller {alinea.mean_twt_improvement:.2f}% vs "
            f"envelope [{lo:.2f}%, {hi:.2f}%]")

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"campaign took {elapsed:.1f}s, budget 600s"
    gains_txt = " >= ".join(f"{g:.2f}" for g in gains)
    return (f"greedy gains {gains_txt}; capacity-drop nominal "
            f"{drop0.mean_twt_improvement:.2f} > {gains[0]:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. conservation and box invariance on every noiseless trajectory


@_criterion(10, "mass conservation and state boxes on noiseless runs")
def test_noiseless_runs_conserve_mass_and_respect_boxes():
    runs = []
    for sc in (builtin_example1(), builtin_example2(), builtin_grenoble(0)):
        for kind in ("none", "best_effort", "alinea"):
            traj = simulate(sc.model, sc.demand,
                            controller=make_controller(kind, sc.model),
                            initial_state=sc.initial)
            runs.append((f"{sc.label}/{kind}", sc.model, traj))
        relaxed = simulate(sc.model, sc.demand,
                           controller=make_controller("best_effort",
                                                      sc.model),
                           initial_state=sc.initial, relaxed=True)
        runs.append((f"{sc.label}/relaxed", sc.model, relaxed))
    for name, model, demand, initial in _nonrestrictive_scenarios():
        traj = simulate(model, demand,
                        controller=make_controller("best_effort", model),
                        initial_state=initial)
        runs.append((f"{name}/best_effort", model, traj))

    worst_residual = 0.0
    for label, model, traj in runs:
        residual = mass_conservation_residual(model, traj)
        assert residual <= 1e-6, f"{label}: mass residual {residual:g}"
        worst_residual = max(worst_residual, residual)

        tol_rho = 1e-6 * np.maximum(1.0, model.rho_jam)
        assert np.all(traj.rho >= -tol_rho), f"{label}: negative density"
        assert np.all(traj.rho <= model.rho_jam + tol_rho), \
            f"{label}: density above jam"
        tol_q = 1e-6 * np.maximum(1.0, model.queue_max)
        assert np.all(traj.q >= -tol_q), f"{label}: negative queue"
        assert np.all(traj.q <= model.queue_max + tol_q), \
            f"{label}: queue above its box"
    return f"{len(runs)} runs, worst mass residual {worst_residual:.1e}"
