"""The hypograph LP: shape, exactness against resimulation, exhaustive
oracles on tiny instances, and the structure of known optima."""

import json
import os
import re
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import rampflow.lp
from rampflow.controllers import make_controller
from rampflow.cumulative import tts_bounds
from rampflow.lp import (
    Csr,
    VarMap,
    _greedy_basis,
    _greedy_point,
    _matvec,
    _rmatvec,
    _row_ids,
    build_lp,
    certify_relaxation,
    export_lp_text,
    solve_lp,
)
from rampflow.model import (
    CellParams,
    FreewayModel,
    UnsupportedModelError,
    validate_model,
)
from rampflow.simulator import (
    DemandProfile,
    RateSchedule,
    SimState,
    compute_flows,
    evaluate_metrics,
    feasible_rate_interval,
    simulate,
    step,
    zero_state,
)
from rampflow.scenarios import (
    GRENOBLE_PRESET,
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
    grenoble_model,
    synth_demand,
)

from conftest import (
    one_step_rates,
    random_demand,
    random_model,
    random_state,
    safe_one_step_instance,
)
from oracles import (
    _time_spent,
    allocating_greedy_basis,
    brute_force_max_next_flows,
    brute_force_min_tts,
    dfs_min_tts,
)


def one_ramp_cell(dt=0.002):
    return FreewayModel([CellParams(length=1.0, v_free=100.0, rho_crit=50.0,
                                    rho_jam=250.0, ramp_flow_max=1000.0,
                                    queue_max=50.0)], dt=dt)


# ---------------------------------------------------------------------------
# shape

def test_variable_count_is_horizon_times_4n_plus_1():
    m = one_ramp_cell()
    d = DemandProfile(w0=np.array([3000.0]), w_ramp=np.array([[800.0]]))
    inst = build_lp(m, d)
    assert inst.varmap.size == 5            # one step, one cell
    assert inst.a_eq.shape[0] == 3          # inflow + density + queue
    assert inst.a_ub.shape[0] == 1          # the demand slope

    vm = VarMap(n=3, horizon=7)
    assert vm.size == 7 * 13
    # distinct indices covering the whole range exactly once
    seen = {vm.phi(t, k) for t in range(7) for k in range(4)}
    seen |= {vm.r(t, k) for t in range(7) for k in range(1, 4)}
    seen |= {vm.rho(t, k) for t in range(1, 8) for k in range(1, 4)}
    seen |= {vm.q(t, k) for t in range(1, 8) for k in range(1, 4)}
    assert seen == set(range(vm.size))


def test_zero_demand_has_zero_cost():
    m = one_ramp_cell()
    d = DemandProfile(w0=np.zeros(4), w_ramp=np.zeros((4, 1)))
    sol = solve_lp(build_lp(m, d))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sol.rho, 0.0, atol=1e-9)


def test_initial_state_cost_enters_objective():
    m = one_ramp_cell(dt=0.01)
    d = DemandProfile(w0=np.zeros(2), w_ramp=np.zeros((2, 1)))
    init = SimState(rho=np.array([30.0]), q=np.array([4.0]))
    inst = build_lp(m, d, init)
    # contents drain at free flow; hand-rolled three-state sum
    traj = simulate(m, d, controller=None, initial_state=init)
    sol = solve_lp(inst)
    assert inst.objective_constant == pytest.approx(0.01 * 34.0)
    assert sol.objective == pytest.approx(evaluate_metrics(m, traj).tts,
                                          rel=1e-9)


def test_capacity_drop_models_are_rejected():
    m = one_ramp_cell()
    bad = FreewayModel([replace(c, capacity_drop=0.1) for c in m.cells],
                       dt=m.dt)
    d = DemandProfile(w0=np.zeros(2), w_ramp=np.zeros((2, 1)))
    with pytest.raises(UnsupportedModelError):
        build_lp(bad, d)


def test_step_sizes_outside_the_conditions_are_rejected():
    """The LP and the bound sandwich refuse a step too long for monotone
    dynamics and name the broken condition; the same cells with a valid
    step (negative control) pass."""
    m = one_ramp_cell()
    d = DemandProfile(w0=np.full(3, 3000.0), w_ramp=np.full((3, 1), 800.0))
    too_long = FreewayModel(m.cells, dt=0.02)     # dt * v_free = 2 > 1 km
    for refuse in (build_lp, tts_bounds):
        with pytest.raises(UnsupportedModelError,
                           match=r"cell 1: dt \* demand slope"):
            refuse(too_long, d)
    b = tts_bounds(m, d)
    assert solve_lp(build_lp(m, d)).objective == pytest.approx(b.tts_be,
                                                             rel=1e-9)


def test_a_stack_of_models_is_refused():
    """The LP and the bound sandwich refuse a stack of models through
    ``require_monotone``, with an ``UnsupportedModelError`` that names R,
    and ``validate_model`` refuses it with a ``ValueError``; none of them
    reaches the stack's missing ``cells``. Negative control: the model
    unstacked builds, bounds and validates."""
    sc = builtin_example2()
    stack = FreewayModel.stack([sc.model, sc.model])
    for refuse in (build_lp, tts_bounds):
        with pytest.raises(UnsupportedModelError, match="R = 2"):
            refuse(stack, sc.demand, sc.initial)
    with pytest.raises(ValueError, match="R = 2"):
        validate_model(stack)
    assert build_lp(sc.model, sc.demand, sc.initial).varmap.n == sc.model.n
    assert np.isfinite(tts_bounds(sc.model, sc.demand, sc.initial).tts_lb)
    assert validate_model(sc.model) == []


def test_export_renders_cplex_lp_text():
    m = one_ramp_cell()
    d = DemandProfile(w0=np.array([3000.0]), w_ramp=np.array([[800.0]]))
    text = export_lp_text(build_lp(m, d))
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert "Subject To" in lines and "Bounds" in lines and lines[-1] == "End"
    assert sum(1 for ln in lines if ln.startswith(" e")) == 3
    assert sum(1 for ln in lines if ln.startswith(" u")) == 1
    assert any("r_0_1" in ln and "<= 1000" in ln for ln in lines)


# ---------------------------------------------------------------------------
# exactness

def test_resimulated_rates_reproduce_the_objective_everywhere():
    rng = np.random.default_rng(21)
    for _ in range(12):
        model = random_model(rng, n_max=3)
        demand = random_demand(rng, model, 18, load=0.8)
        inst = build_lp(model, demand)
        sol = solve_lp(inst)
        cert = certify_relaxation(inst, sol)
        assert cert.exact, cert
        assert cert.max_rate_adjustment <= 1e-6 * max(
            1.0, float(model.ramp_flow_max.max()))


def test_lp_optimum_sits_between_certified_bounds():
    rng = np.random.default_rng(22)
    for _ in range(8):
        model = random_model(rng, n_max=3)
        demand = random_demand(rng, model, 15, load=0.7)
        b = tts_bounds(model, demand)
        sol = solve_lp(build_lp(model, demand))
        slack = 1e-6 * max(1.0, b.tts_be)
        assert b.tts_lb - slack <= sol.objective <= b.tts_be + slack


def test_exhaustive_search_on_saturating_instance_matches_exactly():
    """Heavy overload forces every optimal rate to an interval endpoint,
    which the search grid contains, so both methods agree to roundoff."""
    m = one_ramp_cell()
    d = DemandProfile(w0=np.array([2000.0, 3000.0, 0.0]),
                      w_ramp=np.array([[900.0], [900.0], [0.0]]))
    inst = build_lp(m, d)
    sol = solve_lp(inst)
    bf_tts, bf_rates = brute_force_min_tts(m, d, points=9)
    assert sol.objective == pytest.approx(bf_tts, rel=1e-9)
    assert certify_relaxation(inst, sol).exact
    assert bf_rates.shape == (3, 1)


def test_lp_lower_bounds_every_gridded_policy():
    rng = np.random.default_rng(23)
    for _ in range(6):
        model = random_model(rng, n_max=1)
        demand = random_demand(rng, model, 3, load=0.9)
        sol = solve_lp(build_lp(model, demand))
        bf_tts, _ = brute_force_min_tts(model, demand, points=6)
        assert sol.objective <= bf_tts + 1e-6 * max(1.0, bf_tts)


def test_exhaustive_search_refuses_oversized_instances():
    m = one_ramp_cell()
    d = DemandProfile(w0=np.zeros(40), w_ramp=np.zeros((40, 1)))
    for search in (brute_force_min_tts, dfs_min_tts):
        with pytest.raises(ValueError):
            search(m, d, points=9)


def _plan_tts(model, demand, initial, plan):
    """A plan's time spent, accumulated step by step as both searches do."""
    state, acc = initial, 0.0
    for t, rates in enumerate(plan):
        acc += float(_time_spent(model, state.rho, state.q))
        state, _ = step(model, state, rates, demand.row(t))
    return acc + float(_time_spent(model, state.rho, state.q))


def _tied_instance():
    """Two unit-length cells whose every number is a binary fraction, so a
    step's rates only move cars between queue and cell and every choice
    of the last step's rates ties exactly."""
    cell = CellParams(length=1.0, v_free=64.0, rho_crit=32.0, rho_jam=160.0,
                      ramp_flow_max=512.0, queue_max=64.0)
    model = FreewayModel([cell, cell], dt=1 / 512)
    demand = DemandProfile(w0=np.full(3, 256.0), w_ramp=np.array(
        [[256.0, 128.0], [256.0, 0.0], [0.0, 0.0]]))
    return model, demand, SimState([8.0, 16.0], [16.0, 8.0])


def _emptying_instance():
    """One ramp whose queue the first step's top rate empties; with no
    ramp demand after it, that state's interval is one rate, and the other
    states' intervals are wide."""
    model = one_ramp_cell()
    demand = DemandProfile(w0=np.full(3, 1000.0),
                           w_ramp=np.array([[500.0], [0.0], [0.0]]))
    return model, demand, zero_state(model)


def test_batched_exhaustive_search_equals_the_depth_first_one():
    """The level-batched search returns the DFS's minimum and plan bit for
    bit: on random tiny instances; on one where a ramp's interval is one
    rate in some states of a level and wide in others; and on one with
    ties, where both return the first minimal plan in grid order."""
    rng = np.random.default_rng(1106)
    cases = [_tied_instance() + (3,), _emptying_instance() + (5,)]
    for _ in range(20):
        model = random_model(rng, n_max=2)
        horizon = int(rng.integers(1, 4))
        demand = random_demand(rng, model, horizon,
                               load=float(rng.uniform(0.3, 1.0)))
        initial = SimState(rng.uniform(0.0, 0.5) * model.rho_jam,
                           rng.uniform(0.0, 1.0) * model.queue_max)
        cases.append((model, demand, initial, int(rng.integers(2, 5))))
    for model, demand, initial, points in cases:
        batched = brute_force_min_tts(model, demand, initial, points)
        dfs = dfs_min_tts(model, demand, initial, points)
        assert batched[0] == dfs[0]
        np.testing.assert_array_equal(batched[1], dfs[1])

    model, demand, initial = _tied_instance()
    best, plan = brute_force_min_tts(model, demand, initial, 3)
    assert plan[-1].tolist() == [0.0, 0.0]
    tied = plan.copy()
    tied[-1] = [512.0, 0.0]
    assert _plan_tts(model, demand, initial, tied) == best


# ---------------------------------------------------------------------------
# greedy one-step optimality against the gridded oracle

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_rates_attain_the_pointwise_flow_maximum(seed):
    # safe instances only: a gridded adversary tries max-release endpoints,
    # which on an arbitrarily congested state could overfill a cell and
    # abort the step before the comparison happens.
    rng = np.random.default_rng(seed)
    model, state, w_row = safe_one_step_instance(rng, n_max=3)
    rates = one_step_rates(model, "best_effort", state, w_row)
    nxt, _ = step(model, state, rates, w_row)
    mine = compute_flows(model, nxt, 0.0)
    oracle = brute_force_max_next_flows(model, state, w_row, w0_next=0.0,
                                        points=13)
    cap = float(model.capacity.max())
    assert np.all(mine >= oracle - 1e-9 * cap)


def _loop_max_next_flows(model, state, w_row, w0_next, points):
    """The oracle as one step per grid point: the reference for the batch."""
    axes = []
    for k in range(1, model.n + 1):
        lo, hi = feasible_rate_interval(model, k, float(state.q[k - 1]),
                                        float(w_row[k]))
        axes.append(np.linspace(lo, hi, points) if hi > lo else np.array([lo]))
    grids = np.meshgrid(*axes, indexing="ij")
    best = None
    for r in zip(*(g.ravel() for g in grids)):
        nxt, _ = step(model, state, np.array(r), w_row)
        f = compute_flows(model, nxt, w0_next)
        best = f if best is None else np.maximum(best, f)
    return best


def test_batched_oracle_equals_the_per_point_loop():
    rng = np.random.default_rng(3)
    for _ in range(100):
        model, state, w_row = safe_one_step_instance(rng, n_max=3)
        w0_next = float(rng.uniform(0.0, model.capacity[0]))
        for points in (2, 11):
            np.testing.assert_array_equal(
                brute_force_max_next_flows(model, state, w_row, w0_next,
                                           points=points),
                _loop_max_next_flows(model, state, w_row, w0_next, points))


# ---------------------------------------------------------------------------
# known optima on the builtin examples

def test_optimal_metering_beats_greedy_on_the_bottleneck_example():
    sc = builtin_example1()
    inst = build_lp(sc.model, sc.demand, sc.initial)
    sol = solve_lp(inst)
    assert certify_relaxation(inst, sol).exact
    b = tts_bounds(sc.model, sc.demand, sc.initial)
    assert sol.objective < b.tts_be - 0.2          # strictly better
    assert sol.objective > b.tts_lb + 0.5          # rate caps really bind
    # regression pins for the shipped fixture
    assert sol.objective == pytest.approx(13.1601, rel=1e-3)
    assert b.tts_be == pytest.approx(13.5305, rel=1e-3)
    assert b.tts_lb == pytest.approx(12.2315, rel=1e-3)

    # during the post-surge drain the optimum parks the bottleneck at the
    # density that just sustains its discharge cap, not at critical
    be = simulate(sc.model, sc.demand,
                  make_controller("best_effort", sc.model),
                  initial_state=sc.initial)
    target = sc.model.capacity[1] / (sc.model.beta_bar[1]
                                     * sc.model.v_free[1])
    assert target == pytest.approx(5.0)
    np.testing.assert_allclose(sol.rho[60:80, 1], target, atol=1e-3)
    np.testing.assert_allclose(be.rho[60:80, 1], sc.model.rho_crit[1],
                               atol=1e-3)


def test_metering_cannot_help_on_the_single_cell_example():
    sc = builtin_example2()
    inst = build_lp(sc.model, sc.demand, sc.initial)
    sol = solve_lp(inst)
    assert certify_relaxation(inst, sol).exact
    ol = evaluate_metrics(sc.model, simulate(
        sc.model, sc.demand, None, initial_state=sc.initial)).tts
    assert sol.objective == pytest.approx(ol, rel=1e-6)
    b = tts_bounds(sc.model, sc.demand, sc.initial)
    assert b.tts_lb == pytest.approx(sol.objective, rel=1e-6)
    assert b.tts_be > sol.objective + 0.5
    assert sol.objective == pytest.approx(4.0491, rel=1e-3)


# ---------------------------------------------------------------------------
# the array-built LP against per-row loops

class _DictRows:
    """Triplet accumulator with one coefficient dict per row."""

    def __init__(self):
        self.data, self.rows, self.cols, self.rhs = [], [], [], []

    def add(self, coeffs, rhs):
        i = len(self.rhs)
        for col, val in coeffs.items():
            self.rows.append(i)
            self.cols.append(col)
            self.data.append(val)
        self.rhs.append(rhs)

    def matrix(self, width):
        return sparse.coo_matrix(
            (self.data, (self.rows, self.cols)),
            shape=(len(self.rhs), width)).tocsr()


def _loop_build(model, demand, initial):
    """Dict-per-row assembly, the loop form of ``build_lp`` kept as the
    reference: (c, a_eq, b_eq, a_ub, b_ub, bounds)."""
    n, T, dt = model.n, demand.horizon, model.dt
    vm = VarMap(n=n, horizon=T)
    rho0, q0 = initial.rho, initial.q

    c = np.zeros(vm.size)
    for t in range(1, T + 1):
        for k in range(1, n + 1):
            c[vm.rho(t, k)] = dt * model.length[k - 1]
            c[vm.q(t, k)] = dt

    eq, ub = _DictRows(), _DictRows()
    for t in range(T):
        w_row = demand.row(t)
        eq.add({vm.phi(t, 0): 1.0}, float(w_row[0]))
        for k in range(1, n + 1):
            i = k - 1
            coeffs = {
                vm.rho(t + 1, k): 1.0,
                vm.phi(t, k - 1): -dt / model.length[i],
                vm.r(t, k): -dt / model.length[i],
                vm.phi(t, k): dt / (model.length[i] * model.beta_bar[i]),
            }
            rhs = 0.0
            if t == 0:
                rhs += float(rho0[i])
            else:
                coeffs[vm.rho(t, k)] = -1.0
            eq.add(coeffs, rhs)

            coeffs = {vm.q(t + 1, k): 1.0, vm.r(t, k): dt}
            rhs = dt * float(w_row[k])
            if t == 0:
                rhs += float(q0[i])
            else:
                coeffs[vm.q(t, k)] = -1.0
            eq.add(coeffs, rhs)

            dem_slope = model.beta_bar[i] * model.v_free[i]
            if t == 0:
                ub.add({vm.phi(t, k): 1.0}, dem_slope * float(rho0[i]))
            else:
                ub.add({vm.phi(t, k): 1.0, vm.rho(t, k): -dem_slope}, 0.0)
            if k < n:
                wb = model.w_back[i + 1]
                if t == 0:
                    ub.add({vm.phi(t, k): 1.0},
                           wb * float(model.rho_jam[i + 1] - rho0[i + 1]))
                else:
                    ub.add({vm.phi(t, k): 1.0, vm.rho(t, k + 1): wb},
                           wb * float(model.rho_jam[i + 1]))

    bounds = [(0.0, None)] * vm.size
    for t in range(T):
        for k in range(1, n + 1):
            i = k - 1
            # demand plateau, cap and the next cell's supply plateau
            limits = [model.beta_bar[i] * model.v_free[i] * model.rho_crit[i],
                      model.capacity[i]]
            if k < n:
                limits.append(model.w_back[i + 1] * (model.rho_jam[i + 1]
                                                     - model.rho_crit[i + 1]))
            bounds[vm.phi(t, k)] = (0.0, float(min(limits)))
            bounds[vm.r(t, k)] = (0.0, float(model.ramp_flow_max[k - 1]))
            bounds[vm.q(t + 1, k)] = (0.0, float(model.queue_max[k - 1]))
    return (c, eq.matrix(vm.size), np.asarray(eq.rhs),
            ub.matrix(vm.size), np.asarray(ub.rhs), bounds)


def _scipy(a):
    """A scipy CSR matrix over the arrays of an instance's rows."""
    return sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _getrow_export(inst):
    """Renderer with one ``getrow`` per row, the loop form of
    ``export_lp_text`` kept as the reference."""
    vm = inst.varmap
    names = np.empty(vm.size, dtype=object)
    for t in range(vm.horizon):
        for k in range(vm.n + 1):
            names[vm.phi(t, k)] = f"phi_{t}_{k}"
        for k in range(1, vm.n + 1):
            names[vm.r(t, k)] = f"r_{t}_{k}"
            names[vm.rho(t + 1, k)] = f"rho_{t + 1}_{k}"
            names[vm.q(t + 1, k)] = f"q_{t + 1}_{k}"

    def terms(row):
        parts = []
        for col, val in zip(row.indices, row.data):
            sign = "-" if val < 0 else "+"
            parts.append(f"{sign} {abs(val):.12g} {names[col]}")
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else joined

    out = ["Minimize", " obj: " + terms(sparse.csr_matrix(inst.c)),
           "Subject To"]
    a_eq, a_ub = _scipy(inst.a_eq), _scipy(inst.a_ub)
    for i in range(a_eq.shape[0]):
        out.append(f" e{i}: {terms(a_eq.getrow(i))} = {inst.b_eq[i]:.12g}")
    for i in range(a_ub.shape[0]):
        out.append(f" u{i}: {terms(a_ub.getrow(i))} <= {inst.b_ub[i]:.12g}")
    out.append("Bounds")
    for j, (lo, hi) in enumerate(zip(inst.lb.tolist(), inst.ub.tolist())):
        if hi == np.inf:
            out.append(f" {lo:.12g} <= {names[j]}")
        else:
            out.append(f" {lo:.12g} <= {names[j]} <= {hi:.12g}")
    out.append("End")
    return "\n".join(out) + "\n"


def _random_instance(seed):
    """Random model and demand started from a random nonzero state, so the
    t = 0 rows carry state data in their right-hand sides."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_max=4)
    return model, random_demand(rng, model, 12, load=0.8), \
        random_state(rng, model)


def _grenoble_240():
    """The Grenoble corridor with its demand compressed to 240 steps."""
    spec = replace(GRENOBLE_PRESET, horizon_steps=240,
                   windows=((0.25, 0.625),), shoulder=0.125)
    model = grenoble_model()
    return model, synth_demand(model, spec, 0), zero_state(model)


def _builtin(make):
    sc = make()
    return sc.model, sc.demand, sc.initial


LP_CASES = {
    "example1": lambda: _builtin(builtin_example1),
    "example2": lambda: _builtin(builtin_example2),
    **{f"random{s}": (lambda s=s: _random_instance(s)) for s in (31, 34, 36)},
    "grenoble240": _grenoble_240,
}


def _assert_same_csr(mine, ref):
    assert mine.shape == ref.shape and mine.nnz == ref.nnz
    for part in ("indptr", "indices", "data"):
        a, b = getattr(mine, part), getattr(ref, part)
        assert a.dtype == b.dtype, part
        np.testing.assert_array_equal(a, b, err_msg=part)


@pytest.mark.parametrize("case", sorted(LP_CASES))
def test_array_build_and_export_equal_the_row_loops(case):
    model, demand, initial = LP_CASES[case]()
    inst = build_lp(model, demand, initial)
    c, a_eq, b_eq, a_ub, b_ub, bounds = _loop_build(model, demand, initial)

    np.testing.assert_array_equal(inst.c, c)
    _assert_same_csr(inst.a_eq, a_eq)
    _assert_same_csr(inst.a_ub, a_ub)
    np.testing.assert_array_equal(inst.b_eq, b_eq)
    np.testing.assert_array_equal(inst.b_ub, b_ub)
    assert inst.lb.tolist() == [lo for lo, _ in bounds]
    assert inst.ub.tolist() == [np.inf if hi is None else hi
                                for _, hi in bounds]
    assert export_lp_text(inst) == _getrow_export(inst)


@pytest.mark.parametrize("case", sorted(LP_CASES))
def test_matvec_equals_scipys_product_bit_for_bit(case):
    """``_matvec`` sums each row from 0 in its column order, as scipy's CSR
    product does, so the residuals and the greedy basis keep scipy's bits;
    ``_rmatvec`` sums each column in the stored order of the entries, as
    scipy's product with the transpose does. Negative control: summed in
    reverse column order, some equality row comes out different, so the
    comparison sees the order."""
    inst = build_lp(*LP_CASES[case]())
    rng = np.random.default_rng(0)
    x = rng.uniform(-1e3, 1e3, inst.varmap.size)
    for a in (inst.a_eq, inst.a_ub):
        mine, ref = _matvec(a, x, _row_ids(a)), _scipy(a) @ x
        assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()
        y = rng.uniform(-1e3, 1e3, a.shape[0])
        mine, ref = _rmatvec(a, y, _row_ids(a)), _scipy(a).T @ y
        assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()

    a = inst.a_eq
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    reverse = np.bincount(rows[::-1], (a.data * x[a.indices])[::-1],
                          minlength=a.shape[0])
    assert reverse.tobytes() != (_scipy(a) @ x).tobytes()


def test_matvec_of_a_matrix_without_rows():
    """A matrix without rows gives the empty product scipy gives; one
    empty row (negative control) gives one 0."""
    x = np.arange(5.0)
    for m in (0, 1):
        a = Csr(np.zeros(m + 1, dtype=np.int32), np.zeros(0, dtype=np.int32),
                np.zeros(0), (m, 5))
        mine, ref = _matvec(a, x, _row_ids(a)), _scipy(a) @ x
        assert mine.dtype == ref.dtype and mine.tolist() == ref.tolist() \
            == [0.0] * m


def _flow_limits_as_rows(inst):
    """The instance with the constant flow limits moved from the column
    bounds to explicit single-variable rows appended to ``a_ub``, and the
    bounds those rows replace: (instance, ub without the flow limits)."""
    vm = inst.varmap
    cols = vm.phi(np.arange(vm.horizon)[:, None],
                  np.arange(1, vm.n + 1)).ravel()
    free = inst.ub.copy()
    free[cols] = np.inf
    limits = sparse.csr_matrix(
        (np.ones(cols.size), (np.arange(cols.size), cols)),
        shape=(cols.size, vm.size))
    return replace(inst,
                   a_ub=sparse.vstack((_scipy(inst.a_ub), limits)).tocsr(),
                   b_ub=np.concatenate((inst.b_ub, inst.ub[cols])),
                   ub=free), free


@pytest.mark.parametrize("case", ["example1", "random31"])
def test_flow_bounds_written_as_rows_keep_the_optimum(case):
    """The constant flow limits put back as explicit single-variable rows
    give the same optimum as the column bounds; dropping them (negative
    control) lowers it on example1, where the bottleneck cap binds."""
    model, demand, initial = LP_CASES[case]()
    inst = build_lp(model, demand, initial)
    rows, free = _flow_limits_as_rows(inst)
    objective = solve_lp(inst).objective
    assert solve_lp(rows).objective == pytest.approx(objective, rel=1e-9)
    if case == "example1":
        dropped = solve_lp(replace(inst, ub=free)).objective
        assert dropped < objective - 1e-3


def _one_step_instance():
    rng = np.random.default_rng(7)
    model = random_model(rng, n_max=4)
    return build_lp(model, random_demand(rng, model, 1, load=0.8),
                    random_state(rng, model))


def _without_ub_rows():
    inst = build_lp(*LP_CASES["random31"]())
    return replace(inst, a_ub=sparse.csr_matrix((0, inst.varmap.size)),
                   b_ub=np.zeros(0))


def _ub_rows_like_the_eq_rows():
    inst = build_lp(*LP_CASES["random31"]())
    return replace(inst, a_ub=inst.a_eq, b_ub=inst.b_eq)


OFF_LAYOUT_CASES = {
    **{f"{case}-flow-rows": (lambda case=case: _flow_limits_as_rows(
        build_lp(*LP_CASES[case]()))[0])
       for case in ("example1", "random31", "random34")},
    "one-step": _one_step_instance,
    "no-ub-rows": _without_ub_rows,
    "ub-rows-like-eq-rows": _ub_rows_like_the_eq_rows,
}


@pytest.mark.parametrize("case", sorted(OFF_LAYOUT_CASES))
def test_export_equals_the_row_loop_off_the_step_layout(case):
    """Rows that do not follow ``build_lp``'s step layout: with the flow
    limits appended to ``a_ub`` a step's chunk of rows spans up to three
    blocks of columns, a one-step instance is a single chunk, a section
    may have no rows, and one whose chunks repeat the other's patterns
    still renders its own sense."""
    inst = OFF_LAYOUT_CASES[case]()
    assert export_lp_text(inst) == _getrow_export(inst)


@pytest.mark.parametrize("case", ["example1", "random31", "random34"])
def test_an_lp_reader_reaches_the_optimum_from_the_export(case, tmp_path):
    """HiGHS's own LP-file reader, solving the exported text cold, reaches
    ``solve_lp``'s optimum; the text has no objective constant, so the
    frozen t = 0 state's time is added back."""
    inst = build_lp(*LP_CASES[case]())
    path = tmp_path / "inst.lp"
    path.write_text(export_lp_text(inst), encoding="ascii")
    core = rampflow.lp._highs_bindings()
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) != core.HighsStatus.kError
    assert highs.getNumCol() == inst.varmap.size
    assert highs.getNumRow() == inst.a_eq.shape[0] + inst.a_ub.shape[0]
    highs.run()
    assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
    read = highs.getInfo().objective_function_value + inst.objective_constant
    assert read == pytest.approx(solve_lp(inst).objective, rel=1e-9)


def test_export_follows_a_nudged_coefficient():
    """Negative control for the byte comparison: a 1e-9 change to one
    coefficient shows up in both renderers' text."""
    model, demand, initial = _random_instance(31)
    inst = build_lp(model, demand, initial)
    before = export_lp_text(inst)
    i = int(np.flatnonzero(inst.a_eq.data == 1.0)[3])
    inst.a_eq.data[i] += 1e-9
    after = export_lp_text(inst)
    assert after != before
    assert after == _getrow_export(inst)
    assert "1.000000001" in after


@pytest.mark.parametrize("case", ["example1", "random31"])
def test_solution_arrays_follow_the_column_layout(case):
    model, demand, initial = LP_CASES[case]()
    inst = build_lp(model, demand, initial)
    sol = solve_lp(inst)
    vm, x = inst.varmap, sol.x
    np.testing.assert_array_equal(sol.rho[0], initial.rho)
    np.testing.assert_array_equal(sol.q[0], initial.q)
    for t in range(vm.horizon):
        for k in range(vm.n + 1):
            assert sol.flows[t, k] == x[vm.phi(t, k)]
        for k in range(1, vm.n + 1):
            assert sol.rates[t, k - 1] == x[vm.r(t, k)]
            assert sol.rho[t + 1, k - 1] == x[vm.rho(t + 1, k)]
            assert sol.q[t + 1, k - 1] == x[vm.q(t + 1, k)]
    assert not np.shares_memory(sol.flows, x)
    assert not np.shares_memory(sol.rates, x)


# ---------------------------------------------------------------------------
# the warm start against the cold solve

def _ids(inst):
    return _row_ids(inst.a_eq), _row_ids(inst.a_ub)


def _point(inst):
    """The greedy point, or None where ``solve_lp`` has none."""
    found = _greedy_point(inst, _ids(inst))
    return None if found is None else found[0]


def _basis(inst, x):
    return _greedy_basis(inst, x, _ids(inst))


def _solve_cold(inst, monkeypatch):
    """``solve_lp`` without the greedy basis: HiGHS's cold solve, under the
    same checks."""
    with monkeypatch.context() as m:
        m.setattr(rampflow.lp, "_greedy_basis", lambda inst, x, ids: None)
        return solve_lp(inst)


@pytest.mark.parametrize("case", sorted(LP_CASES))
def test_warm_start_matches_the_cold_solve(case, monkeypatch):
    """The cold solve is the reference: the warm solve reaches its optimum
    within rel 1e-9, from a basis with one basic per row, and is certified
    exact."""
    inst = build_lp(*LP_CASES[case]())
    warm = solve_lp(inst)
    cold = _solve_cold(inst, monkeypatch)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.status == cold.status == "Optimal"
    assert warm.warm is True and cold.warm is False
    assert certify_relaxation(inst, warm).exact
    point = _point(inst)
    assert warm.objective <= float(inst.c @ point) \
        + inst.objective_constant + 1e-9 * warm.objective
    cols, rows, _ = _basis(inst, point)
    assert np.sum(cols == 1) + np.sum(rows == 1) == rows.size
    if case == "grenoble240":
        # greedy is optimal here, so its basis is an optimal one
        assert warm.iterations == 0 < cold.iterations


BASIS_CASES = {**LP_CASES, "grenoble": lambda: _builtin(builtin_grenoble)}


@pytest.mark.parametrize("case", sorted(BASIS_CASES))
def test_the_greedy_basis_has_one_basic_per_row(case):
    """So HiGHS can take it as it is, without its alien repair."""
    inst = build_lp(*BASIS_CASES[case]())
    cols, rows, _ = _basis(inst, _point(inst))
    assert np.count_nonzero(cols == 1) + np.count_nonzero(rows == 1) \
        == rows.size


DUAL_CASES = {**{case: (lambda case=case: build_lp(*BASIS_CASES[case]()))
                 for case in BASIS_CASES},
              "one-step": _one_step_instance}


@pytest.mark.parametrize("case", sorted(DUAL_CASES))
def test_the_greedy_duals_zero_every_basic_reduced_cost(case):
    """What makes ``y`` the duals of the greedy basis: the reduced cost
    d = c - A^T y is 0 on every basic column, up to 1e-12 of the largest
    cost, and every basic hypograph row has a dual of exactly 0. A flow
    whose slot a rate and a queue take is nonbasic at its cap; its demand
    row's dual comes from the pair, and read off the row's status alone it
    leaves basic columns with reduced costs of order max|c|."""
    inst = DUAL_CASES[case]()
    ids, m = _ids(inst), inst.b_eq.size
    cols, rows, y = _basis(inst, _point(inst))
    d = inst.c - _rmatvec(inst.a_eq, y[:m], ids[0]) \
        - _rmatvec(inst.a_ub, y[m:], ids[1])
    assert np.max(np.abs(d[cols == 1])) <= 1e-12 * np.max(np.abs(inst.c))
    assert np.all(y[m:][rows[m:] == 1] == 0.0)


@pytest.mark.parametrize("case", sorted(DUAL_CASES))
def test_the_row_views_name_each_row_once(case):
    """``VarMap.eq`` and ``VarMap.ub`` over the row numbers name each row
    of ``build_lp``'s instance once, and its right-hand sides read back
    through them: the inflow rows carry w0, the density rows of step 0 the
    initial density, and the supply rows after step 0 w_k rho_jam of the
    next cell."""
    inst = DUAL_CASES[case]()
    vm, model = inst.varmap, inst.model
    assert vm.rows == (inst.a_eq.shape[0], inst.a_ub.shape[0])
    for views, m in ((vm.eq, vm.rows[0]), (vm.ub, vm.rows[1])):
        named = np.concatenate([v.ravel() for v in views(np.arange(m))])
        assert np.bincount(named, minlength=m).tolist() == [1] * m
    b_in, b_rho, _ = vm.eq(inst.b_eq)
    _, b_sup = vm.ub(inst.b_ub)
    np.testing.assert_array_equal(b_in, inst.demand.w0)
    np.testing.assert_array_equal(b_rho[0], inst.initial.rho)
    np.testing.assert_array_equal(
        b_sup[1:], np.broadcast_to(model.w_back[1:] * model.rho_jam[1:],
                                   b_sup[1:].shape))


@pytest.mark.parametrize("case", sorted(DUAL_CASES))
def test_the_in_place_dual_pass_equals_the_allocating_one(case):
    """The backward pass writes each step's duals straight into ``y``; the
    statuses and the duals are the allocating pass's, bit for bit."""
    inst = DUAL_CASES[case]()
    x = _point(inst)
    mine = _basis(inst, x)
    ref = allocating_greedy_basis(inst, x, _ids(inst))
    for a, b in zip(mine, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the greedy point proved optimal by its own duals

#: the instances whose greedy point its duals prove optimal
CERTIFIED = {"grenoble240", "random31"}


def _greedy_bound(inst, y=None):
    """The weak-duality bound at the greedy basis's duals, or at ``y``."""
    if y is None:
        y = _basis(inst, _point(inst))[2]
    return rampflow.lp._dual_bound(inst, y, _ids(inst))


def _certifies(inst, bound):
    greedy = float(inst.c @ _point(inst)) + inst.objective_constant
    return greedy - bound <= rampflow.lp._CERTIFY_TOL * max(1.0, abs(greedy))


def _count_highs(monkeypatch):
    """Patch ``_solve_highs`` to log each call's start, warm or cold."""
    real, calls = rampflow.lp._solve_highs, []

    def logged(inst, basis):
        calls.append("cold" if basis is None else "warm")
        return real(inst, basis)
    monkeypatch.setattr(rampflow.lp, "_solve_highs", logged)
    return calls


@pytest.mark.parametrize("case", sorted(BASIS_CASES))
def test_the_greedy_duals_bound_the_optimum_from_below(case, monkeypatch):
    """Weak duality: the bound at the greedy basis's duals lies at or below
    HiGHS's optimum (rel 1e-9), a cold solve's on the ``LP_CASES`` and the
    warm solve's on the 960-step Grenoble LP, which a cold solve takes
    about 25 s to reach. It proves the greedy point optimal on
    ``CERTIFIED`` only; there ``solve_lp`` answers without HiGHS, with the
    cold optimum (rel 1e-9) and an exact certificate. Negative control:
    elsewhere the bound lies below the optimum by more than the tolerance,
    and HiGHS answers."""
    inst = build_lp(*BASIS_CASES[case]())
    bound = _greedy_bound(inst)
    if case in LP_CASES:
        optimum = _solve_cold(inst, monkeypatch).objective
    calls = _count_highs(monkeypatch)
    sol = solve_lp(inst)
    if case not in LP_CASES:
        optimum = sol.objective
    assert bound <= optimum + 1e-9 * abs(optimum)
    assert _certifies(inst, bound) is (case in CERTIFIED)
    if case in CERTIFIED:
        assert calls == [] and sol.dual_bound == bound
        assert sol.objective == pytest.approx(optimum, rel=1e-9)
        assert certify_relaxation(inst, sol).exact
    else:
        assert calls == ["warm"] and np.isnan(sol.dual_bound)
        assert bound < optimum - rampflow.lp._CERTIFY_TOL * optimum


def test_a_perturbed_dual_vector_is_refused(monkeypatch):
    """One density row's dual moved by 1e-3 gives a bound below the
    optimum by more than the tolerance, so ``solve_lp`` hands the
    instance to HiGHS, which reaches the cold optimum. Negative control:
    the greedy duals as they are prove it without HiGHS."""
    inst = build_lp(*LP_CASES["random31"]())
    cols, rows, y = _basis(inst, _point(inst))
    moved = y.copy()
    vm = inst.varmap
    vm.eq(moved[:vm.rows[0]])[1][1, 0] += 1e-3   # lam(1, 1)
    assert not _certifies(inst, _greedy_bound(inst, moved))

    calls = _count_highs(monkeypatch)
    assert solve_lp(inst).dual_bound == _greedy_bound(inst, y)
    assert calls == []
    monkeypatch.setattr(rampflow.lp, "_greedy_basis",
                        lambda inst, x, ids: (cols, rows, moved))
    sol = solve_lp(inst)
    assert calls == ["warm"] and np.isnan(sol.dual_bound)
    assert sol.objective == pytest.approx(
        _solve_cold(inst, monkeypatch).objective, rel=1e-9)


def _paid_queues(inst):
    """The instance with a reward of 1 per car-hour queued at any ramp:
    its optimum holds cars that greedy lets through."""
    c = inst.c.copy()
    inst.varmap.split(c)[3][:] = -1.0
    return replace(inst, c=c)


def _negative_flows(inst):
    """The instance with every flow but the inflow allowed down to -1,
    which leaves the greedy point feasible but the density columns without
    the bounds ``_implied_ub`` derives from flows >= 0."""
    lb = inst.lb.copy()
    inst.varmap.split(lb)[0][:, 1:] = -1.0
    return replace(inst, lb=lb)


@pytest.mark.parametrize("edit", [_paid_queues, _negative_flows],
                         ids=["c", "lb"])
def test_an_edited_instance_is_not_certified_by_the_greedy_duals(
        edit, monkeypatch):
    """With a reward for queued cars the greedy point is not optimal, and
    with flows allowed below 0 the bound no longer holds the densities
    below jam: either way ``solve_lp`` asks HiGHS, and its answer is the
    edited instance's cold optimum. Negative control: the instance as
    built is proved optimal without HiGHS."""
    inst = build_lp(*LP_CASES["random31"]())
    calls = _count_highs(monkeypatch)
    solve_lp(inst)
    assert calls == []
    edited = edit(inst)
    assert _point(edited) is not None
    assert not _certifies(edited, _greedy_bound(edited))
    sol = solve_lp(edited)
    assert calls == ["warm"] and np.isnan(sol.dual_bound)
    assert sol.objective == pytest.approx(
        _solve_cold(edited, monkeypatch).objective, rel=1e-9)


def test_the_implied_bounds_follow_the_right_hand_sides():
    """``_implied_ub`` reads the instance's own rows: the inflow columns
    follow an edited ``b_eq``, the densities behind a supply row follow an
    edited ``b_ub``, and every density lies below the cars that ever
    enter. Negative control: with a lower bound below 0 only the inflow
    columns keep a bound."""
    inst = build_lp(*LP_CASES["grenoble240"]())
    vm, model = inst.varmap, inst.model
    hi_phi, _, hi_rho, _ = vm.split(rampflow.lp._implied_ub(inst))
    np.testing.assert_array_equal(hi_phi[:, 0], inst.demand.w0)
    np.testing.assert_allclose(hi_rho[:-1, 1:],
                               np.broadcast_to(model.rho_jam[1:], (239, 20)),
                               rtol=1e-15)
    assert np.all(np.isfinite(hi_rho)) and np.all(hi_rho[-1] > 1e3)

    b_eq, b_ub = inst.b_eq.copy(), inst.b_ub.copy()
    vm.eq(b_eq)[0][5] += 100.0                     # inflow row of step 5
    vm.ub(b_ub)[1][7, 0] *= 2.0                    # supply row (7, 1)
    hi_phi, _, hi_rho, _ = vm.split(
        rampflow.lp._implied_ub(replace(inst, b_eq=b_eq, b_ub=b_ub)))
    assert hi_phi[5, 0] == inst.demand.w0[5] + 100.0
    assert hi_rho[6, 1] == pytest.approx(2.0 * model.rho_jam[1], rel=1e-15)

    hi = rampflow.lp._implied_ub(_negative_flows(inst))
    hi_phi, _, hi_rho, _ = vm.split(hi)
    assert np.all(np.isinf(hi_rho)) and np.all(np.isfinite(hi_phi[:, 0]))


# ---------------------------------------------------------------------------
# the certificate of a proved optimum evaluates its greedy run

def _free_flow_cell():
    """One free-flow cell fed 1000 veh/h for three steps: the scenario CI
    optimizes as free.yaml."""
    model = FreewayModel([CellParams(length=1.0, v_free=100.0, rho_crit=50.0,
                                     rho_jam=250.0)], dt=0.01)
    return model, DemandProfile(w0=np.full(3, 1000.0),
                                w_ramp=np.zeros((3, 1))), zero_state(model)


REUSE_CASES = {"grenoble240": LP_CASES["grenoble240"],
               "random31": LP_CASES["random31"], "free-flow": _free_flow_cell}


def _count_simulate(monkeypatch):
    """Patch the LP module's ``simulate`` to count its calls."""
    real, calls = rampflow.lp.simulate, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(rampflow.lp, "simulate", counted)
    return calls


def _bits(cert):
    """The certificate's fields, each float as its bytes."""
    return [np.float64(v).tobytes() if isinstance(v, float) else v
            for v in astuple(cert)]


def _replay(inst, rates):
    return simulate(inst.model, inst.demand, controller=RateSchedule(rates),
                    initial_state=inst.initial)


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_a_proved_optimum_is_certified_from_its_greedy_run(case,
                                                           monkeypatch):
    """A solve proved optimal and its certificate simulate once: the
    certificate evaluates the greedy run the solve kept. That run is the
    replay of the solution's rates, bit for bit, so the certificate equals,
    field for field and bit for bit, the one a forced replay gives."""
    inst = build_lp(*REUSE_CASES[case]())
    calls = _count_simulate(monkeypatch)
    sol = solve_lp(inst)
    cert = certify_relaxation(inst, sol)
    assert len(calls) == 1 and np.isfinite(sol.dual_bound)
    assert cert.exact and cert.max_rate_adjustment == 0.0
    kept, run = sol._run
    assert kept is inst
    forced = certify_relaxation(inst, replace(sol, _run=None))
    assert len(calls) == 2 and _bits(cert) == _bits(forced)
    replayed = _replay(inst, sol.rates)
    for part in ("rho", "q", "flows", "rates"):
        assert getattr(run, part).tobytes() \
            == getattr(replayed, part).tobytes(), part


def test_other_solutions_are_replayed(monkeypatch):
    """Negative controls. HiGHS's answer on example1 keeps no run and is
    replayed. A proved solution whose rates are edited after the solve is
    replayed, and its certificate follows the edited plan; so is one
    certified against another instance, whose certificate follows that
    instance's replay."""
    ex1 = build_lp(*LP_CASES["example1"]())
    calls = _count_simulate(monkeypatch)
    sol = solve_lp(ex1)
    assert sol._run is None and np.isnan(sol.dual_bound)
    assert certify_relaxation(ex1, sol).exact and len(calls) == 2

    inst = build_lp(*LP_CASES["random31"]())
    sol = solve_lp(inst)
    proved = certify_relaxation(inst, sol)
    t, k = np.unravel_index(np.argmax(sol.rates), sol.rates.shape)
    sol.rates[t, k] *= 0.5
    calls.clear()
    edited = certify_relaxation(inst, sol)
    assert len(calls) == 1
    tts = evaluate_metrics(inst.model, _replay(inst, sol.rates)).tts
    assert edited.simulated_tts == tts != proved.simulated_tts
    assert _bits(edited) == _bits(
        certify_relaxation(inst, replace(sol, _run=None)))

    sol = solve_lp(inst)
    d = inst.demand
    other = replace(inst, demand=DemandProfile(w0=0.5 * d.w0,
                                               w_ramp=d.w_ramp))
    calls.clear()
    moved = certify_relaxation(other, sol)
    assert len(calls) == 1
    assert moved.simulated_tts \
        == evaluate_metrics(other.model, _replay(other, sol.rates)).tts \
        != proved.simulated_tts


class _SetBasisLog:
    """A HiGHS instance that logs each ``setBasis`` as (alien, status)."""

    def __init__(self, make, log):
        self._highs, self._log = make(), log

    def setBasis(self, basis):
        status = self._highs.setBasis(basis)
        self._log.append((basis.alien, status))
        return status

    def __getattr__(self, name):
        return getattr(self._highs, name)


def test_a_basis_one_basic_short_goes_through_the_alien_hand_off(
        monkeypatch):
    """HiGHS takes the greedy basis as it is. Negative control: with one
    basic flipped to nonbasic it refuses that basis, and the alien
    hand-off solves it to the same optimum."""
    core = rampflow.lp._highs_bindings()
    make, log = core._Highs, []
    monkeypatch.setattr(core, "_Highs", lambda: _SetBasisLog(make, log))
    inst = build_lp(*LP_CASES["example1"]())
    sol = solve_lp(inst)
    assert log == [(False, core.HighsStatus.kOk)]
    assert sol.warm is True

    cols, rows, y = _basis(inst, _point(inst))
    cols[np.flatnonzero(cols == 1)[0]] = 0
    monkeypatch.setattr(rampflow.lp, "_greedy_basis",
                        lambda inst, x, ids: (cols, rows, y))
    log.clear()
    short = solve_lp(inst)
    assert log == [(False, core.HighsStatus.kError),
                   (True, core.HighsStatus.kOk)]
    assert short.warm is True and short.status == "Optimal"
    assert short.objective == pytest.approx(sol.objective, rel=1e-12)


# state after 77 windows of a receding-horizon loop on builtin_grenoble(0):
# from t0 = 0, solve the 80-step window and apply the plan's first 8 rates
_MPC_RHO_616 = [
    34.42168648819589, 39.2625318723792, 39.6702094058695, 40.01069671439679,
    37.82474345905738, 38.26383231777741, 36.18373900647879,
    39.510671935986835, 39.930399315795306, 40.479351848445326,
    40.193869486427026, 40.34053276348951, 40.46144674591529,
    42.54581231852996, 42.679133771531895, 43.041771502195324,
    43.20249356556917, 43.35518265262092, 57.52034434790357,
    80.36983822603217, 49.28176952551049]
_MPC_Q_616 = [0.0] * 18 + [169.61508411737196, 0.0, 0.0]


def test_a_warm_point_that_misses_a_row_is_solved_again_cold(monkeypatch):
    """On this window the greedy basis leads HiGHS to a point it calls
    optimal while an equality row misses by 2e-7, over the row tolerance;
    ``solve_lp`` solves it again cold, and that solution passes. Negative
    control: with the retry returning the warm point again, the row check
    refuses it."""
    sc = builtin_grenoble(0)
    window = DemandProfile(sc.demand.w0[616:696], sc.demand.w_ramp[616:696])
    inst = build_lp(sc.model, window, SimState(_MPC_RHO_616, _MPC_Q_616))
    assert _basis(inst, _point(inst)) is not None
    sol = solve_lp(inst)
    assert sol.warm is False and sol.status == "Optimal"
    assert max(sol.residual_eq, sol.residual_ub) <= rampflow.lp._RESIDUAL_TOL

    real, solved = rampflow.lp._solve_highs, []

    def warm_only(inst, basis):
        if not solved:
            solved.append(real(inst, basis))
        return solved[0]

    monkeypatch.setattr(rampflow.lp, "_solve_highs", warm_only)
    with pytest.raises(rampflow.lp.LpError, match="violates rows: eq"):
        solve_lp(inst)


def _unmetered_point(inst):
    """The no-metering run's point in the column layout, feasible in the
    LP like every run that stays in its boxes."""
    run = simulate(inst.model, inst.demand, initial_state=inst.initial)
    x = np.empty(inst.varmap.size)
    for part, values in zip(inst.varmap.split(x), (
            run.flows, run.rates, run.rho[1:], run.q[1:])):
        part[:] = values
    return x


def test_a_warm_answer_above_the_greedy_point_is_solved_again_cold(
        monkeypatch):
    """HiGHS can call a feasible point optimal that lies above the greedy
    point, which is feasible too. Here the warm solve returns the
    unmetered run's point, which meets every row but is worse than greedy
    on example1: ``solve_lp`` solves again cold and returns that answer.
    With the cold solve returning the same point, it is an ``LpError``."""
    inst = build_lp(*LP_CASES["example1"]())
    x = _unmetered_point(inst)
    point = (x, float(inst.c @ x), "Optimal", 0)
    assert max(rampflow.lp._residuals(inst, x, _ids(inst))) <= rampflow.lp._RESIDUAL_TOL
    greedy = float(inst.c @ _point(inst)) + inst.objective_constant
    assert point[1] + inst.objective_constant > 1.01 * greedy

    real, calls = rampflow.lp._solve_highs, []

    def warm_unmetered(inst, basis):
        calls.append("warm" if basis is not None else "cold")
        return point if basis is not None else real(inst, basis)

    monkeypatch.setattr(rampflow.lp, "_solve_highs", warm_unmetered)
    sol = solve_lp(inst)
    assert calls == ["warm", "cold"]
    assert sol.warm is False and sol.status == "Optimal"
    assert sol.objective <= greedy
    assert sol.objective == pytest.approx(
        _solve_cold(inst, monkeypatch).objective, rel=1e-9)
    assert certify_relaxation(inst, sol).exact

    monkeypatch.setattr(rampflow.lp, "_solve_highs",
                        lambda inst, basis: point)
    with pytest.raises(rampflow.lp.LpError,
                       match="lies above the greedy point's"):
        solve_lp(inst)


def test_a_cap_below_the_greedy_rate_still_solves(monkeypatch):
    """The greedy point bounds the optimum only where it is feasible. Capped
    below the rate the greedy run meters at step 6, the instance cuts that
    point off, so there is no warm basis and no bound: its optimum lies
    above the greedy point's objective, and ``solve_lp`` returns it, cold."""
    inst = build_lp(*LP_CASES["random34"]())
    col = inst.varmap.r(6, 1)
    point = _point(inst)
    assert point[col] > 0
    ub = inst.ub.copy()
    ub[col] = 0.0
    capped = replace(inst, ub=ub)
    assert _point(capped) is None
    sol = solve_lp(capped)
    assert sol.warm is False
    greedy = float(inst.c @ point) + inst.objective_constant
    assert sol.objective > 1.001 * greedy
    assert sol.objective == pytest.approx(
        _solve_cold(capped, monkeypatch).objective, rel=1e-9)


def test_greedy_run_leaving_its_boxes_means_a_cold_start(monkeypatch):
    """Mainline arrivals above the cell's discharge overfill it, so the
    greedy run aborts and there is no warm basis. The LP caps no density
    of the first cell, so it still solves, cold; the replay of its plan
    aborts like the greedy run did."""
    m = one_ramp_cell()
    d = DemandProfile(w0=np.full(60, 8000.0), w_ramp=np.zeros((60, 1)))
    inst = build_lp(m, d)
    assert _point(inst) is None
    sol = solve_lp(inst)
    assert sol.warm is False
    assert sol.objective == pytest.approx(
        _solve_cold(inst, monkeypatch).objective, rel=1e-9)
    assert certify_relaxation(inst, sol).failure


def test_a_replay_leaving_its_boxes_fails_the_certificate(monkeypatch):
    """The replay of a plan that overfills its cell is a certificate that
    fails with the box's message. Anything else the replay raises is a
    bug, not a property of the plan, and propagates (negative control)."""
    m = one_ramp_cell()
    d = DemandProfile(w0=np.full(60, 8000.0), w_ramp=np.zeros((60, 1)))
    inst = build_lp(m, d)
    sol = solve_lp(inst)
    cert = certify_relaxation(inst, sol)
    assert cert.exact is False and "density left its box" in cert.failure
    assert np.isnan(cert.simulated_tts) and np.isnan(cert.gap)

    def bug(*args, **kwargs):
        raise TypeError("a bug in the replay")
    monkeypatch.setattr(rampflow.lp, "simulate", bug)
    with pytest.raises(TypeError, match="a bug in the replay"):
        certify_relaxation(inst, sol)


def test_a_nan_cost_is_an_lp_error():
    """HiGHS calls an LP with a NaN cost optimal at a NaN objective, and
    solve_lp refuses that solution. The same instance with a finite cost
    solves (negative control)."""
    sc = builtin_example1()
    inst = build_lp(sc.model, sc.demand, sc.initial)
    c = inst.c.copy()
    c[0] = np.nan
    with pytest.raises(rampflow.lp.LpError, match="non-finite solution"):
        solve_lp(replace(inst, c=c))
    c[0] = inst.c[0]
    assert np.isfinite(solve_lp(replace(inst, c=c)).objective)


@pytest.mark.parametrize("residuals", [(np.nan, 0.0), (0.0, np.nan)])
def test_a_nan_residual_fails_the_row_check(residuals, monkeypatch):
    """A NaN residual is a row check that fails, warm or cold; a residual
    within the tolerance passes (negative control)."""
    sc = builtin_example1()
    inst = build_lp(sc.model, sc.demand, sc.initial)
    monkeypatch.setattr(rampflow.lp, "_residuals",
                        lambda inst, x, ids: residuals)
    with pytest.raises(rampflow.lp.LpError, match="violates rows: eq"):
        solve_lp(inst)
    monkeypatch.setattr(rampflow.lp, "_residuals",
                        lambda inst, x, ids: (0.0, 0.0))
    assert solve_lp(inst).status == "Optimal"


_IMPORT_PROBE = """\
import sys, rampflow, rampflow.cli
from dataclasses import replace
from rampflow.scenarios import GRENOBLE_PRESET, grenoble_model, synth_demand
def seen():
    print([name in sys.modules for name in ("scipy", "scipy.sparse", "yaml",
                                            "scipy.optimize._highspy._core")])
seen()
sc = rampflow.builtin_example1()
inst = rampflow.build_lp(sc.model, sc.demand, sc.initial)
rampflow.export_lp_text(inst)
seen()
model = grenoble_model()
grenoble240 = rampflow.build_lp(model, synth_demand(model, replace(
    GRENOBLE_PRESET, horizon_steps=240, windows=((0.25, 0.625),),
    shoulder=0.125), 0))
assert rampflow.solve_lp(grenoble240).dual_bound > 0.0
seen()
rampflow.certify_relaxation(inst, rampflow.solve_lp(inst))
seen()
rampflow.load_scenario(sys.argv[1])
seen()
"""


def test_scipy_loads_only_where_the_lp_needs_it(tmp_path):
    """In a fresh interpreter ``import rampflow, rampflow.cli`` loads
    neither scipy nor yaml, and building and exporting an LP loads no
    scipy. Solving the 240-step Grenoble LP, which the greedy point's
    duals prove optimal, loads no scipy either. Solving example1, which
    they do not, loads HiGHS's bindings (the negative control), without
    ``scipy.sparse``. Loading a YAML scenario loads yaml (the negative
    control)."""
    scenario = tmp_path / "one_cell.yaml"
    scenario.write_text("dt: 0.01\ncells:\n  - {length: 1, v_free: 100, "
                        "rho_crit: 50, rho_jam: 250}\ndemand:\n  table: "
                        "{w0: [1000]}\n", encoding="utf-8")
    src = Path(rampflow.lp.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(scenario)],
                         check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert [json.loads(line.lower()) for line in out.stdout.splitlines()] \
        == [[False, False, False, False], [False, False, False, False],
            [False, False, False, False], [True, False, False, True],
            [True, False, True, True]]


_SPARSE_PROBE = """\
import sys
from rampflow import cli
code = cli.main(["optimize", "--scenario", "builtin:example1",
                 "--out", sys.argv[1]])
print(code, "scipy.sparse" in sys.modules)
import scipy.optimize
print("scipy.sparse" in sys.modules)
"""


def test_optimize_leaves_scipy_sparse_unloaded(tmp_path):
    """In a fresh interpreter, ``rampflow optimize`` hands HiGHS the numpy
    rows, solves warm and never imports ``scipy.sparse``. Negative control:
    the probe sees ``scipy.sparse`` once ``scipy.optimize``, which imports
    it, has loaded."""
    src = Path(rampflow.lp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _SPARSE_PROBE, str(tmp_path / "out.json")],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.split()[-3:] == ["0", "False", "True"]
    assert json.loads((tmp_path / "out.json").read_text())["lp_warm"] \
        is True


_OPTIMIZE_PROBE = """\
import json, sys
from rampflow import cli, lp
blocked = sys.argv[1] == "blocked"
if blocked:
    import scipy.optimize
    sys.modules["scipy.optimize._highspy._core"] = None
    try:
        cli.main(["optimize", "--scenario", "builtin:example1",
                  "--out", sys.argv[2]])
    except ImportError as e:
        print(json.dumps({"ImportError": str(e)}))
    sys.exit()
code = cli.main(["optimize", "--scenario", "builtin:example1",
                 "--out", sys.argv[2]])
with open(sys.argv[2]) as f:
    warm = json.load(f)["lp_warm"]
probe = {"code": code, "lp_warm": warm,
         "scipy.optimize": "scipy.optimize" in sys.modules}
import scipy.optimize
from scipy.optimize._highspy import _core
probe["same_core"] = (_core is lp._highs_bindings()
                      is sys.modules["scipy.optimize._highspy._core"])
probe["linprog"] = scipy.optimize.linprog(
    [1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0]).fun
print(json.dumps(probe))
"""


@pytest.mark.parametrize("blocked", [False, True], ids=["file", "blocked"])
def test_optimize_loads_highs_without_scipy_optimize(blocked, tmp_path):
    """In a fresh interpreter, ``rampflow optimize`` solves warm with
    HiGHS's bindings loaded from their file, and ``scipy.optimize`` stays
    unimported; importing it afterwards reuses the loaded bindings, and
    scipy's own ``linprog`` works. Negative control: with the bindings'
    import blocked the same run fails with an ``ImportError`` that names
    the scipy floor, and writes nothing."""
    src = Path(rampflow.lp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _OPTIMIZE_PROBE,
         "blocked" if blocked else "file", str(tmp_path / "out.json")],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    probe = json.loads(out.stdout.splitlines()[-1])
    if blocked:
        assert list(probe) == ["ImportError"]
        assert f"scipy>={_declared_scipy_floor()};" in probe["ImportError"]
        assert not (tmp_path / "out.json").exists()
    else:
        assert probe == {"code": 0, "lp_warm": True, "scipy.optimize": False,
                         "same_core": True, "linprog": 1.0}


def _declared_scipy_floor():
    """The scipy floor pyproject.toml declares, such as ``1.15``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8")
    return re.search(r'"scipy>=([0-9.]+)"', text).group(1)


@pytest.mark.parametrize("how", ["blocked", "missing"])
def test_without_the_bindings_the_solve_names_the_scipy_floor(how,
                                                              monkeypatch):
    """With the bindings' import blocked, or with no bindings file in
    scipy, ``solve_lp`` raises an ``ImportError`` that names the scipy
    floor pyproject.toml declares, and registers nothing. Negative control:
    unblocked, the same call returns the loaded module and solves warm."""
    inst = build_lp(*LP_CASES["example1"]())
    core, name = rampflow.lp._highs_bindings(), rampflow.lp._CORE
    floor = _declared_scipy_floor()
    with monkeypatch.context() as m:
        if how == "blocked":
            m.setitem(sys.modules, name, None)
        else:
            m.delitem(sys.modules, name)
            m.setattr(rampflow.lp, "PathFinder",
                      SimpleNamespace(find_spec=lambda name, path: None))
        with pytest.raises(ImportError,
                           match=re.escape(f"scipy>={floor};")) as e:
            solve_lp(inst)
        assert e.value.name == name
        assert sys.modules.get(name) is None
    assert rampflow.lp._highs_bindings() is core is sys.modules[name]
    assert solve_lp(inst).warm is True
