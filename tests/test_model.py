import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rampflow.model import (
    CellParams,
    FreewayModel,
    GeometryError,
    triangular_fd_defaults,
    validate_model,
)
from rampflow.scenarios import (
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
    grenoble_cells,
    with_capacity_drop,
)


# scalar curves of one cell: the reference for the vectorised
# FreewayModel.demand and FreewayModel.supply

def demand_value(cell: CellParams, rho: float) -> float:
    """Outflow the cell offers at density rho (cars/h).

    Increases at slope beta_bar * v_free up to rho_crit, then is flat;
    with a capacity drop the flat part steps down by that fraction for
    rho strictly above rho_crit.
    """
    _check_density(cell, rho)
    bv = cell.beta_bar * cell.v_free
    if rho <= cell.rho_crit:
        return bv * min(rho, cell.rho_crit)
    return (1.0 - cell.capacity_drop) * bv * cell.rho_crit


def supply_value(cell: CellParams, rho: float) -> float:
    """Inflow the cell accepts at density rho (cars/h).

    Flat at w_back * (rho_jam - rho_crit) below critical density, then
    decreases at slope w_back, hitting zero at jam density.
    """
    _check_density(cell, rho)
    w = cell.w_back
    if w is None:
        raise GeometryError("w_back unset; resolve defaults first")
    return min(w * (cell.rho_jam - cell.rho_crit), w * (cell.rho_jam - rho))


def _check_density(cell: CellParams, rho: float) -> None:
    tol = 1e-9 * max(1.0, cell.rho_jam)
    if rho < -tol or rho > cell.rho_jam + tol:
        raise ValueError(
            f"density {rho} outside [0, {cell.rho_jam}]"
        )


def _cell(**kw):
    base = dict(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0)
    base.update(kw)
    return CellParams(**base)


def test_triangular_defaults():
    c = triangular_fd_defaults(_cell())
    # supply must vanish exactly at jam density: w = v*rho_c/(rho_jam-rho_c)
    assert math.isclose(c.w_back, 25.0, rel_tol=1e-12)
    assert math.isclose(c.capacity, 5000.0, rel_tol=1e-12)
    c2 = triangular_fd_defaults(_cell(v_free=90.0, rho_crit=49.0))
    assert math.isclose(c2.w_back, 90.0 * 49.0 / 201.0, rel_tol=1e-12)


def test_triangular_defaults_keeps_overrides():
    c = triangular_fd_defaults(_cell(capacity=1000.0))
    assert c.capacity == 1000.0
    assert math.isclose(c.w_back, 25.0, rel_tol=1e-12)


def test_triangular_defaults_bad_geometry():
    with pytest.raises(GeometryError):
        triangular_fd_defaults(_cell(rho_crit=250.0))  # rho_crit == rho_jam


def test_demand_value():
    c = triangular_fd_defaults(_cell())
    assert demand_value(c, 30.0) == pytest.approx(3000.0, rel=1e-12)
    assert demand_value(c, 50.0) == pytest.approx(5000.0, rel=1e-12)
    assert demand_value(c, 200.0) == pytest.approx(5000.0, rel=1e-12)


def test_demand_value_offramp_scaling():
    c = triangular_fd_defaults(_cell(beta=0.2))
    assert demand_value(c, 30.0) == pytest.approx(0.8 * 3000.0, rel=1e-12)
    assert demand_value(c, 100.0) == pytest.approx(0.8 * 5000.0, rel=1e-12)


def test_demand_value_capacity_drop():
    c = triangular_fd_defaults(_cell(capacity_drop=0.1))
    # flat level steps down only strictly above critical density
    assert demand_value(c, 50.0) == pytest.approx(5000.0, rel=1e-12)
    assert demand_value(c, 50.0001) == pytest.approx(4500.0, rel=1e-12)
    assert demand_value(c, 240.0) == pytest.approx(4500.0, rel=1e-12)


def test_supply_value():
    c = triangular_fd_defaults(_cell())
    assert supply_value(c, 50.0) == pytest.approx(5000.0, rel=1e-12)
    assert supply_value(c, 150.0) == pytest.approx(2500.0, rel=1e-12)
    assert supply_value(c, 250.0) == pytest.approx(0.0, abs=1e-9)
    assert supply_value(c, 10.0) == pytest.approx(5000.0, rel=1e-12)


def test_density_domain_checked():
    c = triangular_fd_defaults(_cell())
    with pytest.raises(ValueError):
        demand_value(c, -1.0)
    with pytest.raises(ValueError):
        supply_value(c, 251.0)


@given(rho=st.floats(0.0, 250.0), rho2=st.floats(0.0, 250.0))
def test_demand_monotone_supply_antitone(rho, rho2):
    c = triangular_fd_defaults(_cell())
    lo, hi = sorted([rho, rho2])
    assert demand_value(c, lo) <= demand_value(c, hi) + 1e-9
    assert supply_value(c, lo) >= supply_value(c, hi) - 1e-9


def test_model_arrays_read_only():
    m = FreewayModel([_cell(), _cell(rho_crit=10.0, rho_jam=20.0)], dt=1.0 / 360.0)
    with pytest.raises(ValueError):
        m.rho_crit[0] = 1.0
    assert m.n == 2
    assert m.beta_run.tolist() == [1.0, 1.0, 1.0]


def test_beta_run_products():
    m = FreewayModel(
        [_cell(beta=0.2), _cell(beta=0.5), _cell()], dt=1.0 / 400.0)
    assert np.allclose(m.beta_run, [1.0, 0.8, 0.4, 0.4])


def test_validate_ok_grenoble():
    m = FreewayModel(grenoble_cells(), dt=15.0 / 3600.0)
    assert validate_model(m) == []


def test_validate_flags_large_dt():
    # dt * demand slope = 0.02 * 100 = 2 > length * beta_bar = 1
    m = FreewayModel([_cell()], dt=0.02)
    rules = {v.rule for v in validate_model(m)}
    assert "dt * demand slope <= length * beta_bar" in rules
    assert "dt * supply slope <= length" not in rules


def test_validate_flags_bad_geometry():
    bad = CellParams(length=1.0, v_free=100.0, rho_crit=250.0, rho_jam=250.0,
                     w_back=25.0, capacity=5000.0)
    m = FreewayModel([bad], dt=1e-3)
    viols = validate_model(m)
    assert any(v.rule == "0 < rho_crit < rho_jam" and v.cell == 1 for v in viols)


RANGED = ("length", "v_free", "rho_crit", "rho_jam", "w_back", "capacity",
          "beta", "ramp_flow_max", "queue_max", "capacity_drop")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", RANGED)
def test_a_non_finite_parameter_breaks_its_range_rule(name, value):
    ok = triangular_fd_defaults(_cell(ramp_flow_max=1000.0, queue_max=50.0))
    bad = FreewayModel([ok, replace(ok, **{name: value})], dt=1e-3)
    assert any(v.cell == 2 and name in v.rule.split()
               for v in validate_model(bad))
    # negative control: the same cells with the finite value
    assert validate_model(FreewayModel([ok, ok], dt=1e-3)) == []


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
def test_the_constructor_refuses_a_non_finite_or_nonpositive_step(dt):
    with pytest.raises(GeometryError, match="need finite dt > 0"):
        FreewayModel([_cell()], dt=dt)
    # negative control: a finite positive step
    assert FreewayModel([_cell()], dt=1e-3).dt == 1e-3


def test_vectorized_curves_match_scalar():
    rng = np.random.default_rng(0)
    cells = [triangular_fd_defaults(_cell(rho_crit=rc, beta=b, capacity_drop=a))
             for rc, b, a in [(50.0, 0.0, 0.0), (40.0, 0.2, 0.0), (60.0, 0.1, 0.1)]]
    m = FreewayModel(cells, dt=1e-3)
    for _ in range(50):
        rho = rng.uniform(0.0, 250.0, size=3)
        d = m.demand(rho)
        s = m.supply(rho)
        for k in range(3):
            assert d[k] == pytest.approx(demand_value(cells[k], rho[k]), rel=1e-12)
            assert s[k] == pytest.approx(supply_value(cells[k], rho[k]), rel=1e-12)


def _demand_with_the_copy(model: FreewayModel, rho: np.ndarray) -> np.ndarray:
    """The demand curve with the drop level copied in above rho_crit on
    every model, drop or none."""
    out = model._demand_slope * np.minimum(rho, model.rho_crit)
    np.copyto(out, model._demand_dropped, where=rho > model.rho_crit)
    return out


def _demand_copy_mismatches() -> int:
    """Densities where ``demand`` differs, in any bit, from the curve
    that always copies: on the builtins, a Grenoble stack, and a stack
    whose second member drops, at 0, rho_crit, rho_jam and between."""
    rng = np.random.default_rng(7)
    plain = [builtin_example1().model, builtin_example2().model,
             builtin_grenoble().model]
    grenoble = plain[-1]
    models = plain + [
        FreewayModel.stack([grenoble] * 3),
        FreewayModel.stack([grenoble, with_capacity_drop(grenoble, 0.1),
                            grenoble])]
    bad = 0
    for m in models:
        for shape in (m.rho_jam.shape, (3,) + m.rho_jam.shape[-1:]):
            jam = np.broadcast_to(m.rho_jam, shape)
            crit = np.broadcast_to(m.rho_crit, shape)
            pick = rng.random(shape)
            rho = np.where(pick < 0.2, crit, rng.uniform(0.0, jam))
            rho = np.where(pick > 0.9, jam, np.where(pick > 0.8, 0.0, rho))
            got, want = m.demand(rho), _demand_with_the_copy(m, rho)
            bad += int(np.sum(got.view(np.int64) != want.view(np.int64)))
    return bad


def test_demand_skips_the_drop_copy_only_where_no_cell_drops(monkeypatch):
    grenoble = builtin_grenoble().model
    mixed = FreewayModel.stack([grenoble, with_capacity_drop(grenoble, 0.1)])
    assert not grenoble._drops and mixed._drops
    assert _demand_copy_mismatches() == 0
    # negative control: a fold that reads the first member only skips the
    # copy on the mixed stack, and its dropping member's curve is wrong
    fold = FreewayModel._set_params

    def first_member_fold(self, values):
        fold(self, values)
        self._drops = bool(np.any(np.atleast_2d(self.capacity_drop)[0]))
    monkeypatch.setattr(FreewayModel, "_set_params", first_member_fold)
    assert _demand_copy_mismatches() > 0


def test_a_stack_needs_single_models_of_one_shape():
    """A stack is refused when it is empty, or when a member is itself a
    stack or differs in cell count or step length. Negative control: two
    copies of one model stack into a batch of 2."""
    m = builtin_example1().model
    other_dt = FreewayModel(m.cells, dt=m.dt / 2)
    fewer = FreewayModel(m.cells[:1], dt=m.dt)
    with pytest.raises(GeometryError, match="^need at least one model"):
        FreewayModel.stack([])
    for bad in (other_dt, fewer, FreewayModel.stack([m, m])):
        with pytest.raises(GeometryError,
                           match="must be single models with equal cell "
                                 "counts and dt"):
            FreewayModel.stack([m, bad])
    stack = FreewayModel.stack([m, m])
    assert stack.runs == 2 and stack.length.shape == (2, m.n)
