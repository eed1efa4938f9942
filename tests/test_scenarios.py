"""Builtin scenarios, the YAML loader, synthetic demand, and the campaign."""

import csv
import io
import statistics
import warnings

import numpy as np
import pytest
import yaml

from rampflow import scenarios
from rampflow.controllers import make_controller, sample_controller_model
from rampflow.model import FreewayModel
from rampflow.scenarios import (
    GRENOBLE_PRESET,
    MISMATCH_GRID,
    Scenario,
    ScenarioError,
    SynthDemandSpec,
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
    grenoble_model,
    load_scenario,
    read_demand_csv,
    synth_demand,
    uncertainty_campaign,
    with_capacity_drop,
    write_demand_csv,
)
from rampflow.simulator import (
    DemandProfile,
    DisturbanceSpec,
    evaluate_metrics,
    simulate,
)


# ---------------------------------------------------------------------------
# builtins

def test_builtin_references_resolve():
    for name in ("example1", "example2", "grenoble"):
        sc = load_scenario(f"builtin:{name}")
        assert isinstance(sc, Scenario)
        assert sc.label == name
        assert sc.demand.horizon == sc.horizon
        assert sc.demand.w_ramp.shape == (sc.horizon, sc.model.n)


def test_unknown_builtin_rejected():
    with pytest.raises(ScenarioError, match="unknown builtin"):
        load_scenario("builtin:nope")


def test_grenoble_geometry_facts():
    m = grenoble_model()
    assert m.n == 21
    # seven metered onramps with storage, three unmetered ones
    metered = np.flatnonzero(m.queue_max > 0) + 1
    assert metered.tolist() == [5, 7, 8, 11, 14, 16, 19]
    unmetered = np.flatnonzero((m.queue_max == 0) & (m.ramp_flow_max > 0)) + 1
    assert unmetered.tolist() == [1, 2, 21]
    # recurrent bottleneck: cell 20 has the only capacity override
    default_cap = m.beta_bar * m.v_free * m.rho_crit
    override = np.flatnonzero(m.capacity < default_cap - 1e-9) + 1
    assert override.tolist() == [20]
    assert m.capacity[19] == 4300.0
    # offramps at the seven documented exits
    assert (np.flatnonzero(m.beta > 0) + 1).tolist() == [4, 6, 10, 13, 15, 18, 20]


def test_grenoble_peak_demand_oversubscribes_only_the_bottleneck():
    """Steady-state peak arrivals exceed the effective arrival cap
    (min(v rho_c, F/beta_bar)) only at cell 20; every other cell keeps a
    margin for jitter and noise."""
    m = grenoble_model()
    eff_cap = np.minimum(m.v_free * m.rho_crit, m.capacity / m.beta_bar)
    spec = GRENOBLE_PRESET
    arrivals = spec.mainline_peak
    ratios = np.zeros(m.n)
    for k in range(1, m.n + 1):
        arrivals += spec.ramp_peaks.get(k, 0.0)
        ratios[k - 1] = arrivals / eff_cap[k - 1]
        arrivals = min(arrivals, eff_cap[k - 1]) * m.beta_bar[k - 1]
    assert ratios[19] > 1.01
    # cell 19 feeds the bottleneck directly and may run close to its own
    # cap; everything further upstream keeps a clear margin
    assert ratios[18] < 1.0
    others = np.delete(ratios, [18, 19])
    assert others.max() < 0.90


def test_grenoble_open_loop_congests_upstream_of_bottleneck():
    sc = builtin_grenoble(seed=0)
    traj = simulate(sc.model, sc.demand, initial_state=sc.initial)
    peak = traj.rho.max(axis=0)
    over = peak > sc.model.rho_crit + 0.5
    assert over[19], "bottleneck cell never saturates"
    assert over[18] and over[17], "no backup forms upstream of the bottleneck"
    assert not over[:4].any(), "backup reached the unmetered entry cells"
    assert traj.rho.max() < sc.model.rho_jam.min() * 0.75


def test_example_fixtures_have_documented_shapes():
    e1 = builtin_example1()
    assert e1.model.n == 2 and e1.horizon == 180
    e2 = builtin_example2()
    assert e2.model.n == 1 and e2.horizon == 120


# ---------------------------------------------------------------------------
# synthetic demand

def _flat_model(n=3, queue_max=200.0):
    from rampflow.model import CellParams
    cells = [
        CellParams(length=1.0, v_free=90.0, rho_crit=50.0, rho_jam=350.0,
                   ramp_flow_max=1500.0, queue_max=queue_max)
        for _ in range(n)
    ]
    return FreewayModel(cells, dt=30.0 / 3600.0)


def test_synth_demand_trapezoid_envelope_without_jitter():
    m = _flat_model()
    spec = SynthDemandSpec(horizon_steps=480, mainline_peak=3000.0,
                           mainline_base=600.0, ramp_peaks={2: 800.0},
                           ramp_base_frac=0.25, windows=((1.0, 2.0),),
                           shoulder=0.5, jitter=0.0)
    d = synth_demand(m, spec, seed=0)

    def envelope(t_h):
        rise = min(max((t_h - 0.5) / 0.5, 0.0), 1.0)
        fall = min(max((2.5 - t_h) / 0.5, 0.0), 1.0)
        return min(rise, fall)

    for step in (0, 60, 90, 120, 180, 250, 300, 479):
        t_h = step * m.dt
        env = envelope(t_h)
        assert d.w0[step] == pytest.approx(600.0 + 2400.0 * env, abs=1e-9)
        assert d.w_ramp[step, 1] == pytest.approx(200.0 + 600.0 * env, abs=1e-9)
    assert np.all(d.w_ramp[:, [0, 2]] == 0.0)


def test_synth_demand_deterministic_per_seed():
    m = _flat_model()
    spec = SynthDemandSpec(horizon_steps=200, mainline_peak=2500.0,
                           ramp_peaks={1: 500.0}, jitter=0.05)
    a = synth_demand(m, spec, seed=7)
    b = synth_demand(m, spec, seed=7)
    c = synth_demand(m, spec, seed=8)
    np.testing.assert_array_equal(a.w0, b.w0)
    np.testing.assert_array_equal(a.w_ramp, b.w_ramp)
    assert not np.array_equal(a.w0, c.w0)


def test_synth_demand_jitter_respects_ramp_cap():
    m = _flat_model()
    spec = SynthDemandSpec(horizon_steps=300, mainline_peak=2500.0,
                           ramp_peaks={1: 1500.0}, jitter=0.30)
    d = synth_demand(m, spec, seed=3)
    assert d.w_ramp[:, 0].max() <= 1500.0 + 1e-12
    assert d.w_ramp.min() >= 0.0


def test_synth_demand_rejects_ramp_peak_over_cap():
    m = _flat_model()
    spec = SynthDemandSpec(horizon_steps=10, mainline_peak=1000.0,
                           ramp_peaks={1: 1500.1})
    with pytest.raises(ScenarioError, match="exceeds ramp_flow_max"):
        synth_demand(m, spec, seed=0)


@pytest.mark.parametrize("key", [0, 4, -1])
def test_synth_demand_refuses_ramp_peaks_outside_the_cells(key):
    """Key 0 once landed on the last cell through ``[k - 1]`` and key
    n + 1 ended in an IndexError. Negative control: cells 1 and n take
    their peaks."""
    m = _flat_model()
    ok = synth_demand(m, SynthDemandSpec(horizon_steps=10,
                                         mainline_peak=1000.0,
                                         ramp_peaks={1: 400.0, 3: 500.0}))
    assert (ok.w_ramp > 0.0).any(axis=0).tolist() == [True, False, True]
    spec = SynthDemandSpec(horizon_steps=10, mainline_peak=1000.0,
                           ramp_peaks={key: 400.0})
    with pytest.raises(ScenarioError,
                       match=rf"ramp peak at cell {key} outside cells 1\.\.3"):
        synth_demand(m, spec)


# ---------------------------------------------------------------------------
# YAML loader

_YAML_OK = """\
label: toy
dt_seconds: 15
cells:
  - {length: 0.5, v_free: 90, rho_crit: 50, rho_jam: 350, ramp_flow_max: 1200, queue_max: 80}
  - {length: 0.5, v_free: 90, rho_crit: 50, rho_jam: 350, beta: 0.1}
demand:
  piecewise:
    w0:
      - {from_min: 0, to_min: 30, value: 2000}
    w1:
      - {from_min: 5, to_min: 15, value: 600}
  steps: 90
initial:
  rho: [10.0, 5.0]
  q: [2.0, 0.0]
"""


def test_yaml_scenario_loads(tmp_path):
    p = tmp_path / "toy.yaml"
    p.write_text(_YAML_OK, encoding="utf-8")
    sc = load_scenario(p)
    assert sc.label == "toy"
    assert sc.model.n == 2
    assert sc.model.dt == pytest.approx(15.0 / 3600.0)
    assert sc.horizon == 90
    # piecewise segments are half-open in minutes
    assert sc.demand.w0[0] == 2000.0
    step_5min = int(round(5.0 / (sc.model.dt * 60.0)))
    assert sc.demand.w_ramp[step_5min, 0] == 600.0
    assert sc.demand.w_ramp[step_5min - 1, 0] == 0.0
    np.testing.assert_array_equal(sc.initial.rho, [10.0, 5.0])
    np.testing.assert_array_equal(sc.initial.q, [2.0, 0.0])


def test_yaml_label_defaults_to_stem(tmp_path):
    p = tmp_path / "ring_road.yaml"
    p.write_text(_YAML_OK.replace("label: toy\n", ""), encoding="utf-8")
    assert load_scenario(p).label == "ring_road"


def test_yaml_demand_table_form(tmp_path):
    text = """\
dt: 0.01
cells:
  - {length: 1.0, v_free: 100, rho_crit: 50, rho_jam: 250, ramp_flow_max: 900, queue_max: 40}
demand:
  table:
    w0: [1000, 2000, 1500]
    w1: [100, 200, 300]
"""
    p = tmp_path / "table.yaml"
    p.write_text(text, encoding="utf-8")
    sc = load_scenario(p)
    assert sc.horizon == 3
    np.testing.assert_array_equal(sc.demand.w0, [1000, 2000, 1500])
    np.testing.assert_array_equal(sc.demand.w_ramp[:, 0], [100, 200, 300])


def test_yaml_demand_csv_form(tmp_path):
    csv_text = "t,w0,w1\n0,1000,50\n1,1200,75\n"
    (tmp_path / "demand.csv").write_text(csv_text, encoding="utf-8")
    text = """\
dt: 0.01
cells:
  - {length: 1.0, v_free: 100, rho_crit: 50, rho_jam: 250, ramp_flow_max: 900, queue_max: 40}
demand:
  csv: demand.csv
"""
    p = tmp_path / "fromcsv.yaml"
    p.write_text(text, encoding="utf-8")
    sc = load_scenario(p)
    assert sc.horizon == 2
    np.testing.assert_array_equal(sc.demand.w0, [1000, 1200])


def test_yaml_synth_form(tmp_path):
    text = """\
dt_seconds: 15
cells:
  - {length: 0.5, v_free: 90, rho_crit: 50, rho_jam: 350, ramp_flow_max: 1200, queue_max: 80}
demand:
  synth:
    horizon_steps: 120
    mainline_peak: 2000
    mainline_base: 500
    ramp_peaks: {1: 400}
    jitter: 0.02
    seed: 11
"""
    p = tmp_path / "synth.yaml"
    p.write_text(text, encoding="utf-8")
    sc = load_scenario(p)
    assert sc.horizon == 120
    # same built-in generator, same seed
    expected = synth_demand(
        sc.model,
        SynthDemandSpec(horizon_steps=120, mainline_peak=2000.0,
                        mainline_base=500.0, ramp_peaks={1: 400.0},
                        jitter=0.02),
        seed=11)
    np.testing.assert_array_equal(sc.demand.w0, expected.w0)


@pytest.mark.parametrize("mangle, message", [
    (lambda s: s.replace("dt_seconds: 15\n", ""), "missing dt"),
    (lambda s: s.replace("cells:", "cells: []\nunused:"), "non-empty list"),
    (lambda s: s.replace("queue_max: 80", "queue_max: 80, banana: 1"),
     "unknown fields"),
    (lambda s: s.replace("rho_crit: 50, rho_jam: 350, beta: 0.1",
                         "rho_crit: 50, rho_jam: 350, beta: 0.1, v_free: 900"),
     "invalid model"),
    (lambda s: s.replace("q: [2.0, 0.0]", "q: [999.0, 0.0]"),
     "outside the model boxes"),
    (lambda s: s.replace("rho: [10.0, 5.0]", "rho: [10.0]"),
     "must have length"),
])
def test_yaml_rejections(tmp_path, mangle, message):
    p = tmp_path / "bad.yaml"
    p.write_text(mangle(_YAML_OK), encoding="utf-8")
    with pytest.raises(ScenarioError, match=message):
        load_scenario(p)


_PIECEWISE = """\
  piecewise:
    w0:
      - {from_min: 0, to_min: 30, value: 2000}
    w1:
      - {from_min: 5, to_min: 15, value: 600}
  steps: 90
"""


@pytest.mark.parametrize("old, new, message", [
    ("initial:\n  rho: [10.0, 5.0]\n  q: [2.0, 0.0]\n", "initial: 5\n",
     r"toy\.yaml: initial: need a mapping with rho and q"),
    ("rho: [10.0, 5.0]", "rho: [ten, 5.0]",
     r"initial: could not convert string to float: 'ten'"),
    ("{from_min: 5, to_min: 15, value: 600}", "{from_min: 5, value: 600}",
     r"demand\.piecewise: missing 'to_min'"),
    ("    w1:\n", "    w9:\n",
     r"demand\.piecewise: column 'w9' is not one of w0\.\.w2"),
    (_PIECEWISE, "  synth: 5\n", r"demand\.synth: need a mapping"),
    (_PIECEWISE, "  synth: {horizon_steps: 9, mainline_peak: 1, "
     "ramp_peaks: {3: 100}}\n",
     r"demand\.synth: column 3 is not one of w1\.\.w2"),
    (_PIECEWISE, "  table: 5\n", r"demand\.table: need a mapping"),
    ("dt_seconds: 15", "dt: [1]",
     r"toy\.yaml: dt: float\(\) argument must be .*, not 'list'"),
    ("dt_seconds: 15", "dt_seconds: {a: 1}",
     r"toy\.yaml: dt_seconds: float\(\) argument must be .*, not 'dict'"),
    ("dt_seconds: 15", "dt: abc",
     r"toy\.yaml: dt: could not convert string to float: 'abc'"),
    ("{length: 0.5, v_free: 90, rho_crit: 50, rho_jam: 350, beta",
     "{length: abc, v_free: 90, rho_crit: 50, rho_jam: 350, beta",
     r"toy\.yaml: cells\[1\]: could not convert string to float: 'abc'"),
    (_PIECEWISE, "  csv: ragged.csv\n", r"toy\.yaml: demand\.csv: "),
    (_PIECEWISE, "  csv: ghost.csv\n",
     r"toy\.yaml: demand\.csv: demand csv not found: .*ghost\.csv$"),
    (_PIECEWISE, "  csv: header.csv\n",
     r"toy\.yaml: demand\.csv: .*header\.csv: bad header \['t', 'w0'\]"),
    (_PIECEWISE, "  csv: empty.csv\n",
     r"toy\.yaml: demand\.csv: .*empty\.csv: no demand rows"),
    (_PIECEWISE, "  synth: {horizon_steps: 9, mainline_peak: 1, "
     "ramp_peaks: {1: 5000}}\n",
     r"toy\.yaml: demand\.synth: ramp peak 5000 at cell 1 exceeds "
     r"ramp_flow_max 1200"),
    ("dt_seconds: 15", "dt_seconds: 15\ndt: 0.001",
     r"toy\.yaml: dt and dt_seconds: give one of them, not both"),
    # surrogateescape writes the lone surrogate as the byte 0xff
    ("label: toy", "label: toy\udcff",
     r"toy\.yaml: encoding: 'utf-8' codec can't decode byte 0xff"),
    ("initial:", "intial:",
     r"toy\.yaml: top level: unknown keys \['intial'\]; have label, dt, "
     r"dt_seconds, cells, demand and initial"),
    ("  steps: 90\n", "  steps: 90\n  stpes: 90\n",
     r"toy\.yaml: demand: unknown keys \['stpes'\]; have piecewise and "
     r"steps"),
    ("value: 600}", "value: 600, vlaue: 600}",
     r"toy\.yaml: demand\.piecewise: unknown keys \['vlaue'\]; have "
     r"from_min, to_min and value"),
    ("  steps: 90\n", "  steps: 0\n",
     r"toy\.yaml: demand: piecewise needs a positive 'steps'$"),
    ("  steps: 90\n", "  steps: -3\n",
     r"toy\.yaml: demand: piecewise needs a positive 'steps'$"),
], ids=["initial-not-a-mapping", "initial-not-numbers",
        "segment-without-to_min", "column-past-the-cells",
        "synth-not-a-mapping", "synth-ramp-past-the-cells",
        "table-not-a-mapping", "dt-a-list", "dt_seconds-a-mapping",
        "dt-not-a-number", "cell-length-not-a-number", "csv-ragged-row",
        "csv-not-found", "csv-bad-header", "csv-without-rows",
        "synth-peak-over-the-cap", "dt-and-dt_seconds", "not-utf-8", "top-level-typo", "demand-typo", "segment-typo",
        "piecewise-zero-steps", "piecewise-negative-steps"])
def test_malformed_sections_are_scenario_errors(old, new, message, tmp_path):
    """A malformed section is a ScenarioError naming the file and the
    section once each (exit 2), not an AttributeError, KeyError, TypeError
    or IndexError from the parser, nor a misspelled key read as absent.
    Negative control: the same scenario, well formed, loads."""
    (tmp_path / "ragged.csv").write_text("t,w0,w1,w2\n0,100,0,0\n1,100\n",
                                         encoding="utf-8")
    (tmp_path / "header.csv").write_text("t,w0\n0,100\n", encoding="utf-8")
    (tmp_path / "empty.csv").write_text("t,w0,w1,w2\n", encoding="utf-8")
    p = tmp_path / "toy.yaml"
    assert old in _YAML_OK
    p.write_text(_YAML_OK, encoding="utf-8")
    assert load_scenario(p).horizon == 90
    p.write_bytes(_YAML_OK.replace(old, new).encode("utf-8",
                                                    "surrogateescape"))
    with pytest.raises(ScenarioError, match=message) as err:
        load_scenario(p)
    what = str(err.value).removeprefix(f"{p}: ")
    section = what.split(": ")[0]
    assert what != str(err.value) and str(p) not in what
    assert f"{section}: " not in what.removeprefix(f"{section}: ")


@pytest.mark.parametrize("key", ["ww1", "w", "w-1"])
def test_a_demand_column_takes_at_most_one_w(key, tmp_path):
    """A table column ``ww1`` once loaded as ramp 1. Negative control:
    ``w1`` and ``1`` load, as the same column."""
    text = """\
dt: 0.01
cells:
  - {length: 1.0, v_free: 100, rho_crit: 50, rho_jam: 250, ramp_flow_max: 900, queue_max: 40}
  - {length: 1.0, v_free: 100, rho_crit: 50, rho_jam: 250}
demand:
  table:
    w0: [1000, 2000]
    COLUMN: [100, 200]
"""
    p = tmp_path / "table.yaml"
    for good in ("w1", "1"):
        p.write_text(text.replace("COLUMN", good), encoding="utf-8")
        np.testing.assert_array_equal(load_scenario(p).demand.w_ramp,
                                      [[100, 0], [200, 0]])
    p.write_text(text.replace("COLUMN", key), encoding="utf-8")
    with pytest.raises(ScenarioError, match=rf"table\.yaml: demand\.table: "
                       rf"column '{key}' is not one of w1\.\.w2"):
        load_scenario(p)


def test_initial_refuses_unknown_keys(tmp_path):
    """A typo under ``initial:`` once loaded a zero state without a word.
    Negative control: rho and q load as given."""
    p = tmp_path / "toy.yaml"
    p.write_text(_YAML_OK, encoding="utf-8")
    assert load_scenario(p).initial.rho.tolist() == [10.0, 5.0]
    p.write_text(_YAML_OK.replace("  rho: [10.0, 5.0]", "  rh0: [10.0, 5.0]"),
                 encoding="utf-8")
    with pytest.raises(ScenarioError,
                       match=r"toy\.yaml: initial: unknown keys \['rh0'\]"):
        load_scenario(p)


def test_yaml_non_finite_initial_state_rejected(tmp_path):
    p = tmp_path / "nan.yaml"
    for value in (".nan", ".inf"):
        p.write_text(_YAML_OK.replace("q: [2.0, 0.0]", f"q: [{value}, 0.0]"),
                     encoding="utf-8")
        with pytest.raises(ScenarioError, match="outside the model boxes"):
            load_scenario(p)


def test_yaml_initial_state_outside_by_rounding_loads_onto_the_boxes(tmp_path):
    """The loaded state is the checked one, moved onto its boxes; a queue
    outside by more than rounding (negative control) is refused."""
    p = tmp_path / "edge.yaml"
    p.write_text(_YAML_OK.replace("q: [2.0, 0.0]", "q: [80.00000001, -1e-10]"),
                 encoding="utf-8")
    sc = load_scenario(p)
    assert sc.initial.q.tolist() == [80.0, 0.0]
    p.write_text(_YAML_OK.replace("q: [2.0, 0.0]", "q: [80.001, 0.0]"),
                 encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"value 80\.001 outside"):
        load_scenario(p)


def test_yaml_demand_must_pick_exactly_one_kind(tmp_path):
    text = _YAML_OK.replace("demand:\n", "demand:\n  csv: nope.csv\n")
    p = tmp_path / "two.yaml"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(p)


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "ghost.yaml")
    p = tmp_path / "broken.yaml"
    p.write_text("cells: [unterminated", encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(p)


_LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__,
                              reason="PyYAML built without libyaml")
_YAML_LOADERS = [pytest.param("SafeLoader", id="python"),
                 pytest.param("CSafeLoader", id="libyaml", marks=_LIBYAML)]

# the scalars and collections a scenario uses: ints, leading-dot floats,
# exponents with and without a sign (YAML 1.1 reads `2e2` as a string,
# which the table form converts), flow and block sequences and mappings
_YAML_TYPES = """\
label: types
dt: 4.1666666666666666e-3
cells:
  - {length: .5, v_free: 9.0e+1, rho_crit: 50, rho_jam: 350,
     ramp_flow_max: 1200, queue_max: 80}
  - length: 0.5
    v_free: 90
    rho_crit: 50
    rho_jam: 350
    beta: 0.1
demand:
  table:
    w0: [2000, 2.5e3, 1800.25]
    w1:
      - 100
      - 2e2
      - 0
initial: {rho: [10.0, 5], q: [2, 0.0]}
"""


@_LIBYAML
@pytest.mark.parametrize("text", [_YAML_OK, _YAML_TYPES],
                         ids=["piecewise", "types"])
def test_both_yaml_loaders_build_the_same_scenario(text, tmp_path,
                                                   monkeypatch):
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(
        text, Loader=yaml.SafeLoader)
    p = tmp_path / "s.yaml"
    p.write_text(text, encoding="utf-8")
    loaded = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(scenarios, "_yaml_loader", lambda: loader)
        loaded.append(load_scenario(p))
    py, c = loaded
    assert py.label == c.label and py.model.dt == c.model.dt
    assert py.model.cells == c.model.cells
    for a, b in ((py.demand.w0, c.demand.w0),
                 (py.demand.w_ramp, c.demand.w_ramp),
                 (py.initial.rho, c.initial.rho),
                 (py.initial.q, c.initial.q)):
        np.testing.assert_array_equal(a, b)


def test_the_yaml_loader_is_chosen_by_the_platform():
    assert scenarios._yaml_loader() is (
        yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


@pytest.mark.parametrize("loader", _YAML_LOADERS)
@pytest.mark.parametrize("text", ["cells: [unterminated", "a: b: c",
                                  "cells:\n  - {length: 1\n"])
def test_broken_yaml_is_a_scenario_error_under_each_loader(
        loader, text, tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "_yaml_loader",
                        lambda: getattr(yaml, loader))
    p = tmp_path / "broken.yaml"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(p)


# ---------------------------------------------------------------------------
# demand CSV round trip

def test_demand_csv_roundtrip(tmp_path):
    sc = builtin_example1()
    p = tmp_path / "demand.csv"
    write_demand_csv(p, sc.demand)
    back = read_demand_csv(p, sc.model.n)
    np.testing.assert_allclose(back.w0, sc.demand.w0, rtol=1e-9)
    np.testing.assert_allclose(back.w_ramp, sc.demand.w_ramp, rtol=1e-9)


def _demand_csv_per_value(path, demand: DemandProfile) -> None:
    """The writer before the per-row template: ``csv.writer`` over each
    value's ``format``, the reference bytes."""
    n = demand.w_ramp.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"w{k}" for k in range(n + 1)])
        for t in range(demand.horizon):
            writer.writerow([t] + [f"{v:.9g}" for v in demand.row(t)])


def test_demand_csv_bytes_equal_the_per_value_writer(tmp_path):
    signed_zero = DemandProfile(np.array([-0.0, 1e-300, 1234.5678901234]),
                                np.array([[0.0, -0.0], [2.5, 1e20],
                                          [1.0 / 3.0, 7.0]]))
    assert "-0" in f"{signed_zero.w0[0]:.9g}"
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for demand in (builtin_example1().demand, builtin_example2().demand,
                   builtin_grenoble(3).demand, signed_zero):
        write_demand_csv(got, demand)
        _demand_csv_per_value(want, demand)
        assert got.read_bytes() == want.read_bytes()


def test_demand_csv_header_check(tmp_path):
    p = tmp_path / "demand.csv"
    p.write_text("t,w0\n0,100\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match="bad header"):
        read_demand_csv(p, 2)


def _csv_module_rows(text: str) -> np.ndarray:
    """The columns after ``t`` of every non-empty row, each parsed by
    ``float`` from the csv module's fields: the reference reading."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    return np.array([[float(x) for x in row[1:]] for row in reader if row])


def test_demand_csv_parses_like_the_csv_module(tmp_path):
    p = tmp_path / "demand.csv"
    for sc in (builtin_example1(), builtin_grenoble(3)):
        write_demand_csv(p, sc.demand)
        want = _csv_module_rows(p.read_text(encoding="utf-8"))
        got = read_demand_csv(p, sc.model.n)
        np.testing.assert_array_equal(got.w0, want[:, 0])
        np.testing.assert_array_equal(got.w_ramp, want[:, 1:])


def test_demand_csv_accepts_blank_lines_and_quoted_numbers(tmp_path):
    clean = "t,w0,w1,w2\n0,1000.5,50,0\n1,1200,7.5e1,0\n"
    loose = ('t,w0,w1,w2\n\n0,"1000.5",50,0\n\n'
             '"1",1200,"7.5e1",0\n\n')
    p, q = tmp_path / "clean.csv", tmp_path / "loose.csv"
    p.write_text(clean, encoding="utf-8")
    q.write_text(loose, encoding="utf-8")
    a, b = read_demand_csv(p, 2), read_demand_csv(q, 2)
    np.testing.assert_array_equal(b.w0, [1000.5, 1200.0])
    np.testing.assert_array_equal(a.w0, b.w0)
    np.testing.assert_array_equal(a.w_ramp, b.w_ramp)
    np.testing.assert_array_equal(b.w_ramp, _csv_module_rows(loose)[:, 1:])
    one = tmp_path / "one.csv"
    one.write_text("t,w0,w1,w2\n0,1,2,3\n", encoding="utf-8")
    assert read_demand_csv(one, 2).w_ramp.shape == (1, 2)


@pytest.mark.parametrize("body", ["", "\n\n", "\n  \n"],
                         ids=["empty", "blank-lines", "whitespace"])
def test_demand_csv_without_rows_is_refused_quietly(body, tmp_path):
    p = tmp_path / "demand.csv"
    p.write_text("t,w0,w1\n" + body, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="no demand rows"):
            read_demand_csv(p, 1)


@pytest.mark.parametrize("rows", [
    "0,100,50\n1,100\n", "0,100,50\n1,100,50,7\n", "0,100,x\n",
    "0,100,\n", "0\n1\n", "0,100\n1,100\n"],
    ids=["short", "long", "text", "empty-field", "t-only", "narrow"])
def test_demand_csv_ragged_or_non_numeric_rows_raise(rows, tmp_path):
    p = tmp_path / "demand.csv"
    p.write_text("t,w0,w1\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_demand_csv(p, 1)
    assert not isinstance(err.value, ScenarioError)


# ---------------------------------------------------------------------------
# uncertainty campaign

def test_campaign_shape_and_determinism():
    sc = builtin_example1()
    kwargs = dict(runs=3, seed=5, sigmas=(0.0, 0.05),
                  variants=("monotonic", "capacity_drop"))
    rows_a = uncertainty_campaign(sc, **kwargs)
    rows_b = uncertainty_campaign(sc, **kwargs)
    assert rows_a == rows_b
    # per variant and sigma: one row per mismatch point plus one ALINEA row
    assert len(rows_a) == 2 * 2 * (len(MISMATCH_GRID) + 1)
    for row in rows_a:
        assert row.variant in ("monotonic", "capacity_drop")
        assert row.controller in ("best_effort", "alinea")
        assert np.isfinite(row.mean_twt_improvement)
        assert row.stdev >= 0.0
    grid_seen = {(r.dv, r.drho) for r in rows_a if r.controller == "best_effort"}
    assert grid_seen == set(MISMATCH_GRID)


def _serial_campaign(sc, runs, seed, sigmas, variants, drop_alpha=0.10):
    """Reference campaign in which every run is its own single-run
    ``simulate`` call, numbered as the campaign documents."""
    nominal = sc.model
    rows = []
    for variant in variants:
        plant = nominal if variant == "monotonic" \
            else with_capacity_drop(nominal, drop_alpha)
        for sigma in sigmas:
            def twt(ctrl, r):
                noise = DisturbanceSpec(sigma, seed=seed + r) if sigma else None
                traj = simulate(plant, sc.demand, controller=ctrl,
                                disturbance=noise, initial_state=sc.initial)
                assert traj.rho.shape == (sc.horizon + 1, nominal.n)
                return evaluate_metrics(plant, traj).twt

            base = [twt(make_controller("none", nominal), r)
                    for r in range(runs)]

            def row(dv, drho, kind, ctrls):
                vals = [100.0 * (base[r] - twt(ctrls[r], r)) / base[r]
                        for r in range(runs)]
                return (variant, sigma, dv, drho, kind,
                        statistics.fmean(vals), statistics.pstdev(vals), runs)

            for dv, drho in MISMATCH_GRID:
                rows.append(row(dv, drho, "best_effort", [
                    make_controller("best_effort", sample_controller_model(
                        nominal, dv, drho, seed=seed + 1000 + r))
                    for r in range(runs)]))
            rows.append(row(0.0, 0.0, "alinea",
                            [make_controller("alinea", nominal)] * runs))
    return rows


def test_campaign_matches_serial_single_runs():
    sc = builtin_example1()
    kwargs = dict(runs=3, seed=1, sigmas=(0.0, 0.05),
                  variants=("monotonic", "capacity_drop"))
    got = uncertainty_campaign(sc, **kwargs)
    want = _serial_campaign(sc, **kwargs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.variant, g.sigma, g.dv, g.drho, g.controller, g.runs) \
            == w[:5] + w[7:]
        assert g.mean_twt_improvement == pytest.approx(w[5], rel=1e-12)
        assert g.stdev == pytest.approx(w[6], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_the_law_per_run_batch_equals_each_law_alone(sigma):
    """Each run of the campaign's mixed batch is, bit for bit, the run of
    its own law alone: rates and histories, with the integral law
    integrating its own applied rates."""
    sc = builtin_example1()
    nominal = sc.model
    dropped = with_capacity_drop(nominal, 0.10)
    runs = [("none", nominal, nominal), ("alinea", nominal, nominal),
            ("best_effort", nominal, nominal),
            ("best_effort", dropped, sample_controller_model(
                nominal, 0.10, 0.20, seed=7)),
            ("alinea", dropped, nominal), ("none", dropped, nominal)]
    seeds = [3, 4, 5, 6, 7, 8]
    noise = DisturbanceSpec(sigma, seed=seeds) if sigma else None
    law = scenarios._LawPerRun([k for k, _, _ in runs],
                               [b for _, _, b in runs])
    batch = simulate(FreewayModel.stack([p for _, p, _ in runs]), sc.demand,
                     controller=law, disturbance=noise,
                     initial_state=sc.initial)
    assert len(law._laws) == 2   # each law once per step, not per run
    for r, (kind, plant, belief) in enumerate(runs):
        alone = simulate(plant, sc.demand,
                         controller=make_controller(kind, belief),
                         disturbance=DisturbanceSpec(sigma, seed=seeds[r])
                         if sigma else None, initial_state=sc.initial)
        for name in ("rho", "q", "flows", "rates"):
            np.testing.assert_array_equal(getattr(batch.run(r), name),
                                          getattr(alone, name))
    # negative control: the integral law differs from the unmetered one
    assert not np.array_equal(batch.rates[1], batch.rates[0])


def test_campaign_lp_row_positive_improvement():
    sc = builtin_example1()
    rows = uncertainty_campaign(sc, runs=1, seed=0, sigmas=(0.0,),
                                variants=("monotonic",), include_lp=True)
    lp_rows = [r for r in rows if r.controller == "lp"]
    assert len(lp_rows) == 1
    # the optimal schedule strictly beats open loop on this fixture
    assert lp_rows[0].mean_twt_improvement > 5.0


def test_campaign_lp_row_equals_separate_runs(monkeypatch):
    """The lp row is the optimum's waiting time against the unmetered
    run's, both read from one simulation of that run."""
    from rampflow import scenarios
    from rampflow.lp import build_lp, solve_lp
    sc = builtin_example1()
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("controller"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(scenarios, "simulate", counted)
    rows = uncertainty_campaign(sc, runs=1, sigmas=(0.0,),
                                variants=("monotonic",), include_lp=True)
    # every law of the noiseless grid in one batch, one unmetered run
    # for lp
    assert len(calls) == 2
    ol = evaluate_metrics(sc.model, simulate(sc.model, sc.demand,
                                             initial_state=sc.initial))
    twt_lp = solve_lp(build_lp(sc.model, sc.demand, sc.initial)).objective \
        - ol.tft
    assert rows[-1].controller == "lp"
    assert rows[-1].mean_twt_improvement == 100.0 * (ol.twt - twt_lp) / ol.twt


def test_the_default_grid_runs_in_three_calls_led_by_the_greedy_batch(
        monkeypatch):
    """The noiseless level is one call that holds every law; each noisy
    level shares one call between the unmetered and integral runs and
    gives the greedy law the other. No batch is larger than the greedy
    one plus one run per cheap law and variant."""
    sc = builtin_example1()
    calls = []

    def counted(model, *args, **kwargs):
        calls.append((set(kwargs["controller"].kinds), model.runs))
        return simulate(model, *args, **kwargs)

    monkeypatch.setattr(scenarios, "simulate", counted)
    uncertainty_campaign(sc, runs=2)
    assert [kinds for kinds, _ in calls] == [
        {"none", "alinea", "best_effort"}, {"none", "alinea"},
        {"best_effort"}]
    greedy = 2 * len(MISMATCH_GRID) * 2
    assert calls[2][1] == greedy
    assert max(runs for _, runs in calls) == calls[0][1] == greedy + 2 * 2


def test_campaign_refuses_bad_runs_and_noise_levels():
    sc = builtin_example1()
    for runs in (0, -1):
        with pytest.raises(ValueError, match="runs"):
            uncertainty_campaign(sc, runs=runs, sigmas=(0.0,),
                                 variants=("monotonic",))
    for sigma in (-0.05, float("nan")):
        with pytest.raises(ValueError, match="sigma_phi"):
            uncertainty_campaign(sc, runs=1, sigmas=(0.0, sigma),
                                 variants=("monotonic",))
    # validate_model's rule 0 <= capacity_drop < 1
    for alpha in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="drop_alpha"):
            uncertainty_campaign(sc, runs=1, sigmas=(0.0,), drop_alpha=alpha)
    # negative control: one run at sigma 0 is a valid grid
    rows = uncertainty_campaign(sc, runs=1, sigmas=(0.0,),
                                variants=("monotonic",))
    assert len(rows) == 5 and all(r.runs == 1 for r in rows)


def test_campaign_runs_without_a_capacity_drop():
    """Negative control: alpha 0 is in the rule, and its drop plant is
    the nominal one."""
    rows = uncertainty_campaign(builtin_example1(), runs=1, sigmas=(0.0,),
                                drop_alpha=0.0)
    mono = [r for r in rows if r.variant == "monotonic"]
    drop = [r for r in rows if r.variant == "capacity_drop"]
    assert [r.mean_twt_improvement for r in drop] \
        == [r.mean_twt_improvement for r in mono]


def test_campaign_rejects_unknown_variant():
    sc = builtin_example1()
    with pytest.raises(ValueError, match="unknown variant"):
        uncertainty_campaign(sc, runs=1, variants=("weird",))


def test_with_capacity_drop_sets_alpha_everywhere():
    m = grenoble_model()
    dropped = with_capacity_drop(m, 0.15)
    assert np.all(dropped.capacity_drop == 0.15)
    assert np.all(m.capacity_drop == 0.0)
    # geometry untouched
    np.testing.assert_array_equal(dropped.length, m.length)
