"""End-to-end command line tests: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

import rampflow.lp
from rampflow import cli
from rampflow.cli import (
    EXIT_CONTRACT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SCENARIO,
    EXIT_UNSUPPORTED,
    main,
)
from rampflow.model import FreewayModel
from rampflow.reports import trajectory_csv_text
from rampflow.scenarios import Scenario, builtin_example2
from rampflow.simulator import evaluate_metrics, simulate

# ---------------------------------------------------------------------------
# fixture scenario files

_DROP_YAML = """\
label: droptoy
dt_seconds: 15
cells:
  - {length: 0.5, v_free: 90, rho_crit: 50, rho_jam: 350, ramp_flow_max: 1200,
     queue_max: 80, capacity_drop: 0.1}
demand:
  piecewise:
    w0:
      - {from_min: 0, to_min: 10, value: 2500}
    w1:
      - {from_min: 0, to_min: 5, value: 600}
  steps: 120
"""

# sustained arrivals above the metering cap with a tiny queue box: the
# feasible rate interval empties mid-run and the simulation must abort
_OVERLOAD_YAML = """\
label: overload
dt_seconds: 15
cells:
  - {length: 0.5, v_free: 90, rho_crit: 50, rho_jam: 350, ramp_flow_max: 600,
     queue_max: 5}
demand:
  piecewise:
    w0:
      - {from_min: 0, to_min: 10, value: 500}
    w1:
      - {from_min: 0, to_min: 10, value: 1800}
  steps: 120
"""

_ONECELL_180_YAML = """\
label: onecell
dt_seconds: 20
cells:
  - {length: 1.0, v_free: 100, rho_crit: 50, rho_jam: 250, ramp_flow_max: 900,
     queue_max: 40}
demand:
  synth:
    horizon_steps: 180
    mainline_peak: 2000
    mainline_base: 500
"""


@pytest.fixture
def drop_yaml(tmp_path):
    p = tmp_path / "drop.yaml"
    p.write_text(_DROP_YAML, encoding="utf-8")
    return str(p)


@pytest.fixture
def overload_yaml(tmp_path):
    p = tmp_path / "overload.yaml"
    p.write_text(_OVERLOAD_YAML, encoding="utf-8")
    return str(p)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# simulate

def test_simulate_stdout_csv_and_metrics_line(capsys):
    assert main(["simulate", "--scenario", "builtin:example1"]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "t,cell,rho,q,phi,r"
    # (T+1) * n data rows for the fixture: 181 * 2
    assert len(lines) == 1 + 181 * 2
    assert captured.err.startswith("tts=")
    assert "twt=" in captured.err


def test_simulate_outputs_byte_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        traj = tmp_path / f"traj_{tag}.csv"
        rep = tmp_path / f"rep_{tag}.json"
        code = main([
            "simulate", "--scenario", "builtin:example1",
            "--controller", "be", "--sigma-phi", "0.02", "--seed", "9",
            "--out", str(traj), "--report", str(rep),
        ])
        assert code == EXIT_OK
        outs.append((_read(traj), _read(rep)))
    assert outs[0] == outs[1]


def test_simulate_report_contents(tmp_path):
    rep = tmp_path / "rep.json"
    code = main([
        "simulate", "--scenario", "builtin:example1", "--controller", "be",
        "--out", str(tmp_path / "t.csv"), "--report", str(rep),
    ])
    assert code == EXIT_OK
    doc = json.loads(_read(rep))
    assert doc["scenario"] == "example1"
    assert doc["controller"] == "be"
    assert doc["horizon_steps"] == 180
    assert doc["seed"] == 0
    assert doc["tts"] > 0 and doc["tft"] > 0
    # each field is independently rounded to 9 significant digits
    assert doc["tts"] == pytest.approx(doc["tft"] + doc["twt"], rel=1e-7)
    assert 0.0 <= doc["restrictive_fraction"] <= 1.0
    assert isinstance(doc["interior_restrictive_free"], bool)
    assert abs(doc["mass_residual"]) < 1e-6


def test_simulate_relaxed_controller_runs():
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--controller", "relaxed-be"]) == EXIT_OK


@pytest.mark.parametrize("sigma, code", [
    ("-0.3", EXIT_SCENARIO), ("nan", EXIT_SCENARIO), ("inf", EXIT_SCENARIO),
    ("0", EXIT_OK)])   # negative control: sigma 0 is the noiseless run
def test_simulate_refuses_noise_levels_outside_the_theory(sigma, code,
                                                          capsys):
    assert main(["simulate", "--scenario", "builtin:example1",
                 f"--sigma-phi={sigma}"]) == code
    err = capsys.readouterr().err
    assert ("sigma_phi" in err) == (code != EXIT_OK)


@pytest.mark.parametrize("flag, value", [
    ("--dv", "-0.05"), ("--drho", "-0.1"), ("--dv", "nan"), ("--drho", "inf"),
    ("--ki", "nan"), ("--ki", "-5")])
def test_simulate_refuses_bad_belief_widths_and_gains(flag, value, capsys):
    """A bad half-width reaches the sampler's refusal, and a bad gain the
    controller's, instead of running the nominal belief or ending in a
    rate check."""
    assert main(["simulate", "--scenario", "builtin:example2",
                 "--controller", "alinea", f"{flag}={value}"]) == EXIT_SCENARIO
    assert flag[2:] in capsys.readouterr().err


def test_simulate_zero_widths_keep_the_nominal_belief(tmp_path):
    """Negative control: dv = drho = 0 runs the nominal belief, byte for
    byte, and gains 0 and 70 both run."""
    outs = []
    for extra in ([], ["--dv", "0", "--drho", "0"], ["--ki", "70"]):
        out = tmp_path / f"run{len(outs)}.csv"
        assert main(["simulate", "--scenario", "builtin:example2",
                     "--controller", "alinea", "--out", str(out),
                     *extra]) == EXIT_OK
        outs.append(_read(out))
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert main(["simulate", "--scenario", "builtin:example2",
                 "--controller", "alinea", "--ki", "0"]) == EXIT_OK


@pytest.mark.parametrize("flag, value", [
    ("--ki", "nan"), ("--dv", "-0.05"), ("--drho", "nan")])
def test_simulate_without_metering_refuses_bad_law_flags(flag, value,
                                                         capsys):
    """``--controller none`` builds its law too, so a flag value outside
    the theory meets the same refusal as under the other laws, though
    that law ignores it."""
    assert main(["simulate", "--scenario", "builtin:example2",
                 "--controller", "none", f"{flag}={value}"]) == EXIT_SCENARIO
    assert flag[2:] in capsys.readouterr().err


def test_simulate_without_metering_runs_the_unmetered_loop(tmp_path,
                                                           capsys):
    """Negative control: the ``none`` law returns inf, so the run is the
    one ``simulate`` makes without a controller, byte for byte."""
    out = tmp_path / "none.csv"
    assert main(["simulate", "--scenario", "builtin:example2",
                 "--controller", "none", "--out", str(out)]) == EXIT_OK
    sc = builtin_example2()
    traj = simulate(sc.model, sc.demand, initial_state=sc.initial)
    assert _read(out) == trajectory_csv_text(traj).encode()
    tts = evaluate_metrics(sc.model, traj).tts
    assert f"tts={tts:.9g} " in capsys.readouterr().err


def test_simulate_contract_violation_exits_3(overload_yaml, capsys):
    code = main(["simulate", "--scenario", overload_yaml])
    assert code == EXIT_CONTRACT
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_scenario_exits_2(tmp_path, capsys):
    assert main(["simulate", "--scenario",
                 str(tmp_path / "ghost.yaml")]) == EXIT_SCENARIO
    assert main(["simulate", "--scenario", "builtin:nope"]) == EXIT_SCENARIO


def test_simulate_demand_override_and_mismatch(tmp_path):
    # export the builtin demand, shift it, feed it back
    from rampflow.scenarios import builtin_example1, write_demand_csv
    sc = builtin_example1()
    good = tmp_path / "demand.csv"
    write_demand_csv(good, sc.demand)
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--demand", str(good),
                 "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    # wrong column count: one-ramp header against the two-cell model
    bad = tmp_path / "bad.csv"
    bad.write_text("t,w0,w1\n0,100,50\n", encoding="utf-8")
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--demand", str(bad)]) == EXIT_MISMATCH
    # non-finite demand is refused like any demand that does not fit the
    # model, instead of running to tts=nan
    nan = tmp_path / "nan.csv"
    lines = good.read_text(encoding="utf-8").splitlines()
    t, w0, *rest = lines[5].split(",")
    nan.write_text("\n".join(lines[:5] + [",".join([t, "nan", *rest])]
                             + lines[6:]) + "\n", encoding="utf-8")
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--demand", str(nan),
                 "--out", str(tmp_path / "n.csv")]) == EXIT_MISMATCH
    # missing file is unusable input, not a shape problem
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--demand", str(tmp_path / "none.csv")]) == EXIT_SCENARIO


@pytest.mark.parametrize("row", ["1,100,0", "1,100,0,50,7", "1,100,x,50"],
                         ids=["short", "long", "text"])
def test_a_ragged_or_non_numeric_demand_row(row, tmp_path):
    """exits 5 as a ``--demand`` override and 2 inside a scenario file;
    the same file without the bad row runs."""
    good = "t,w0,w1,w2\n0,100,0,50\n"
    csv_path = tmp_path / "demand.csv"
    yaml_path = tmp_path / "s.yaml"
    yaml_path.write_text(
        "dt: 0.0025\ncells:\n"
        "  - {length: 0.5, v_free: 100, rho_crit: 50, rho_jam: 250}\n"
        "  - {length: 0.5, v_free: 100, rho_crit: 50, rho_jam: 250,\n"
        "     ramp_flow_max: 900, queue_max: 40}\n"
        "demand:\n  csv: demand.csv\n", encoding="utf-8")
    out = str(tmp_path / "o.csv")
    for text, override, in_file in ((good, EXIT_OK, EXIT_OK),
                                    (good + row + "\n", EXIT_MISMATCH,
                                     EXIT_SCENARIO)):
        csv_path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--scenario", "builtin:example1",
                     "--demand", str(csv_path), "--out", out]) == override
        assert main(["simulate", "--scenario", str(yaml_path),
                     "--out", out]) == in_file


# ---------------------------------------------------------------------------
# optimize

def test_optimize_writes_solution_and_exports(tmp_path):
    out = tmp_path / "sol.json"
    rates = tmp_path / "rates.csv"
    lp = tmp_path / "inst.lp"
    code = main([
        "optimize", "--scenario", "builtin:example1", "--out", str(out),
        "--rates", str(rates), "--export-lp", str(lp),
    ])
    assert code == EXIT_OK
    doc = json.loads(_read(out))
    assert doc["scenario"] == "example1"
    assert doc["exact"] is True
    assert doc["gap"] == pytest.approx(0.0, abs=1e-6)
    assert doc["variables"] == 180 * (4 * 2 + 1)
    assert doc["objective"] == pytest.approx(doc["simulated_tts"], rel=1e-7)
    assert doc["lp_status"] == "Optimal"
    assert isinstance(doc["lp_iterations"], int) and doc["lp_iterations"] >= 0
    assert doc["lp_warm"] is True
    assert "lp_dual_bound" not in doc    # HiGHS answered
    rate_lines = _read(rates).decode().splitlines()
    assert rate_lines[0] == "t,r1,r2"
    assert len(rate_lines) == 1 + 180
    assert not any("-0," in ln or ln.endswith("-0") for ln in rate_lines)
    lp_text = _read(lp).decode()
    assert lp_text.startswith("Minimize")
    assert lp_text.rstrip().endswith("End")


def test_optimize_reports_the_bound_that_proved_greedy_optimal(tmp_path):
    """On a free-flow cell the greedy point's duals prove it optimal, and
    the JSON gains the bound, with no simplex iteration run; on example1
    (the negative control above) HiGHS answers and the key is absent."""
    scenario = tmp_path / "free.yaml"
    scenario.write_text("dt: 0.01\ncells:\n  - {length: 1, v_free: 100, "
                        "rho_crit: 50, rho_jam: 250}\ndemand:\n  table: "
                        "{w0: [1000, 1000, 1000]}\n", encoding="utf-8")
    out = tmp_path / "sol.json"
    assert main(["optimize", "--scenario", str(scenario), "--out",
                 str(out)]) == EXIT_OK
    doc = json.loads(_read(out))
    assert doc["lp_dual_bound"] == pytest.approx(doc["objective"], rel=1e-9)
    assert doc["exact"] is True and doc["lp_status"] == "Optimal"
    assert doc["lp_iterations"] == 0 and doc["lp_warm"] is True


def test_optimize_capacity_drop_unsupported(drop_yaml, capsys):
    assert main(["optimize", "--scenario", drop_yaml]) == EXIT_UNSUPPORTED
    assert "error:" in capsys.readouterr().err


def test_bounds_capacity_drop_unsupported(drop_yaml, tmp_path, capsys):
    assert main(["bounds", "--scenario", drop_yaml]) == EXIT_UNSUPPORTED
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""
    # negative control: the same corridor without the drop is monotone
    mono = tmp_path / "mono.yaml"
    mono.write_text(_DROP_YAML.replace("capacity_drop: 0.1",
                                       "capacity_drop: 0"), encoding="utf-8")
    assert main(["bounds", "--scenario", str(mono)]) == EXIT_OK
    assert set(json.loads(capsys.readouterr().out)) >= {"tts_lb", "tts_be"}


@pytest.mark.parametrize("command", ["optimize", "bounds"])
def test_step_size_outside_the_conditions_exits_4(command, monkeypatch,
                                                   capsys):
    """A model whose step is too long for monotone dynamics is refused
    with its violations. Scenario files cannot carry one (the loader
    refuses them, exit 2), so the model is handed to the command directly;
    the same cells at their own step (negative control) pass."""
    sc = builtin_example2()
    too_long = 2.0 * float(np.max(sc.model.length / sc.model.v_free))
    for dt, code in ((too_long, EXIT_UNSUPPORTED), (sc.model.dt, EXIT_OK)):
        model = FreewayModel(sc.model.cells, dt=dt)
        monkeypatch.setattr(cli, "load_scenario", lambda ref, model=model:
                            Scenario(sc.label, model, sc.demand, sc.initial))
        assert main([command, "--scenario", "builtin:example2"]) == code
        captured = capsys.readouterr()
        if code == EXIT_UNSUPPORTED:
            assert "dt * demand slope" in captured.err and captured.out == ""


def test_optimize_deterministic_bytes(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sol_{tag}.json"
        rates = tmp_path / f"rates_{tag}.csv"
        assert main(["optimize", "--scenario", "builtin:example2",
                     "--out", str(out), "--rates", str(rates)]) == EXIT_OK
        outs.append((_read(out), _read(rates)))
    assert outs[0] == outs[1]


def test_optimize_writes_null_where_the_replay_failed(monkeypatch, capsys):
    """A certificate that failed carries NaN; optimize writes it as null,
    so its output is JSON that a strict parser takes."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    def failed(inst, sol):
        return rampflow.lp.RelaxationCertificate(
            exact=False, lp_objective=sol.objective, simulated_tts=np.nan,
            gap=np.nan, max_rate_adjustment=np.nan, failure="left its box")
    monkeypatch.setattr(cli, "certify_relaxation", failed)
    assert main(["optimize", "--scenario", "builtin:example1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["exact"] is False
    assert doc["simulated_tts"] is doc["gap"] \
        is doc["max_rate_adjustment"] is None
    assert doc["objective"] > 0.0


# ---------------------------------------------------------------------------
# bounds

def test_bounds_doc_and_restrictiveness_csv(tmp_path):
    out = tmp_path / "bounds.json"
    restr = tmp_path / "restr.csv"
    code = main(["bounds", "--scenario", "builtin:example1",
                 "--out", str(out), "--restrictiveness", str(restr)])
    assert code == EXIT_OK
    doc = json.loads(_read(out))
    assert set(doc) == {"tts_lb", "tts_be", "certificate", "gap_abs",
                        "gap_rel", "restrictive_fraction"}
    assert doc["tts_lb"] <= doc["tts_be"] + 1e-9
    assert doc["certificate"] in ("optimal", "bounded")
    assert doc["gap_abs"] == pytest.approx(doc["tts_be"] - doc["tts_lb"],
                                           rel=1e-6, abs=1e-7)
    lines = _read(restr).decode().splitlines()
    assert lines[0] == "t,cell,status,reason"
    statuses = {ln.split(",")[2] for ln in lines[1:]}
    assert statuses <= {"restrictive", "nonrestrictive"}
    # the CSV comes from the greedy bounding run; it must be byte for byte
    # the report of a separate greedy simulation
    from rampflow.controllers import make_controller
    from rampflow.cumulative import restrictiveness_report
    from rampflow.reports import restrictiveness_csv_text
    from rampflow.scenarios import builtin_example1
    from rampflow.simulator import simulate
    sc = builtin_example1()
    greedy = simulate(sc.model, sc.demand,
                      make_controller("best_effort", sc.model),
                      initial_state=sc.initial)
    assert _read(restr) == restrictiveness_csv_text(
        restrictiveness_report(sc.model, greedy)).encode("utf-8")


# ---------------------------------------------------------------------------
# report

def test_report_replays_saved_trajectory(tmp_path):
    traj = tmp_path / "traj.csv"
    rep_live = tmp_path / "live.json"
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--controller", "be", "--out", str(traj),
                 "--report", str(rep_live)]) == EXIT_OK
    rep_replay = tmp_path / "replay.json"
    assert main(["report", "--scenario", "builtin:example1",
                 "--trajectory", str(traj),
                 "--out", str(rep_replay)]) == EXIT_OK
    live = json.loads(_read(rep_live))
    replay = json.loads(_read(rep_replay))
    assert replay["controller"] == "replay"
    # CSV stores 9 significant digits; metrics must agree to that precision
    assert replay["tts"] == pytest.approx(live["tts"], rel=1e-7)
    assert replay["twt"] == pytest.approx(live["twt"], rel=1e-6, abs=1e-6)
    assert replay["restrictive_fraction"] == pytest.approx(
        live["restrictive_fraction"], abs=1e-9)


def test_report_horizon_mismatch_exits_5(tmp_path, capsys):
    traj = tmp_path / "traj2.csv"
    assert main(["simulate", "--scenario", "builtin:example2",
                 "--out", str(traj)]) == EXIT_OK
    code = main(["report", "--scenario", "builtin:example1",
                 "--trajectory", str(traj)])
    assert code == EXIT_MISMATCH


def test_report_cell_count_mismatch_exits_5(tmp_path):
    onecell = tmp_path / "onecell.yaml"
    onecell.write_text(_ONECELL_180_YAML, encoding="utf-8")
    traj = tmp_path / "traj1.csv"
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--out", str(traj)]) == EXIT_OK
    code = main(["report", "--scenario", str(onecell),
                 "--trajectory", str(traj)])
    assert code == EXIT_MISMATCH


def test_report_a_row_outside_the_table_exits_2(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--controller", "be", "--out", str(traj)]) == EXIT_OK
    argv = ["report", "--scenario", "builtin:example1",
            "--trajectory", str(traj)]
    assert main(argv) == EXIT_OK   # negative control: the table as written
    with open(traj, "a", encoding="utf-8") as fh:
        fh.write("-1,1,1,2,,\n")
    assert main(argv) == EXIT_SCENARIO
    assert "line 364: step -1, cell 1 outside the table" \
        in capsys.readouterr().err


def test_report_a_repeated_row_exits_2(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--controller", "be", "--out", str(traj)]) == EXIT_OK
    argv = ["report", "--scenario", "builtin:example1",
            "--trajectory", str(traj)]
    assert main(argv) == EXIT_OK   # negative control: the table as written
    with open(traj, "a", encoding="utf-8") as fh:
        fh.write("3,1,99,0,0,0\n")
    assert main(argv) == EXIT_SCENARIO
    assert "line 364: step 3, cell 1 already given on line 8" \
        in capsys.readouterr().err


def test_report_missing_trajectory_exits_2(tmp_path):
    assert main(["report", "--scenario", "builtin:example1",
                 "--trajectory", str(tmp_path / "ghost.csv")]) == EXIT_SCENARIO


# ---------------------------------------------------------------------------
# campaign

def test_campaign_csv_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"camp_{tag}.csv"
        code = main([
            "campaign", "--scenario", "builtin:example1", "--runs", "2",
            "--sigmas", "0", "--variants", "monotonic", "--seed", "3",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        outs.append(_read(out))
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == ("variant,sigma,dv,drho,controller,"
                        "mean_twt_improvement,stdev,runs")
    assert len(lines) == 1 + 5        # 4 mismatch points + alinea


def test_campaign_prints_one_summary_line_per_grid_point(capsys):
    from rampflow.reports import campaign_csv_text
    from rampflow.scenarios import builtin_example1, uncertainty_campaign
    argv = ["campaign", "--scenario", "builtin:example1", "--runs", "2",
            "--sigmas", "0,0.05", "--seed", "3"]
    outs = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    # stdout is the CSV alone
    assert outs[0].out == campaign_csv_text(uncertainty_campaign(
        builtin_example1(), sigmas=(0.0, 0.05), runs=2, seed=3))
    # greedy without and at the worst mismatch, then the integral law, in
    # grid order
    assert outs[0].err.splitlines() == [
        "# monotonic sigma=0.0: greedy nominal 44.72% -> worst mismatch "
        "44.72%, integral 43.30%",
        "# monotonic sigma=0.05: greedy nominal 44.00% -> worst mismatch "
        "43.95%, integral 42.59%",
        "# capacity_drop sigma=0.0: greedy nominal 44.72% -> worst mismatch "
        "44.72%, integral 43.30%",
        "# capacity_drop sigma=0.05: greedy nominal 44.00% -> worst mismatch "
        "43.95%, integral 42.59%",
    ]


@pytest.mark.parametrize("argv, code", [
    (["--sigmas=-0.05"], EXIT_SCENARIO), (["--sigmas", "nan"], EXIT_SCENARIO),
    (["--sigmas", "0,-0.05"], EXIT_SCENARIO), (["--runs", "0"], EXIT_SCENARIO),
    (["--sigmas", "0"], EXIT_OK),   # negative control: one noiseless run
    (["--drop-alpha=-0.1"], EXIT_SCENARIO), (["--drop-alpha", "1.5"],
                                             EXIT_SCENARIO),
    (["--drop-alpha", "nan"], EXIT_SCENARIO)])
def test_campaign_refuses_grids_outside_the_theory(argv, code, capsys):
    assert main(["campaign", "--scenario", "builtin:example1",
                 "--variants", "monotonic", "--runs", "1", *argv]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (1 + 5 if code == EXIT_OK else 0)


def test_campaign_rejects_unknown_variant(capsys):
    code = main(["campaign", "--scenario", "builtin:example1",
                 "--variants", "cursed", "--runs", "1"])
    assert code == EXIT_SCENARIO


# ---------------------------------------------------------------------------
# the error table: command x error -> exit code, each case with a control

def _example1_demand(tmp_path, ramp1: float) -> str:
    """example1's demand with ``ramp1`` cars/h arriving at cell 1, whose
    ramp has neither queue storage nor metering capacity."""
    from rampflow.scenarios import builtin_example1, write_demand_csv
    from rampflow.simulator import DemandProfile
    demand = builtin_example1().demand
    w_ramp = demand.w_ramp.copy()
    w_ramp[:, 0] = ramp1
    path = tmp_path / f"demand_{ramp1:g}.csv"
    write_demand_csv(path, DemandProfile(demand.w0, w_ramp))
    return str(path)


def _over_cap_demand(command):
    def case(tmp_path, monkeypatch, broken):
        return [command, "--scenario", "builtin:example1", "--demand",
                _example1_demand(tmp_path, 50.0 if broken else 0.0)]
    return case


def _trajectory_columns(tmp_path, monkeypatch, broken):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--scenario", "builtin:example1",
                 "--out", str(traj)]) == EXIT_OK
    if broken:   # the columns of a density table only
        lines = traj.read_text(encoding="utf-8").splitlines()
        traj.write_text("".join(",".join(ln.split(",")[:3]) + "\n"
                                for ln in lines), encoding="utf-8")
    return ["report", "--scenario", "builtin:example1",
            "--trajectory", str(traj)]


def _lp_failure(tmp_path, monkeypatch, broken):
    import rampflow.lp
    from rampflow.lp import LpError
    if broken:
        def fail(inst):
            raise LpError("solver failed: Infeasible")
        monkeypatch.setattr(rampflow.lp, "solve_lp", fail)
    return ["campaign", "--scenario", "builtin:example1", "--runs", "1",
            "--sigmas", "0", "--variants", "monotonic", "--include-lp"]


def _overload(tmp_path, monkeypatch, broken):
    p = tmp_path / "overload.yaml"
    p.write_text(_OVERLOAD_YAML if broken else _OVERLOAD_YAML.replace(
        "value: 1800", "value: 600"), encoding="utf-8")
    return ["bounds", "--scenario", str(p)]


@pytest.mark.parametrize("case, code", [
    (_over_cap_demand("optimize"), EXIT_MISMATCH),
    (_over_cap_demand("bounds"), EXIT_MISMATCH),
    (_over_cap_demand("simulate"), EXIT_MISMATCH),
    (_trajectory_columns, EXIT_SCENARIO),
    (_lp_failure, EXIT_CONTRACT),
    (_overload, EXIT_CONTRACT),
], ids=["optimize-over-cap-demand", "bounds-over-cap-demand",
        "simulate-over-cap-demand",
        "report-missing-columns", "campaign-lp-failure",
        "bounds-contract-violation"])
def test_exit_codes_follow_the_error_table(case, code, tmp_path, monkeypatch,
                                           capsys):
    argv = case(tmp_path, monkeypatch, broken=True)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {argv[0]}: ")
    assert captured.out == ""
    # negative control: the same command on fitting inputs
    monkeypatch.undo()
    assert main(case(tmp_path, monkeypatch, broken=False)) == EXIT_OK


def test_errors_outside_the_table_propagate(monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("a bug, not an input the theory refuses")
    monkeypatch.setattr(cli, "tts_bounds", bug)
    with pytest.raises(TypeError, match="a bug"):
        main(["bounds", "--scenario", "builtin:example1"])


# ---------------------------------------------------------------------------
# validate

def test_validate_good_scenario(capsys):
    assert main(["validate", "--scenario", "builtin:grenoble"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "grenoble"
    assert doc["cells"] == 21
    assert doc["violations"] == []


def test_validate_a_malformed_section_exits_2(tmp_path, capsys):
    """``initial: 5`` once ended validate with an AttributeError traceback
    (exit 1). Negative control: the scenario without it validates."""
    p = tmp_path / "drop.yaml"
    p.write_text(_DROP_YAML, encoding="utf-8")
    assert main(["validate", "--scenario", str(p)]) == EXIT_OK
    p.write_text(_DROP_YAML + "initial: 5\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", "--scenario", str(p)]) == EXIT_SCENARIO
    assert "initial: need a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("dt_seconds: 15", "dt: [1]"),
    ("dt_seconds: 15", "dt_seconds: {a: 1}"),
    ("dt_seconds: 15", "dt: abc"),
    ("length: 0.5", "length: abc"),
    (_DROP_YAML[_DROP_YAML.index("  piecewise:"):], "  csv: ragged.csv\n"),
    ("label: droptoy", "label: droptoy\udcff"),   # the byte 0xff
    ("label: droptoy\n", "label: droptoy\nintial: {rho: [1.0]}\n"),
    ("  steps: 120\n", "  steps: 120\n  stpes: 120\n"),
    ("value: 600}", "value: 600, vlaue: 600}"),
], ids=["dt-a-list", "dt_seconds-a-mapping", "dt-not-a-number",
        "cell-length-not-a-number", "csv-ragged-row", "not-utf-8",
        "top-level-typo", "demand-typo", "segment-typo"])
def test_a_malformed_scenario_file_exits_2_naming_file_and_section(
        old, new, tmp_path, capsys):
    """Each of these once exited 1 with a traceback, printed ``error:``
    from validate without the file's name, or loaded silently. Negative
    control: the well-formed file validates."""
    (tmp_path / "ragged.csv").write_text("t,w0,w1\n0,100,0\n1,100\n",
                                         encoding="utf-8")
    p = tmp_path / "drop.yaml"
    assert old in _DROP_YAML
    p.write_text(_DROP_YAML, encoding="utf-8")
    assert main(["validate", "--scenario", str(p)]) == EXIT_OK
    p.write_bytes(_DROP_YAML.replace(old, new).encode("utf-8",
                                                      "surrogateescape"))
    capsys.readouterr()
    assert main(["validate", "--scenario", str(p)]) == EXIT_SCENARIO
    assert capsys.readouterr().err.startswith(f"invalid: {p}: ")
    assert main(["simulate", "--scenario", str(p)]) == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: simulate: {p}: ")
    assert captured.out == ""


def test_validate_bad_scenario_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("dt: 0.01\ncells: []\n", encoding="utf-8")
    assert main(["validate", "--scenario", str(p)]) == EXIT_SCENARIO
    assert "invalid:" in capsys.readouterr().err
