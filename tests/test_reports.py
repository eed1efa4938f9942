"""Text writers against ``csv.writer`` renderings of the same rows."""

import csv
import io

import numpy as np
import pytest

from rampflow.controllers import make_controller
from rampflow.cumulative import (
    DEMAND_LIMITED,
    NONRESTRICTIVE,
    SUPPLY_LIMITED,
    RestrictivenessReport,
    tts_bounds,
)
from rampflow.model import FreewayModel
from rampflow.reports import (
    fmt,
    rates_csv_text,
    read_trajectory_csv,
    restrictiveness_csv_text,
    trajectory_csv_text,
)
from rampflow.scenarios import (
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
)
from rampflow.simulator import DemandProfile, DisturbanceSpec, simulate

from conftest import tiled_grenoble


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _odd_values(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` with a negative zero and a few awkward renderings."""
    a = np.array(a, dtype=float)
    a.flat[:5] = [-0.0, 1.0 / 3.0, 1e-300, 123456789.123, -2.5e-7]
    return a


def _greedy_example1():
    sc = builtin_example1()
    return simulate(sc.model, sc.demand,
                    make_controller("best_effort", sc.model),
                    initial_state=sc.initial)


def test_trajectory_equals_a_csv_writer_rendering():
    traj = _greedy_example1()
    traj.rho = _odd_values(traj.rho)
    traj.rates = _odd_values(traj.rates)
    traj.q[-1, -1] = -0.0
    T, n = traj.horizon, traj.rho.shape[1]
    ref = _csv([["t", "cell", "rho", "q", "phi", "r"]]
               + [[t, k + 1, fmt(traj.rho[t, k]), fmt(traj.q[t, k]),
                   fmt(traj.flows[t, k + 1]), fmt(traj.rates[t, k])]
                  for t in range(T) for k in range(n)]
               + [[T, k + 1, fmt(traj.rho[T, k]), fmt(traj.q[T, k]), "", ""]
                  for k in range(n)])
    text = trajectory_csv_text(traj)
    assert text == ref
    lines = text.splitlines()
    assert lines[1].startswith("0,1,0,") and lines[1].endswith(",0")
    assert lines[-1].endswith(",0,,")             # blank phi and r


def _format_trajectory_csv(traj) -> str:
    """The trajectory table as one ``str.format`` call per step renders
    it: the reference for the writer's %-templates."""
    T, n = traj.horizon, traj.rho.shape[1]
    rows = np.stack((traj.rho[:T], traj.q[:T], traj.flows[:, 1:],
                     traj.rates), axis=-1).reshape(T, 4 * n) + 0.0
    final = np.stack((traj.rho[T], traj.q[T]), axis=-1).ravel() + 0.0
    cells = range(1, n + 1)
    step = "".join("{0},%d,{%d:.9g},{%d:.9g},{%d:.9g},{%d:.9g}\n"
                   % (k, 4 * k - 3, 4 * k - 2, 4 * k - 1, 4 * k)
                   for k in cells)
    last = "".join("{0},%d,{%d:.9g},{%d:.9g},,\n" % (k, 2 * k - 1, 2 * k)
                   for k in cells)
    blocks = [",".join(("t", "cell", "rho", "q", "phi", "r")) + "\n"]
    blocks += [step.format(t, *row) for t, row in enumerate(rows.tolist())]
    blocks.append(last.format(T, *final.tolist()))
    return "".join(blocks)


def _trajectory_cases():
    for make in (builtin_example1, builtin_example2, builtin_grenoble):
        sc = make()
        for sigma in (0.0, 0.05):
            yield f"{sc.label} sigma {sigma}", simulate(
                sc.model, sc.demand, make_controller("best_effort", sc.model),
                DisturbanceSpec(sigma, seed=3), initial_state=sc.initial)
    odd = _greedy_example1()
    odd.rho, odd.rates = _odd_values(odd.rho), _odd_values(odd.rates)
    odd.q[-1, -1] = -0.0
    yield "negative zero", odd
    sc = builtin_example1()
    cell = FreewayModel(sc.model.cells[:1], sc.model.dt)
    yield "one cell, one step", simulate(
        cell, DemandProfile(sc.demand.w0[:1], sc.demand.w_ramp[:1, :1]))


def test_trajectory_equals_the_str_format_rendering():
    for label, traj in _trajectory_cases():
        assert trajectory_csv_text(traj) == _format_trajectory_csv(traj), \
            label


def test_a_table_without_the_trajectory_columns_is_refused(tmp_path):
    traj = _greedy_example1()
    text = trajectory_csv_text(traj)
    full, short = tmp_path / "full.csv", tmp_path / "short.csv"
    full.write_text(text, encoding="utf-8")
    short.write_text("".join(",".join(ln.split(",")[:3]) + "\n"
                             for ln in text.splitlines()), encoding="utf-8")
    with pytest.raises(ValueError,
                       match=r"lacks columns \['q', 'phi', 'r'\]"):
        read_trajectory_csv(short, traj.demand)
    # negative control: the writer's own table reads back
    assert trajectory_csv_text(read_trajectory_csv(full, traj.demand)) == text


# example1's table: a header, then 181 states of 2 cells on lines 2-363
@pytest.mark.parametrize("mutate, message", [
    (lambda lines: lines + ["3,0,1,2,3,4\n"],
     r"line 364: step 3, cell 0 outside the table"),
    (lambda lines: lines + ["-1,1,1,2,,\n"],
     r"line 364: step -1, cell 1 outside the table"),
    (lambda lines: lines[:-1] + [lines[-1].replace(",,", ",5,6")],
     r"line 363: a flow on the final state \(step 180\)"),
    (lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + ",\n"]
     + lines[6:], r"line 6: a flow needs its rate, a rate its flow"),
], ids=["cell-0", "step-minus-1", "flow-on-the-final-state",
        "flow-without-rate"])
def test_rows_outside_the_table_are_refused(mutate, message, tmp_path):
    """Before these refusals, cell 0 and step -1 overwrote the last cell
    and the final state through negative indices, a final-state flow
    raised IndexError and a flow without its rate failed to parse ''.
    Negative control: the unmodified table reads back."""
    traj = _greedy_example1()
    lines = trajectory_csv_text(traj).splitlines(keepends=True)
    assert traj.horizon == 180 and len(lines) == 363
    p = tmp_path / "traj.csv"
    p.write_text("".join(lines), encoding="utf-8")
    np.testing.assert_allclose(read_trajectory_csv(p, traj.demand).rho,
                               traj.rho, rtol=1e-8, atol=1e-12)
    p.write_text("".join(mutate(lines)), encoding="utf-8")
    with pytest.raises(ValueError, match=message) as refused:
        read_trajectory_csv(p, traj.demand)
    assert type(refused.value) is ValueError   # exit 2, not a mismatch


def test_a_second_row_for_a_step_and_cell_is_refused(tmp_path):
    """Before this refusal the last row for a (step, cell) won: example1's
    table with ``3,1,99,0,0,0`` appended replayed with that density.
    Negative control: the unmodified table reads back."""
    traj = _greedy_example1()
    text = trajectory_csv_text(traj)
    p = tmp_path / "traj.csv"
    p.write_text(text, encoding="utf-8")
    assert trajectory_csv_text(read_trajectory_csv(p, traj.demand)) == text
    # step 3, cell 1 is the table's eighth row: 2 cells per step after
    # the header on line 1
    assert text.splitlines()[7].startswith("3,1,")
    p.write_text(text + "3,1,99,0,0,0\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=r"line 364: step 3, cell 1 already given on "
                             r"line 8") as refused:
        read_trajectory_csv(p, traj.demand)
    assert type(refused.value) is ValueError   # exit 2, not a mismatch


def test_rates_equal_a_csv_writer_rendering():
    rates = _odd_values(np.random.default_rng(5).uniform(0, 900, (7, 3)))
    ref = _csv([["t", "r1", "r2", "r3"]]
               + [[t] + [fmt(v) for v in rates[t]]
                  for t in range(rates.shape[0])])
    text = rates_csv_text(rates)
    assert text == ref
    assert text.splitlines()[1].startswith("0,0,0.333333333,")


def _restrictiveness_per_cell(report: RestrictivenessReport) -> str:
    """The writer as one f-string per (step, cell): the reference."""
    blocks = ["t,cell,status,reason\n"]
    for t, (flags, reasons) in enumerate(zip(report.restrictive.tolist(),
                                             report.reasons)):
        blocks.append("".join(
            f"{t},{k},{'restrictive' if flag else 'nonrestrictive'},{why}\n"
            for k, (flag, why) in enumerate(zip(flags, reasons), 1)))
    return "".join(blocks)


def _restrictiveness_reusing_the_last_row(report) -> str:
    """A mutant of the writer that keeps the previous step's parts for a
    row it has not seen, as a one-entry cache keyed by nothing would."""
    blocks = ["t,cell,status,reason\n"]
    parts = None
    for t, (flags, reasons) in enumerate(zip(report.restrictive.tolist(),
                                             report.reasons)):
        if parts is None:
            parts = [f",{k},{'restrictive' if f else 'nonrestrictive'},{w}\n"
                     for k, (f, w) in enumerate(zip(flags, reasons), 1)]
        s = str(t)
        blocks.append(s + s.join(parts))
    return "".join(blocks)


def _report(rows: list[list[str]]) -> RestrictivenessReport:
    flags = np.array([[why != NONRESTRICTIVE for why in row] for row in rows])
    return RestrictivenessReport(reasons=rows, restrictive=flags,
                                 restrictive_fraction=0.0,
                                 interior_clean=False)


def test_restrictiveness_equals_the_per_cell_writer():
    restrictive = 0
    for sc in (builtin_example1(), builtin_example2(), builtin_grenoble()):
        report = tts_bounds(sc.model, sc.demand, sc.initial).restrictiveness
        assert restrictiveness_csv_text(report) \
            == _restrictiveness_per_cell(report), sc.label
        restrictive += int(report.restrictive.sum())
    report = tts_bounds(*tiled_grenoble()).restrictiveness
    assert report.restrictive.shape[1] == 63
    assert restrictiveness_csv_text(report) == _restrictiveness_per_cell(report)
    # both statuses show up in the builtins' tables
    assert restrictive > 0


def test_restrictiveness_synthetic_reports():
    three = [NONRESTRICTIVE, SUPPLY_LIMITED, DEMAND_LIMITED, NONRESTRICTIVE]
    calm = [NONRESTRICTIVE] * 4
    other = [DEMAND_LIMITED, NONRESTRICTIVE, NONRESTRICTIVE, SUPPLY_LIMITED]
    cases = {
        "all three reasons in one step": [calm, three, calm],
        "alternating rows": [three, other, three, other, other, three],
        "one cell, one step": [[SUPPLY_LIMITED]],
    }
    for label, rows in cases.items():
        report = _report(rows)
        assert restrictiveness_csv_text(report) \
            == _restrictiveness_per_cell(report), label
    one = restrictiveness_csv_text(_report(cases["one cell, one step"]))
    assert one == ("t,cell,status,reason\n"
                   "0,1,restrictive,supply_limited_with_space\n")
    # negative control: parts kept from a previous, different row
    alternating = _report(cases["alternating rows"])
    assert _restrictiveness_reusing_the_last_row(alternating) \
        != _restrictiveness_per_cell(alternating)
