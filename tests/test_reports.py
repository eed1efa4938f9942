"""Text writers against ``csv.writer`` renderings of the same rows."""

import csv
import io

import numpy as np
import pytest

from rampflow.controllers import make_controller
from rampflow.reports import (
    fmt,
    rates_csv_text,
    read_trajectory_csv,
    trajectory_csv_text,
)
from rampflow.scenarios import builtin_example1
from rampflow.simulator import simulate


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


def test_rates_equal_a_csv_writer_rendering():
    rates = _odd_values(np.random.default_rng(5).uniform(0, 900, (7, 3)))
    ref = _csv([["t", "r1", "r2", "r3"]]
               + [[t] + [fmt(v) for v in rates[t]]
                  for t in range(rates.shape[0])])
    text = rates_csv_text(rates)
    assert text == ref
    assert text.splitlines()[1].startswith("0,0,0.333333333,")
