"""Serialization of runs, bounds, solutions, and campaign tables.

All text output is UTF-8 with LF line endings and numbers rendered with
%.9g, so identical runs produce byte-identical files on any platform.
Empty CSV fields mean "not defined here" (e.g. no flow row at the final
state).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .cumulative import BoundsReport, RestrictivenessReport
from .model import FreewayModel
from .simulator import DemandProfile, Metrics, ShapeMismatchError, Trajectory


def fmt(x: float) -> str:
    return f"{float(x) + 0.0:.9g}"  # + 0.0 turns -0.0 into 0.0


def _clean(value):
    """Round floats through %.9g so JSON bytes match the CSV convention;
    a non-finite float, which JSON cannot hold, becomes None (null)."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(fmt(value)) if np.isfinite(value) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def dumps_json(doc: dict) -> str:
    return json.dumps(_clean(doc), indent=2) + "\n"


# ---------------------------------------------------------------------------
# trajectory tables

TRAJECTORY_HEADER = ("t", "cell", "rho", "q", "phi", "r")


def trajectory_csv_text(traj: Trajectory) -> str:
    """Long-form state table: one row per (step, cell).

    ``phi`` is the flow leaving the cell during [t, t+1) and ``r`` the
    metering rate applied then; both are blank on the final-state rows.
    Numbers are rendered as :func:`fmt` renders them, one step per
    ``%`` call on a template whose step index ``str.replace`` puts in.
    """
    T, n = traj.horizon, traj.rho.shape[1]
    # + 0.0 turns -0.0 into 0.0, as in fmt
    rows = np.stack((traj.rho[:T], traj.q[:T], traj.flows[:, 1:],
                     traj.rates), axis=-1).reshape(T, 4 * n) + 0.0
    final = np.stack((traj.rho[T], traj.q[T]), axis=-1).ravel() + 0.0
    # one %-template per step: the sentinel \0 stands for t, then the
    # cells' values
    cells = range(1, n + 1)
    step = "".join("\0,%d,%%.9g,%%.9g,%%.9g,%%.9g\n" % k for k in cells)
    last = "".join("\0,%d,%%.9g,%%.9g,,\n" % k for k in cells)
    blocks = [",".join(TRAJECTORY_HEADER) + "\n"]
    blocks += [step.replace("\0", str(t)) % tuple(row)
               for t, row in enumerate(rows.tolist())]
    blocks.append(last.replace("\0", str(T)) % tuple(final.tolist()))
    return "".join(blocks)


def read_trajectory_csv(path, demand: DemandProfile) -> Trajectory:
    """Rebuild a trajectory written by ``trajectory_csv_text``.

    The demand profile is not stored in the table, so the caller supplies
    it; a table whose horizon differs raises :class:`ShapeMismatchError`.
    A row that names a step below 0 or a cell below 1, that carries a
    flow without its rate (or a rate without its flow), or a flow on the
    final state, raises ValueError naming its line; a second row for the
    same step and cell raises ValueError naming both lines.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRAJECTORY_HEADER
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"trajectory table lacks columns {missing}")
        rows = []
        line_of = {}   # (t, k) -> the line that gave it
        for r in reader:
            try:
                t, k = int(r["t"]), int(r["cell"])
                if t < 0 or k < 1:
                    raise ValueError(f"step {t}, cell {k} outside the table")
                first = line_of.setdefault((t, k), reader.line_num)
                if first != reader.line_num:
                    raise ValueError(f"step {t}, cell {k} already given on "
                                     f"line {first}")
                if (r["phi"] == "") != (r["r"] == ""):
                    raise ValueError("a flow needs its rate, a rate its flow")
                flow = None if r["phi"] == "" else (float(r["phi"]),
                                                    float(r["r"]))
                rows.append((reader.line_num, t, k - 1, float(r["rho"]),
                             float(r["q"]), flow))
            except ValueError as e:
                raise ValueError(f"trajectory table line {reader.line_num}: "
                                 f"{e}") from None
    if not rows:
        raise ValueError("empty trajectory table")
    n = max(r[2] for r in rows) + 1
    T = max(r[1] for r in rows)
    rho = np.full((T + 1, n), np.nan)
    q = np.full((T + 1, n), np.nan)
    flows = np.full((T, n + 1), np.nan)
    rates = np.full((T, n), np.nan)
    for line, t, k, rho_tk, q_tk, flow in rows:
        rho[t, k], q[t, k] = rho_tk, q_tk
        if flow is not None:
            if t == T:
                raise ValueError(f"trajectory table line {line}: a flow on "
                                 f"the final state (step {T})")
            flows[t, k + 1], rates[t, k] = flow
    if np.isnan(rho).any() or np.isnan(flows[:, 1:]).any():
        raise ValueError("trajectory table has missing rows")
    if demand.horizon != T:
        raise ShapeMismatchError(
            f"trajectory spans {T} steps but the demand profile has "
            f"{demand.horizon}")
    flows[:, 0] = demand.w0  # the mainline boundary always carries w0
    return Trajectory(rho=rho, q=q, flows=flows, rates=rates, demand=demand)


def rates_csv_text(rates: np.ndarray) -> str:
    """One row per step: t and the rate of every cell."""
    lines = [",".join(["t"] + [f"r{k}"
                              for k in range(1, rates.shape[1] + 1)])]
    for t, row in enumerate((rates + 0.0).tolist()):
        lines.append(",".join([str(t)] + [f"{v:.9g}" for v in row]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# restrictiveness and bounds

def restrictiveness_csv_text(report: RestrictivenessReport) -> str:
    """One row per (step, cell): its restrictive flag and the reason.

    A run has few distinct rows of flags and reasons, so each one's cell
    parts ``",k,status,reason\n"`` are built once, and a step is its
    index put before every part: ``s + s.join(parts)`` with ``s = str(t)``.
    """
    blocks = ["t,cell,status,reason\n"]
    parts_of = {}
    for t, (flags, reasons) in enumerate(zip(report.restrictive.tolist(),
                                             report.reasons)):
        key = (tuple(flags), tuple(reasons))
        parts = parts_of.get(key)
        if parts is None:
            parts = parts_of[key] = [
                f",{k},{'restrictive' if flag else 'nonrestrictive'},{why}\n"
                for k, (flag, why) in enumerate(zip(flags, reasons), 1)]
        s = str(t)
        blocks.append(s + s.join(parts))
    return "".join(blocks)


def bounds_doc(bounds: BoundsReport) -> dict:
    return {
        "tts_lb": bounds.tts_lb,
        "tts_be": bounds.tts_be,
        "certificate": bounds.certificate,
        "gap_abs": bounds.gap_abs,
        "gap_rel": bounds.gap_rel,
        "restrictive_fraction": bounds.restrictive_fraction,
    }


# ---------------------------------------------------------------------------
# run report

def run_report_doc(label: str, controller: str, model: FreewayModel,
                   traj: Trajectory, metrics: Metrics,
                   mass_residual: float,
                   restrictiveness: RestrictivenessReport,
                   sigma_phi: float = 0.0, seed: int | None = None) -> dict:
    doc = {
        "scenario": label,
        "controller": controller,
        "horizon_steps": traj.horizon,
        "dt_hours": model.dt,
        "sigma_phi": sigma_phi,
        "tts": metrics.tts,
        "tft": metrics.tft,
        "twt": metrics.twt,
        "mass_residual": mass_residual,
        "restrictive_fraction": restrictiveness.restrictive_fraction,
        "interior_restrictive_free": restrictiveness.interior_clean,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


# ---------------------------------------------------------------------------
# campaign table

CAMPAIGN_HEADER = ["variant", "sigma", "dv", "drho", "controller",
                   "mean_twt_improvement", "stdev", "runs"]


def campaign_csv_text(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CAMPAIGN_HEADER)
    for r in rows:
        w.writerow([r.variant, fmt(r.sigma), fmt(r.dv), fmt(r.drho),
                    r.controller, fmt(r.mean_twt_improvement),
                    fmt(r.stdev), r.runs])
    return buf.getvalue()
