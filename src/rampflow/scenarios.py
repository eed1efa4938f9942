"""Scenario definitions: geometry + demand + initial state.

Ships three builtins (``builtin:example1``, ``builtin:example2``,
``builtin:grenoble``) and a YAML loader for user scenarios. Also hosts the
synthetic rush-hour demand generator and the model-mismatch campaign used
to stress the controllers.
"""

from __future__ import annotations

import csv
import io
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .controllers import make_controller, sample_controller_model
from .model import CellParams, FreewayModel, validate_model
from .simulator import (
    ContractViolationError,
    DemandProfile,
    DisturbanceSpec,
    SimState,
    _check_state,
    evaluate_metrics,
    simulate,
    zero_state,
)


class ScenarioError(ValueError):
    """A scenario file or builtin reference could not be turned into a model."""


@dataclass(eq=False)
class Scenario:
    label: str
    model: FreewayModel
    demand: DemandProfile
    initial: SimState

    @property
    def horizon(self) -> int:
        return self.demand.horizon


# ---------------------------------------------------------------------------
# builtins

def _piecewise_profile(model: FreewayModel, steps: int,
                       pieces: dict[int, list[tuple[float, float, float]]]
                       ) -> DemandProfile:
    """pieces maps column (0 = mainline, k = ramp of cell k) to
    (from_min, to_min, cars_per_hour) segments, half-open in time."""
    t_min = np.arange(steps) * model.dt * 60.0
    w0 = np.zeros(steps)
    w_ramp = np.zeros((steps, model.n))
    for col, segs in pieces.items():
        for lo, hi, value in segs:
            mask = (t_min >= lo) & (t_min < hi)
            if col == 0:
                w0[mask] += value
            else:
                w_ramp[mask, col - 1] += value
    return DemandProfile(w0=w0, w_ramp=w_ramp)


def builtin_example1() -> Scenario:
    """Two cells with a large offramp split upstream of a short weak cell.

    A mainline surge arrives after the ramp of cell 2 has already filled
    the cell to its critical density; holding ramp cars back earlier (a
    queue the greedy law never builds) would keep the surge moving.
    """
    cells = [
        CellParams(length=1.0, v_free=100.0, rho_crit=100.0, rho_jam=200.0,
                   capacity=1000.0, beta=0.8),
        # ramp cap equals the cell's discharge cap so that even a fully
        # open ramp cannot push the short cell past its jam density
        CellParams(length=1.0, v_free=100.0, rho_crit=10.0, rho_jam=20.0,
                   capacity=500.0, ramp_flow_max=500.0, queue_max=100.0),
    ]
    model = FreewayModel(cells, dt=10.0 / 3600.0)
    demand = _piecewise_profile(model, steps=180, pieces={
        0: [(2.0, 4.0, 5000.0)],
        2: [(0.0, 2.0, 2500.0)],
    })
    return Scenario("example1", model, demand, zero_state(model))


def builtin_example2() -> Scenario:
    """One metered cell where metering can only hurt: the queue drains
    slower than the mainline, so releasing everything is optimal."""
    cells = [
        CellParams(length=1.0, v_free=100.0, rho_crit=50.0, rho_jam=250.0,
                   ramp_flow_max=1800.0, queue_max=100.0),
    ]
    model = FreewayModel(cells, dt=10.0 / 3600.0)
    demand = _piecewise_profile(model, steps=120, pieces={
        0: [(0.0, 3.0, 4000.0)],
        1: [(0.0, 5.0, 1800.0)],
    })
    return Scenario("example2", model, demand, zero_state(model))


# cell: (length_km, queue_cap_or_None, v_kmh, rho_crit, beta)
# queue cap None = no onramp; 0 = onramp present but never metered
_GRENOBLE_TABLE = [
    (0.4, 0,    90.0, 49.0, 0.00),
    (0.5, 0,    90.0, 59.6, 0.00),
    (0.6, None, 90.0, 55.0, 0.00),
    (0.5, None, 90.0, 55.0, 0.10),
    (0.5, 200,  90.0, 47.9, 0.00),
    (0.7, None, 90.0, 52.0, 0.18),
    (0.5, 200,  90.0, 55.0, 0.00),
    (0.5, 200,  90.0, 51.1, 0.00),
    (0.7, None, 90.0, 54.2, 0.00),
    (1.3, None, 90.0, 48.0, 0.11),
    (0.5, 200,  90.0, 48.0, 0.00),
    (0.5, None, 90.0, 51.6, 0.00),
    (0.5, None, 90.0, 49.5, 0.10),
    (0.5, 200,  90.0, 54.7, 0.00),
    (0.5, None, 90.0, 51.2, 0.16),
    (0.5, 200,  90.0, 51.2, 0.00),
    (0.5, None, 90.0, 56.1, 0.00),
    (0.5, None, 90.0, 56.1, 0.10),
    (0.5, 200,  90.0, 56.1, 0.00),
    (0.5, None, 90.0, 56.1, 0.08),
    (0.5, 0,    90.0, 84.2, 0.00),
]

GRENOBLE_DT = 15.0 / 3600.0
GRENOBLE_RAMP_FLOW_MAX = 1800.0
GRENOBLE_BOTTLENECK_CAPACITY = 4300.0  # reduced outflow cap of cell 20
# Multi-lane aggregate jam density. Keeping it well above critical gives the
# congested branch a realistic ~13 km/h wave speed and enough storage that
# the bottleneck backup stays inside the metered section instead of sweeping
# back to the unmetered entry cells.
GRENOBLE_RHO_JAM = 450.0


def grenoble_cells() -> list[CellParams]:
    """South ring geometry: 21 cells, 7 metered onramps, 3 unmetered ones,
    and an outflow cap on cell 20 that acts as the recurrent bottleneck."""
    cells = []
    for i, (length, q_cap, v, rho_c, beta) in enumerate(_GRENOBLE_TABLE):
        cells.append(CellParams(
            length=length, v_free=v, rho_crit=rho_c, rho_jam=GRENOBLE_RHO_JAM,
            capacity=GRENOBLE_BOTTLENECK_CAPACITY if i == 19 else None,
            beta=beta,
            ramp_flow_max=0.0 if q_cap is None else GRENOBLE_RAMP_FLOW_MAX,
            queue_max=float(q_cap) if q_cap else 0.0,
        ))
    return cells


def grenoble_model() -> FreewayModel:
    return FreewayModel(grenoble_cells(), dt=GRENOBLE_DT)


# ---------------------------------------------------------------------------
# synthetic demand

@dataclass(frozen=True)
class SynthDemandSpec:
    """Trapezoidal rush-hour profile with optional smoothed jitter.

    ``windows`` lists (start_h, end_h) of each flat peak; demand ramps up
    and down over ``shoulder`` hours on both sides. ``ramp_peaks`` maps
    1-based cell indices to peak arrival rates.
    """

    horizon_steps: int
    mainline_peak: float
    mainline_base: float = 0.0
    ramp_peaks: dict = field(default_factory=dict)
    ramp_base_frac: float = 0.25
    windows: tuple = ((1.0, 2.5),)
    shoulder: float = 0.5
    jitter: float = 0.0


def _trapezoid(t_h: np.ndarray, windows, shoulder: float) -> np.ndarray:
    env = np.zeros_like(t_h)
    for start, end in windows:
        rise = np.clip((t_h - (start - shoulder)) / shoulder, 0.0, 1.0)
        fall = np.clip(((end + shoulder) - t_h) / shoulder, 0.0, 1.0)
        env = np.maximum(env, np.minimum(rise, fall))
    return env


def _smooth_noise(rng: np.random.Generator, steps: int, width: int) -> np.ndarray:
    raw = rng.normal(0.0, 1.0, size=steps + width)
    kernel = np.ones(width) / width
    return np.convolve(raw, kernel, mode="valid")[:steps]


def synth_demand(model: FreewayModel, spec: SynthDemandSpec,
                 seed: int = 0) -> DemandProfile:
    """Deterministic-per-seed daily profile for the given model; a
    ``ramp_peaks`` key outside cells 1..n or a peak above its ramp's
    ``ramp_flow_max`` raises :class:`ScenarioError`."""
    for k, peak in spec.ramp_peaks.items():
        if not 1 <= k <= model.n:
            raise ScenarioError(
                f"ramp peak at cell {k!r} outside cells 1..{model.n}")
        cap = model.ramp_flow_max[k - 1]
        if peak > cap + 1e-9:
            raise ScenarioError(
                f"ramp peak {peak:g} at cell {k} exceeds ramp_flow_max {cap:g}")
    rng = np.random.default_rng(seed)
    steps = spec.horizon_steps
    t_h = np.arange(steps) * model.dt
    env = _trapezoid(t_h, spec.windows, spec.shoulder)
    width = max(1, int(round(0.25 / model.dt)))

    def jittered(series: np.ndarray, cap: float) -> np.ndarray:
        if spec.jitter > 0.0:
            series = series * (1.0 + spec.jitter * _smooth_noise(rng, steps, width))
        return np.clip(series, 0.0, cap)

    w0 = jittered(spec.mainline_base + (spec.mainline_peak - spec.mainline_base) * env,
                  cap=np.inf)
    w_ramp = np.zeros((steps, model.n))
    for k, peak in sorted(spec.ramp_peaks.items()):
        base = spec.ramp_base_frac * peak
        w_ramp[:, k - 1] = jittered(base + (peak - base) * env,
                                    cap=model.ramp_flow_max[k - 1])
    return DemandProfile(w0=w0, w_ramp=w_ramp)


#: Rush-hour preset feeding the cell-20 bottleneck of the ring model.
#: Calibrated so that at peak only cell 20 is oversubscribed (~3% over its
#: effective arrival cap, ~6% over under the capacity-drop variant); every
#: other cell stays at or below ~0.87x its own cap, so the bottleneck backup
#: forms upstream of cell 20 but dissolves before reaching the unmetered
#: entry cells even with demand jitter, flow noise, or the drop active.
GRENOBLE_PRESET = SynthDemandSpec(
    horizon_steps=960,                      # 4 h at 15 s
    mainline_peak=3000.0,
    mainline_base=900.0,
    ramp_peaks={1: 400.0, 2: 450.0, 5: 150.0, 7: 450.0, 8: 300.0,
                11: 400.0, 14: 600.0, 16: 700.0, 19: 1200.0, 21: 150.0},
    windows=((1.0, 2.5),),
    shoulder=0.5,
    jitter=0.03,
)


def builtin_grenoble(seed: int = 0) -> Scenario:
    model = grenoble_model()
    demand = synth_demand(model, GRENOBLE_PRESET, seed=seed)
    return Scenario("grenoble", model, demand, zero_state(model))


# ---------------------------------------------------------------------------
# loader

_BUILTINS = {
    "example1": builtin_example1,
    "example2": builtin_example2,
    "grenoble": builtin_grenoble,
}

_CELL_FIELDS = tuple(f.name for f in fields(CellParams))
_SEGMENT_KEYS = ("from_min", "to_min", "value")
_SYNTH_KEYS = tuple(f.name for f in fields(SynthDemandSpec)) + ("seed",)


def _yaml_loader():
    """PyYAML's libyaml parser where the platform has it, its pure-python
    one otherwise; both feed the safe constructor, so they build the same
    objects."""
    import yaml
    return yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _SectionError(ScenarioError):
    """A ScenarioError that already names its file and section."""


@contextmanager
def _section(path: Path, name: str):
    """Read the section ``name`` of the file ``path``: a ValueError (a
    ScenarioError from synth_demand or read_demand_csv too), TypeError,
    KeyError, IndexError or ContractViolationError raised inside is one
    ScenarioError ``<file>: <name>: <what>``. A nested section's error
    passes through unchanged."""
    try:
        yield
    except _SectionError:
        raise
    except KeyError as e:
        raise _SectionError(f"{path}: {name}: missing {e}") from e
    except ContractViolationError as e:   # only the initial state's check
        raise _SectionError(
            f"{path}: {name}: state outside the model boxes: {e}") from e
    except (ValueError, TypeError, IndexError) as e:
        raise _SectionError(f"{path}: {name}: {e}") from e


def _mapping(value, allowed: tuple = (), keys: str = "keys") -> dict:
    """``value`` if it is a mapping whose keys (named ``keys`` in the
    error) all are in ``allowed``, or any keys if it is empty; a
    ValueError if not."""
    # "a", "a and b", "a, b and c"
    have = " and ".join(filter(None, (", ".join(allowed[:-1]), *allowed[-1:])))
    if not isinstance(value, dict):
        raise ValueError("need a mapping" + (f" with {have}" if have else ""))
    unknown = set(value) - set(allowed) if allowed else ()
    if unknown:
        raise ValueError(
            f"unknown {keys} {sorted(unknown, key=str)}; have {have}")
    return value


def load_scenario(ref: str | Path) -> Scenario:
    """Load ``builtin:<name>`` or a YAML scenario file."""
    ref = str(ref)
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in _BUILTINS:
            raise ScenarioError(
                f"unknown builtin {name!r}; have {sorted(_BUILTINS)}")
        return _BUILTINS[name]()
    path = Path(ref)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    import yaml   # only a scenario file needs it, so import rampflow skips it
    with _section(path, "encoding"):
        text = path.read_text(encoding="utf-8")
    try:
        doc = yaml.load(text, Loader=_yaml_loader())
    except yaml.YAMLError as e:
        raise ScenarioError(f"{path}: not valid YAML: {e}") from e
    return _scenario_from_dict(doc, path)


def _scenario_from_dict(doc, path: Path) -> Scenario:
    """The scenario the parsed file ``doc`` describes, each section read
    through :func:`_section`. The top level's keys are checked last, so a
    malformed section is refused under its own name first."""
    with _section(path, "top level"):
        _mapping(doc)
    label = str(doc.get("label", path.stem))
    given = [key for key in ("dt", "dt_seconds") if key in doc]
    with _section(path, " and ".join(given) or "dt"):
        if len(given) != 1:
            raise ValueError("give one of them, not both" if given
                             else "missing dt (hours) or dt_seconds")
        dt = float(doc[given[0]]) / (3600.0 if given == ["dt_seconds"]
                                     else 1.0)
    with _section(path, "cells"):
        raw_cells = doc.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            raise ValueError("need a non-empty list")
    cells = []
    for i, entry in enumerate(raw_cells):
        with _section(path, f"cells[{i}]"):
            entry = _mapping(entry, _CELL_FIELDS, "fields")
            cells.append(CellParams(**{k: float(v) for k, v in entry.items()}))
    with _section(path, "model"):
        model = FreewayModel(cells, dt=dt)
        if violations := validate_model(model):
            raise ValueError("invalid model: "
                             + "; ".join(str(v) for v in violations))
    with _section(path, "demand"):
        demand = _demand_from_dict(doc.get("demand"), model, path)
        demand.check_against(model)
    with _section(path, "initial"):
        init = _mapping(doc.get("initial", {}), ("rho", "q"))
        rho = np.asarray(init.get("rho", np.zeros(model.n)), dtype=float)
        q = np.asarray(init.get("q", np.zeros(model.n)), dtype=float)
        if rho.shape != (model.n,) or q.shape != (model.n,):
            raise ValueError(f"rho and q must have length {model.n}")
        initial = SimState(*_check_state(model, rho, q))  # NaN fails too
    with _section(path, "top level"):
        _mapping(doc, ("label", "dt", "dt_seconds", "cells", "demand",
                       "initial"))
    return Scenario(label, model, demand, initial)


def _column(key, n: int, first: int) -> int:
    """The demand column ``key`` names, w0 (or 0) the mainline and wk (or
    k) the ramp of cell k; a ValueError outside w<first>..w<n>."""
    digits = str(key).removeprefix("w")
    if not (digits.isdigit() and first <= int(digits) <= n):
        raise ValueError(f"column {key!r} is not one of w{first}..w{n}")
    return int(digits)


def _demand_from_dict(spec, model: FreewayModel, path: Path) -> DemandProfile:
    """The profile of the demand section ``spec``, read inside it; its one
    kind is read in the section ``demand.<kind>``."""
    kinds = [k for k in ("csv", "table", "piecewise", "synth")
             if k in _mapping(spec)]
    if len(kinds) != 1:
        raise ValueError("give exactly one of csv|table|piecewise|synth")
    kind = kinds[0]
    _mapping(spec, (kind, "steps") if kind == "piecewise" else (kind,))
    steps = int(spec.get("steps", 0))
    if kind == "piecewise" and steps <= 0:
        raise ValueError("piecewise needs a positive 'steps'")
    body = spec[kind]
    with _section(path, f"demand.{kind}"):
        if kind == "csv":
            return read_demand_csv(path.parent / str(body), model.n)
        if kind == "table":
            w0 = np.asarray(_mapping(body)["w0"], dtype=float)
            w_ramp = np.zeros((w0.shape[0], model.n))
            for key, col in body.items():
                if key != "w0":
                    w_ramp[:, _column(key, model.n, 1) - 1] = np.asarray(
                        col, dtype=float)
            return DemandProfile(w0=w0, w_ramp=w_ramp)
        if kind == "piecewise":
            pieces = {}
            for key, segs in _mapping(body).items():
                pieces[_column(key, model.n, 0)] = [
                    [float(s[k]) for k in _SEGMENT_KEYS]
                    for s in (_mapping(s, _SEGMENT_KEYS) for s in segs)]
            return _piecewise_profile(model, steps, pieces)
        syn = dict(_mapping(body, _SYNTH_KEYS))
        seed = int(syn.pop("seed", 0))
        ramp_peaks = {_column(k, model.n, 1): float(v)
                      for k, v in dict(syn.pop("ramp_peaks", {})).items()}
        windows = tuple(tuple(float(x) for x in w)
                        for w in syn.pop("windows", ((1.0, 2.5),)))
        sspec = SynthDemandSpec(ramp_peaks=ramp_peaks, windows=windows,
                                **{k: (int(v) if k == "horizon_steps" else float(v))
                                   for k, v in syn.items()})
        return synth_demand(model, sspec, seed=seed)


def write_demand_csv(path: str | Path, demand: DemandProfile) -> None:
    """One row per step, t and the arrivals w0..wn as %.9g, through one
    ``%`` template per row."""
    n = demand.w_ramp.shape[1]
    row = "%d" + ",%.9g" * (n + 1) + "\n"
    lines = [",".join(["t"] + [f"w{k}" for k in range(n + 1)]) + "\n"]
    lines += [row % (t, *values) for t, values in enumerate(
        np.column_stack((demand.w0, demand.w_ramp)).tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))


def read_demand_csv(path: str | Path, n_cells: int) -> DemandProfile:
    """The profile :func:`write_demand_csv` writes. Blank lines and quoted
    numbers are accepted; a ragged or non-numeric row, or rows narrower or
    wider than the header, raise ValueError."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"demand csv not found: {path}")
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        expect = ["t"] + [f"w{k}" for k in range(n_cells + 1)]
        if header != expect:
            raise ScenarioError(
                f"{path}: bad header {header}, expected {expect}")
        body = fh.read()
    if not body.strip():
        raise ScenarioError(f"{path}: no demand rows")
    data = np.loadtxt(io.StringIO(body), delimiter=",", quotechar='"',
                      ndmin=2)
    if data.shape[1] != len(expect):
        raise ValueError(f"{path}: rows have {data.shape[1]} fields, the "
                         f"header has {len(expect)}")
    return DemandProfile(w0=data[:, 1], w_ramp=data[:, 2:])


# ---------------------------------------------------------------------------
# model-mismatch campaign

MISMATCH_GRID = ((0.0, 0.0), (0.025, 0.05), (0.05, 0.10), (0.10, 0.20))


@dataclass(frozen=True)
class CampaignRow:
    variant: str              # monotonic | capacity_drop
    sigma: float
    dv: float
    drho: float
    controller: str
    mean_twt_improvement: float   # percent of open-loop waiting time saved
    stdev: float
    runs: int


def with_capacity_drop(model: FreewayModel, alpha: float) -> FreewayModel:
    return model.with_cells(
        [replace(c, capacity_drop=alpha) for c in model.cells])


def _metrics(model: FreewayModel, demand, controller, initial, disturbance):
    """Metrics of one run (floats) or of a batch (one waiting time per
    run)."""
    traj = simulate(model, demand, controller=controller,
                    disturbance=disturbance, initial_state=initial)
    return evaluate_metrics(model, traj)


def _campaign_row(variant: str, sigma: float, dv: float, drho: float,
                  kind: str, base: np.ndarray,
                  twts: np.ndarray) -> CampaignRow:
    """Mean and spread over the runs of the percent of the unmetered
    waiting time ``base`` that a law's waiting times ``twts`` save."""
    vals = [0.0 if ol <= 0.0 else 100.0 * (ol - val) / ol
            for ol, val in zip(base.tolist(), twts.tolist())]
    return CampaignRow(variant, sigma, dv, drho, kind, statistics.fmean(vals),
                       statistics.pstdev(vals), len(vals))


class _LawPerRun:
    """Run r's law is ``kinds[r]``: the unmetered law (``inf``), or the
    ``alinea`` or ``best_effort`` law believing model r of ``beliefs``.
    A law that some run has is computed once per step on the whole
    belief stack, and each run takes its own law's rate; the laws act run
    by run, so each run is the run it would be alone."""

    def __init__(self, kinds: list[str], beliefs: list[FreewayModel]):
        self.kinds = kinds
        self.runs = len(kinds)
        belief = FreewayModel.stack(beliefs)
        kind = np.array(kinds)[:, None]
        self._laws = [(kind == k, make_controller(k, belief))
                      for k in ("alinea", "best_effort") if k in kinds]

    def compute_rates(self, t, state, w_row, r_prev):
        rates = np.inf
        for rows, law in self._laws:
            rates = np.where(
                rows, law.compute_rates(t, state, w_row, r_prev), rates)
        return rates


def uncertainty_campaign(scenario: Scenario,
                         mismatch_grid=MISMATCH_GRID,
                         sigmas=(0.0, 0.05),
                         variants=("monotonic", "capacity_drop"),
                         runs: int = 20,
                         seed: int = 0,
                         drop_alpha: float = 0.10,
                         include_lp: bool = False) -> list[CampaignRow]:
    """Mean waiting-time improvement over the unmetered baseline for the
    greedy and integral controllers across belief-model mismatch, flow
    noise, and a monotonic vs capacity-drop plant.

    Beliefs are always sampled from the monotonic nominal model. Run r of
    any grid point uses disturbance seed ``seed + r`` and belief seed
    ``seed + 1000 + r``, so rows are reproducible and paired across
    controllers. Each batched simulation runs on a stack of the variant
    plants, each run under its own law. Noiseless runs of one controller
    with one belief on one plant are identical, so without noise the
    unmetered baseline and the integral law, both with the nominal
    belief, run once per variant, in the batch of the greedy law over
    every (variant, mismatch point, run) belief. With noise they run once
    per run in a batch of their own, so that no batch grows past the
    greedy one by more than one run per cheap law and variant.

    Raises ValueError when ``runs`` is below 1, a noise level is negative
    or not finite, ``drop_alpha`` is outside [0, 1), or a variant is
    unknown.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if not 0.0 <= drop_alpha < 1.0:   # validate_model's rule; NaN fails
        raise ValueError(f"drop_alpha must be in [0, 1), got {drop_alpha}")
    for sigma in sigmas:   # refuse a bad level before any run
        DisturbanceSpec(sigma_phi=sigma)
    nominal = scenario.model
    plants = {"monotonic": nominal,
              "capacity_drop": with_capacity_drop(nominal, drop_alpha)}
    for variant in variants:
        if variant not in plants:
            raise ValueError(f"unknown variant {variant!r}")
    run_seeds = [seed + r for r in range(runs)]
    beliefs = [sample_controller_model(nominal, dv, drho, seed=seed + 1000 + r)
               for dv, drho in mismatch_grid for r in range(runs)]
    greedy = ("best_effort", beliefs)

    def twt(sigma: float, *laws: tuple[str, list[FreewayModel]],
            ) -> list[np.ndarray]:
        """Waiting times of one batch at noise level ``sigma`` that runs
        each (kind, belief) law on every variant plant under each model
        of its belief: one array (variants, len(belief)) per law. A
        belief's model i is run i % runs and takes that run's seed."""
        rows = [(kind, variant, model) for kind, belief in laws
                for variant in variants for model in belief]
        noise = DisturbanceSpec(sigma_phi=sigma,
                                seed=run_seeds * (len(rows) // runs)) \
            if sigma != 0.0 else None
        plant = FreewayModel.stack([plants[v] for _, v, _ in rows])
        law = _LawPerRun([k for k, _, _ in rows], [m for _, _, m in rows])
        twts = _metrics(plant, scenario.demand, law, scenario.initial,
                        noise).twt
        ends = np.cumsum([len(variants) * len(b) for _, b in laws])
        return [x.reshape(len(variants), -1)
                for x in np.split(twts, ends[:-1])]

    found: dict[tuple[str, float], list[CampaignRow]] = {}
    for sigma in sigmas if variants else ():   # no plant, no run
        if sigma == 0.0:
            base, integral, greedy_twt = twt(
                sigma, ("none", [nominal]), ("alinea", [nominal]), greedy)
        else:
            base, integral = twt(sigma, ("none", [nominal] * runs),
                                 ("alinea", [nominal] * runs))
            greedy_twt, = twt(sigma, greedy)
        base, integral = (np.broadcast_to(x, (len(variants), runs))
                          for x in (base, integral))
        greedy_twt = greedy_twt.reshape(len(variants), len(mismatch_grid),
                                        runs)
        for v, variant in enumerate(variants):
            found[variant, sigma] = [
                _campaign_row(variant, sigma, dv, drho, "best_effort",
                              base[v], twts)
                for (dv, drho), twts in zip(mismatch_grid, greedy_twt[v])]
            found[variant, sigma].append(_campaign_row(
                variant, sigma, 0.0, 0.0, "alinea", base[v], integral[v]))
    rows = [r for variant in variants for sigma in sigmas
            for r in found[variant, sigma]]

    if include_lp:
        from .lp import build_lp, solve_lp
        sol = solve_lp(build_lp(nominal, scenario.demand, scenario.initial))
        # free-flow time depends on the demand alone, so the unmetered run
        # gives both it and the baseline waiting time
        ol = _metrics(nominal, scenario.demand,
                      make_controller("none", nominal), scenario.initial, None)
        twt_lp = sol.objective - ol.tft
        imp = 0.0 if ol.twt <= 0.0 else 100.0 * (ol.twt - twt_lp) / ol.twt
        rows.append(CampaignRow("monotonic", 0.0, 0.0, 0.0, "lp",
                                imp, 0.0, 1))
    return rows
