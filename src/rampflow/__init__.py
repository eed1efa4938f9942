"""Freeway ramp metering: cell-transmission simulation, distributed
metering laws, an exact minimal-time benchmark, and optimality
certificates built on cumulative-flow monotonicity."""

from .model import (
    CellParams,
    FreewayModel,
    GeometryError,
    UnsupportedModelError,
    Violation,
    triangular_fd_defaults,
    validate_model,
)
from .simulator import (
    ContractViolationError,
    DemandProfile,
    DisturbanceSpec,
    Metrics,
    RateSchedule,
    SimState,
    Trajectory,
    compute_flows,
    evaluate_metrics,
    feasible_rate_interval,
    mass_conservation_residual,
    simulate,
    step,
    zero_state,
)
from .controllers import (
    DEFAULT_KI,
    ControllerSpec,
    make_controller,
    sample_controller_model,
)
from .cumulative import (
    BoundsReport,
    CumulativeState,
    RestrictivenessReport,
    cctm_step,
    cumulative_from_state,
    monotonicity_probe,
    reconstruct_densities,
    reconstruct_queues,
    restrictiveness_report,
    to_cumulative,
    tts_bounds,
    tts_from_cumulative,
)
from .lp import (
    LpInstance,
    LpSolution,
    build_lp,
    certify_relaxation,
    export_lp_text,
    solve_lp,
)
from .scenarios import (
    MISMATCH_GRID,
    Scenario,
    ScenarioError,
    SynthDemandSpec,
    builtin_example1,
    builtin_example2,
    builtin_grenoble,
    load_scenario,
    read_demand_csv,
    synth_demand,
    uncertainty_campaign,
    write_demand_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
