"""Guidance and control toolkit for underactuated surface vehicles.

Combines an exact feedforward derived from the flat outputs of the
decoupled-yaw vessel model with a model-free outer loop that estimates and
cancels unmodeled disturbances online, plus a heading autopilot, a
fixed-step simulation engine and a scenario CLI.
"""

__version__ = "0.1.0"

from .flat_guidance import (
    BrunovskyInputs,
    FlatFeedforward,
    SingularityError,
    brunovsky_from_physical,
    flat_feedforward,
    flat_heading,
    physical_from_brunovsky,
    unwrap_heading,
)
from .heading_autopilot import AutopilotGains, AutopilotState, autopilot_step, wrap_to_pi
from .heol_control import (
    HeolAxisState,
    HeolConfig,
    IpdGains,
    SampleWindow,
    WindowNotWarm,
    estimate_F,
    heol_step,
    ipd_delta,
    ipd_delta_riachy,
    nominal_control,
    riachy_signal,
)
from .reference_trajectory import ReferencePoint, TrajectorySpec, sample
from .sim_engine import (
    NonFiniteState,
    RunLog,
    RunMetrics,
    ScenarioConfig,
    body_to_inertial_velocity,
    rk4_step,
    run_scenario,
)
from .vessel_dynamics import (
    ControlInputs,
    InertialForce,
    PhysicalParams,
    VesselDerivative,
    VesselParams,
    VesselState,
    hovercraft_derivative,
    reduce_params,
    surface_vessel_derivative,
)

__all__ = [
    "__version__",
    "AutopilotGains",
    "AutopilotState",
    "BrunovskyInputs",
    "ControlInputs",
    "FlatFeedforward",
    "HeolAxisState",
    "HeolConfig",
    "InertialForce",
    "IpdGains",
    "NonFiniteState",
    "PhysicalParams",
    "ReferencePoint",
    "RunLog",
    "RunMetrics",
    "SampleWindow",
    "ScenarioConfig",
    "SingularityError",
    "TrajectorySpec",
    "VesselDerivative",
    "VesselParams",
    "VesselState",
    "WindowNotWarm",
    "autopilot_step",
    "body_to_inertial_velocity",
    "brunovsky_from_physical",
    "estimate_F",
    "flat_feedforward",
    "flat_heading",
    "heol_step",
    "hovercraft_derivative",
    "ipd_delta",
    "ipd_delta_riachy",
    "nominal_control",
    "physical_from_brunovsky",
    "reduce_params",
    "riachy_signal",
    "rk4_step",
    "run_scenario",
    "sample",
    "surface_vessel_derivative",
    "unwrap_heading",
    "wrap_to_pi",
]
