"""Spin-carried trajectories for the driven hydrogen 1s to 2p0 transition.

The velocity field comes from the gradient of the wave phase plus the
spin-magnetization current of a spin-1/2 particle; trajectories stay on
an invariant surface set by the initial point and revolve about the
polar axis while the oscillating field transfers population between
the two levels.

Everything is dimensionless inside: times are tau = omega0 t, lengths
are Bohr radii, frequencies are ratios to omega0.  SI values enter only
through config files and DriveParameters construction.
"""

from .config import RunConfig, load_config, load_preset, parse_config_text, serialize_config
from .drive import (
    AnalyticSource,
    CoefficientState,
    DriveParameters,
    FrozenSource,
    NumericSource,
    coefficients,
    derive_drive,
    envelope_T,
    envelope_Tprime,
    reversal_window,
    transition_probability,
)
from .dynamics import (
    SPIN_UP,
    ScaledVelocity,
    SpinVector,
    eigenstate_angular_velocity,
    pauli_current,
    printed_momentum_check,
    surface_constant,
    surface_residual,
    velocity_field,
)
from .engine import (
    IntegratorConfig,
    RunManifest,
    TrajectoryResult,
    integrate,
    integrate_long,
    split_intervals,
)
from .ensemble import (
    EnsembleSummary,
    evolve_ensemble,
    evolve_targets,
    sample_initial,
    tv_distance,
)
from .errors import (
    AxisProximityError,
    ConfigError,
    IntegrationError,
    NodeProximityError,
    OffSheetError,
    ParameterError,
    PilotwaveError,
)
from .observables import LocalEnergy, expected_energy, local_energy
from .wavefield import SpatialPoint, density, eval_wave, quantum_potential

__version__ = "0.1.0"

__all__ = [
    "AnalyticSource",
    "AxisProximityError",
    "CoefficientState",
    "ConfigError",
    "DriveParameters",
    "EnsembleSummary",
    "FrozenSource",
    "IntegrationError",
    "IntegratorConfig",
    "LocalEnergy",
    "NodeProximityError",
    "NumericSource",
    "OffSheetError",
    "ParameterError",
    "PilotwaveError",
    "RunConfig",
    "RunManifest",
    "SPIN_UP",
    "ScaledVelocity",
    "SpatialPoint",
    "SpinVector",
    "TrajectoryResult",
    "coefficients",
    "density",
    "derive_drive",
    "eigenstate_angular_velocity",
    "envelope_T",
    "envelope_Tprime",
    "eval_wave",
    "evolve_ensemble",
    "evolve_targets",
    "expected_energy",
    "integrate",
    "integrate_long",
    "load_config",
    "load_preset",
    "local_energy",
    "parse_config_text",
    "pauli_current",
    "printed_momentum_check",
    "quantum_potential",
    "reversal_window",
    "sample_initial",
    "serialize_config",
    "split_intervals",
    "surface_constant",
    "surface_residual",
    "transition_probability",
    "tv_distance",
    "velocity_field",
]
