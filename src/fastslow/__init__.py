"""Numerical laboratory for a two-degree-of-freedom fast-slow oscillator.

A slow coordinate y is coupled to a harmonic oscillator whose frequency
omega(y)/epsilon is large.  The package simulates the coupled system at
finite epsilon, builds its second-order asymptotic reconstruction from the
homogenized limit plus oscillatory correctors and averaged corrections, and
verifies the thermodynamic reading of the oscillator (temperature, entropy,
force, energy balances) to the stated orders.

Modules
-------
model        frequency profiles, initial data, derived constants
phase        accurate reduction of the fast phase modulo its period
dynamics     equations of motion in both coordinate systems
integrate    fixed-step and adaptive integrators, dense output
homogenized  the leading-order limit, a view of the joint slow solve
expansion    the joint slow solve, correctors, reconstruction
averaging    two-scale unfolding, windowed averages, order estimation
thermo       temperature, entropy, force, energy balances
lab          run configuration, file outputs, command line
"""

from .averaging import (
    estimate_order,
    nonlinear_two_scale_error,
    windowed_average,
)
from .dynamics import (
    ActionAngleState,
    CartesianState,
    action_angle_field,
    action_angle_rhs,
    action_angle_rhs_composed,
    cartesian_field,
    energy_action_angle,
    energy_cartesian,
    from_action_angle,
    to_action_angle,
)
from .expansion import (
    AveragedCorrection,
    CorrectorValues,
    HomogenizedState,
    averaged_rhs,
    correctors,
    eval_expansion,
    reference_run,
    residual_norms,
    solve_expansion,
    two_scale_limits,
)
from .homogenized import solve_homogenized
from .integrate import (
    NumericalError,
    Trajectory,
    integrate_controlled,
    integrate_fixed,
    invert_monotone,
    reference_solution,
    sample,
)
from .lab import RunConfig, load_config, main
from .model import (
    DerivedConstants,
    FrequencyModel,
    SystemParams,
    derived_constants,
    finite_difference_report,
    make_frequency,
)
from .phase import reduced_sincos
from .thermo import (
    averaged_energy_bundle,
    check_first_law,
    energy_expansion,
    equipartition_check,
    expand_thermo,
    hertz_temperature_oracle,
    phase_space_volume,
)

__version__ = "0.1.0"

__all__ = [
    "ActionAngleState", "AveragedCorrection",
    "CartesianState", "CorrectorValues", "DerivedConstants",
    "FrequencyModel", "HomogenizedState",
    "NumericalError", "RunConfig", "SystemParams",
    "Trajectory",
    "action_angle_field", "action_angle_rhs", "action_angle_rhs_composed",
    "averaged_energy_bundle", "averaged_rhs",
    "cartesian_field", "check_first_law", "correctors",
    "derived_constants", "energy_action_angle",
    "energy_cartesian", "energy_expansion",
    "equipartition_check", "estimate_order", "eval_expansion",
    "expand_thermo", "finite_difference_report",
    "from_action_angle", "hertz_temperature_oracle",
    "integrate_controlled",
    "integrate_fixed", "invert_monotone", "load_config",
    "main", "make_frequency", "nonlinear_two_scale_error",
    "phase_space_volume", "reduced_sincos",
    "reference_run", "reference_solution",
    "residual_norms", "sample", "solve_expansion", "solve_homogenized",
    "to_action_angle", "two_scale_limits",
    "windowed_average",
]
