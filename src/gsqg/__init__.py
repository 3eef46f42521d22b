"""Spectral Galerkin simulator for the generalized surface quasi-geostrophic
equation with a singular constitutive law, on the square with Dirichlet
eigenfunctions, plus the commutator-based weak formulation and its
verification suite."""

__version__ = "1.0.0"

from .basis import (
    EigenBasis,
    GridField,
    ModeIndex,
    QuadratureGrid,
    SpectralField,
    analyze,
    build_rectangle_basis,
    synthesize,
)
from .fractional import (
    apply_lambda_power,
    heat_semigroup,
    lambda_neg_power_heat,
    lambda_pos_power_heat,
    sobolev_norm,
)
from .commutators import (
    Multiplier,
    comm_lambda_grad,
    comm_lambda_mult,
    comm_neg_lambda_mult,
    monitor_bounds,
    multiplier_catalog,
)
from .weakform import (
    classical_transport,
    n1,
    n2,
    n2_alt,
    n_total,
    test_function_catalog,
)
from .galerkin import (
    BlowUpError,
    GalerkinTensor,
    SimConfig,
    Trajectory,
    assemble_tensor,
    run,
    run_ensemble,
)
from .experiments import (
    SpaceTimeTest,
    SweepReport,
    mode_sweep,
    sine_window_test,
    viscosity_sweep,
    weak_continuity_terms,
    weak_residual,
)
from .verify import CheckResult, format_report, run_suite

__all__ = [
    "EigenBasis", "GridField", "ModeIndex", "QuadratureGrid", "SpectralField",
    "analyze", "build_rectangle_basis", "synthesize",
    "apply_lambda_power", "heat_semigroup", "lambda_neg_power_heat",
    "lambda_pos_power_heat", "sobolev_norm",
    "Multiplier", "comm_lambda_grad", "comm_lambda_mult",
    "comm_neg_lambda_mult", "monitor_bounds", "multiplier_catalog",
    "classical_transport", "n1", "n2", "n2_alt", "n_total",
    "test_function_catalog",
    "BlowUpError", "GalerkinTensor", "SimConfig", "Trajectory",
    "assemble_tensor", "run", "run_ensemble",
    "SpaceTimeTest", "SweepReport", "mode_sweep", "sine_window_test",
    "viscosity_sweep", "weak_continuity_terms", "weak_residual",
    "CheckResult", "format_report", "run_suite",
]
