"""Spectral Galerkin vorticity dynamics under the white-noise enstrophy measure.

Subpackages: `fields` (torus spectral fields), `dynamics` (Biot-Savart,
drift, kernels), `flow` (time integration), `measure` (sampling and
density transport), `verify` (statistical batteries), `cli` (experiment
driver).
"""

__version__ = "0.6.0"

from .fields import (
    GridField,
    InvariantViolation,
    SpectralField,
    dirichlet_kernel,
    dual_pairing,
    from_grid,
    project,
    sobolev_norm,
    to_grid,
)
from .dynamics import (
    KernelEval,
    QuadraticForm,
    SpectralDrift,
    VelocityField,
    biot_savart,
    curl,
    drift,
    quadratic_coefficients,
    quadratic_pairing,
    symmetry_integral,
    trace_integral,
)
from .flow import FlowParams, StepFailure, Trajectory, divergence_check, evolve, step
from .measure import (
    DensitySpec,
    Ensemble,
    GaussianTilt,
    MeasureSpec,
    PushforwardError,
    UniformDensity,
    init_ensemble,
    pushforward,
    sample_white_noise,
    weak_form_residual,
)
from .cylinder import CylinderFunctional
from .verify import TestReport
