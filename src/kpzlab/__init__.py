"""Growing random surfaces on Z^d with a local KPZ decomposition.

The package simulates height fields updated by a local driving function
plus small independent noise, decomposes each one-step increment exactly
into averaging, gradient-square, noise and remainder parts, and ships the
Monte Carlo studies that check the continuum claims behind that
decomposition (remainder decay, sqrt-epsilon gradients, drift bounds,
white-noise pairings, long-run gradient stability).
"""

__version__ = "0.1.0"

from .assumptions import AssumptionReport, CheckResult, check_assumptions
from .driving import (CallableDriving, DrivingFunction,
                      EdwardsWilkinsonDriving, GeneralizedKpzDriving,
                      HessianAtOrigin, PolymerDriving,
                      gkpz_monotone_threshold, make_driving, psi_example,
                      stencil_offsets)
from .lattice import (ConeWrapWarning, EvolutionConfig, HeightSlice,
                      LatticeGeometry, evolve, min_cone_side, slice_csv_rows,
                      step, trajectory)
from .noise import NoiseModel, NoiseSpec, make_noise, replica_noise
from .rescale import (Coefficients, DecompositionSample, ScalingScheme,
                      coefficients, decompose, evolve_and_decompose,
                      macro_terms, make_scheme)
from .rng import derive_seed, hash_keys, mix64, unit_open
from .studies import (ExperimentPlan, GaussianBump, QuantileSeries,
                      StudyResult, drift_bound_study, gradient_scaling_study,
                      remainder_ratio_study, stationarity_study,
                      whitenoise_pairing_study)
from .walk import (WalkDistribution, backward_walk_distribution,
                   derivative_fd, derivative_via_walk)

__all__ = [
    "__version__",
    "AssumptionReport", "CheckResult", "check_assumptions",
    "CallableDriving", "DrivingFunction", "EdwardsWilkinsonDriving",
    "GeneralizedKpzDriving", "HessianAtOrigin", "PolymerDriving",
    "gkpz_monotone_threshold", "make_driving", "psi_example",
    "stencil_offsets",
    "ConeWrapWarning", "EvolutionConfig", "HeightSlice", "LatticeGeometry",
    "evolve", "min_cone_side", "slice_csv_rows", "step", "trajectory",
    "NoiseModel", "NoiseSpec", "make_noise", "replica_noise",
    "Coefficients", "DecompositionSample", "ScalingScheme", "coefficients",
    "decompose", "evolve_and_decompose", "macro_terms", "make_scheme",
    "derive_seed", "hash_keys", "mix64", "unit_open",
    "ExperimentPlan", "GaussianBump", "QuantileSeries", "StudyResult",
    "drift_bound_study", "gradient_scaling_study", "remainder_ratio_study",
    "stationarity_study", "whitenoise_pairing_study",
    "WalkDistribution", "backward_walk_distribution", "derivative_fd",
    "derivative_via_walk",
]
