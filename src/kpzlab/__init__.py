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
from .driving import (DrivingFunction, EdwardsWilkinsonDriving,
                      GeneralizedKpzDriving, HessianAtOrigin, PolymerDriving,
                      make_driving, stencil_offsets)
from .lattice import (ConeWrapWarning, EvolutionConfig, HeightSlice,
                      LatticeGeometry, capture, evolve, min_cone_side,
                      slice_columns, step)
from .noise import NoiseModel, NoiseSpec, make_noise, replica_noise
from .rescale import (DecompositionSample, ScalingScheme, decompose,
                      evolve_and_decompose, macro_terms, make_scheme)
from .rng import derive_seed, hash_keys, mix64
from .studies import (ExperimentPlan, GaussianBump, StudyResult,
                      drift_bound_study, gradient_scaling_study,
                      remainder_ratio_study, stationarity_study,
                      whitenoise_pairing_study)
from .walk import backward_walk_distribution, derivative_fd

__all__ = [
    "__version__",
    "AssumptionReport", "CheckResult", "check_assumptions",
    "DrivingFunction", "EdwardsWilkinsonDriving", "GeneralizedKpzDriving",
    "HessianAtOrigin", "PolymerDriving", "make_driving", "stencil_offsets",
    "ConeWrapWarning", "EvolutionConfig", "HeightSlice", "LatticeGeometry",
    "capture", "evolve", "min_cone_side", "slice_columns", "step",
    "NoiseModel", "NoiseSpec", "make_noise", "replica_noise",
    "DecompositionSample", "ScalingScheme", "decompose",
    "evolve_and_decompose", "macro_terms", "make_scheme",
    "derive_seed", "hash_keys", "mix64",
    "ExperimentPlan", "GaussianBump", "StudyResult",
    "drift_bound_study", "gradient_scaling_study", "remainder_ratio_study",
    "stationarity_study", "whitenoise_pairing_study",
    "backward_walk_distribution", "derivative_fd",
]
