"""tfu: a desk-scale numerical laboratory for time-frequency concentration.

The package samples closed-form test functions on origin-centered lattices,
computes their short-time Fourier transforms with quadrature-level accuracy,
and verifies the identities, norm inequalities, weighted-integral divergence
statements, and essential-support bounds that constrain how concentrated a
nonzero function can be in the time-frequency plane.
"""

from tfu.core import (
    DEFAULT_GRID,
    DEFAULT_LAYOUT,
    SampledSignal,
    SignalLayout,
    TFArray,
    TFGrid,
    discrete_fourier,
    fourier_2d,
    pairwise_sum,
    quadrature_sum,
)
from tfu.identity import (
    AuxiliaryField,
    build_auxiliary,
    fundamental_identity_defect,
    rotation_invariance_defect,
)
from tfu.reference import (
    AnalyticFunction,
    fourier_closed_form,
    gaussian,
    gaussian_stft_closed_form,
    gaussian_stft_field,
    hermite,
    hermite_fourier_eigenvalue,
    poly_gaussian,
    sample,
    translate_modulate,
    unit_gaussian,
)
from tfu.stft import compute_stft, isometry_defect
from tfu.support import (
    SupportMode,
    SupportReport,
    SupportVariant,
    bound_sweep,
    greedy_essential_support,
    lieb_ratio,
    lower_bound,
)
from tfu.weights import (
    CONVERGENCE_RADII,
    DIVERGENCE_RADII,
    GrowthReport,
    WeightFamily,
    WeightSpec,
    decay_fit,
    growth_scan,
    pair_field,
    weighted_mass,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "AuxiliaryField",
    "CONVERGENCE_RADII",
    "DEFAULT_GRID",
    "DEFAULT_LAYOUT",
    "DIVERGENCE_RADII",
    "GrowthReport",
    "SampledSignal",
    "SignalLayout",
    "SupportMode",
    "SupportReport",
    "SupportVariant",
    "TFArray",
    "TFGrid",
    "WeightFamily",
    "WeightSpec",
    "bound_sweep",
    "build_auxiliary",
    "compute_stft",
    "decay_fit",
    "discrete_fourier",
    "fourier_2d",
    "fourier_closed_form",
    "fundamental_identity_defect",
    "gaussian",
    "gaussian_stft_closed_form",
    "gaussian_stft_field",
    "greedy_essential_support",
    "growth_scan",
    "hermite",
    "hermite_fourier_eigenvalue",
    "isometry_defect",
    "lieb_ratio",
    "lower_bound",
    "pair_field",
    "pairwise_sum",
    "poly_gaussian",
    "quadrature_sum",
    "rotation_invariance_defect",
    "sample",
    "translate_modulate",
    "unit_gaussian",
    "weighted_mass",
]
