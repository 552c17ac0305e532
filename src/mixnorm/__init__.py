"""Numerical checks for mixed-norm Fourier inequalities.

The package verifies sharp Hausdorff-Young bounds on product domains:
exact exponent arithmetic, Gaussian test families on centered grids,
continuum-normalized DFTs, mixed Lebesgue norms, ratio harnesses for
each inequality, and parameter sweeps reproducing the scaling laws of
the counterexample regime.
"""

from .exponents import (
    Admissibility,
    DimensionPair,
    Exponent,
    ExponentTuple,
    InadmissibleExponents,
    admissible,
    as_exponent,
    beckner_constant,
    beckner_power,
    conjugate,
    holder_exponents,
)
from .gaussians import GaussianMix, GaussianTerm, SeparableSum, unit_gaussian
from .grids import (
    FREQUENCY,
    SPACE,
    FunctionDescriptor,
    GridSpec,
    SampledFunction,
)
from .inequalities import (
    RatioReport,
    check_bilinear,
    check_hausdorff_young,
    check_restriction,
    check_same_order,
    check_variant,
    ensemble_trials,
    random_admissible_tuples,
    reports_to_csv,
    reports_to_jsonl,
    run_suite,
)
from .mixed_norms import (
    DegenerateTrial,
    MinkowskiComparison,
    MixedNormSpec,
    holder_compare,
    minkowski_compare,
    mixed_norm,
    plain_norm,
)
from .sampling import (
    GenerationError,
    dilate_first_axis,
    gaussian_product,
    near_delta_family,
    random_ensemble,
    sample_descriptor,
    shear_product,
)
from .sweeps import (
    SweepReport,
    blowup_sweep,
    closed_form_transform,
    delta_divergence_demo,
    necessity_sweep,
)
from .transform import (
    fourier,
    inverse_fourier,
    marginal_second,
    slice_second_zero,
)

__version__ = "0.1.0"

__all__ = [
    "Admissibility",
    "DegenerateTrial",
    "DimensionPair",
    "Exponent",
    "ExponentTuple",
    "FREQUENCY",
    "FunctionDescriptor",
    "GaussianMix",
    "GaussianTerm",
    "GenerationError",
    "GridSpec",
    "InadmissibleExponents",
    "MinkowskiComparison",
    "MixedNormSpec",
    "RatioReport",
    "SPACE",
    "SampledFunction",
    "SeparableSum",
    "SweepReport",
    "admissible",
    "as_exponent",
    "beckner_constant",
    "beckner_power",
    "blowup_sweep",
    "check_bilinear",
    "check_hausdorff_young",
    "check_restriction",
    "check_same_order",
    "check_variant",
    "closed_form_transform",
    "conjugate",
    "delta_divergence_demo",
    "dilate_first_axis",
    "ensemble_trials",
    "fourier",
    "gaussian_product",
    "holder_compare",
    "holder_exponents",
    "inverse_fourier",
    "marginal_second",
    "minkowski_compare",
    "mixed_norm",
    "near_delta_family",
    "necessity_sweep",
    "plain_norm",
    "random_admissible_tuples",
    "random_ensemble",
    "reports_to_csv",
    "reports_to_jsonl",
    "run_suite",
    "sample_descriptor",
    "shear_product",
    "slice_second_zero",
    "unit_gaussian",
]
