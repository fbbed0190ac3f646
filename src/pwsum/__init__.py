"""Summation methods for non-harmonic Fourier series on the Paley-Wiener side."""

from pwsum.blaschke import BlaschkeEvaluator, upper_lower_evaluators
from pwsum.contours import build_schedule
from pwsum.diagnostics import carleson_sup
from pwsum.engine import (
    PWFunction,
    coefficient_matrix,
    compactwise_errors,
    riesz_project,
    sample_sums,
    weighted_projector_check,
)
from pwsum.genfun import GeneratingFunctionEvaluator, OuterEvaluator, check_factorization
from pwsum.grids import hilbert_transform, line_grid
from pwsum.spectrum import Spectrum, SpectrumError, make_family, split_halfplanes
from pwsum.weights import naive_weights, outer_weight, projection_weights, universal_weights

__version__ = "0.1.0"

__all__ = [
    "BlaschkeEvaluator",
    "GeneratingFunctionEvaluator",
    "OuterEvaluator",
    "PWFunction",
    "Spectrum",
    "SpectrumError",
    "build_schedule",
    "carleson_sup",
    "check_factorization",
    "coefficient_matrix",
    "compactwise_errors",
    "hilbert_transform",
    "line_grid",
    "make_family",
    "naive_weights",
    "outer_weight",
    "projection_weights",
    "riesz_project",
    "sample_sums",
    "split_halfplanes",
    "universal_weights",
    "upper_lower_evaluators",
    "weighted_projector_check",
    "__version__",
]
