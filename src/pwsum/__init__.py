"""Summation methods for non-harmonic Fourier series on the Paley-Wiener side."""

from pwsum.blaschke import BlaschkeEvaluator, upper_lower_evaluators
from pwsum.contours import ContourSchedule, TriangleContour, build_schedule, lambda_inside
from pwsum.diagnostics import carleson_sup
from pwsum.engine import (
    PWFunction,
    coefficient_matrix,
    compactwise_errors,
    l2_error,
    riesz_project,
    sample_sums,
    weighted_projector_check,
)
from pwsum.genfun import GeneratingFunctionEvaluator, OuterEvaluator, check_factorization
from pwsum.grids import GridFunction, grid_template, hilbert_transform, sample_on_grid
from pwsum.spectrum import Spectrum, SpectrumError, make_family, split_halfplanes
from pwsum.weights import naive_rows, outer_weight, projection_rows, universal_rows

__version__ = "0.1.0"

__all__ = [
    "BlaschkeEvaluator",
    "ContourSchedule",
    "GeneratingFunctionEvaluator",
    "GridFunction",
    "OuterEvaluator",
    "PWFunction",
    "Spectrum",
    "SpectrumError",
    "TriangleContour",
    "build_schedule",
    "carleson_sup",
    "check_factorization",
    "coefficient_matrix",
    "compactwise_errors",
    "grid_template",
    "hilbert_transform",
    "l2_error",
    "lambda_inside",
    "make_family",
    "naive_rows",
    "outer_weight",
    "projection_rows",
    "riesz_project",
    "sample_on_grid",
    "sample_sums",
    "split_halfplanes",
    "universal_rows",
    "upper_lower_evaluators",
    "weighted_projector_check",
    "__version__",
]
