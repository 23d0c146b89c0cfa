"""Numerical laboratory for dyadic-martingale operator theory at finite
truncation: Haar systems, martingale paraproducts, dyadic shifts,
Schatten/Besov/BMO functionals, noncommutative transference, complex
medians, and non-degenerate-kernel machinery."""

from .dyadic import (CubeId, DyadicParams, FiniteDyadicSystem, GridShift,
                     HaarIndex, StepFunction, build_system, cover_cube,
                     expectation, haar_function, martingale_difference)
from .median import QuadrantFrame, WeightedPointSet, complex_median, quadrant_masses
from .paraproducts import OperatorBundle, Symbol, decompose, paraproduct
from .spectral import schatten_norm

__all__ = [
    "CubeId",
    "DyadicParams",
    "FiniteDyadicSystem",
    "GridShift",
    "HaarIndex",
    "StepFunction",
    "build_system",
    "cover_cube",
    "expectation",
    "haar_function",
    "martingale_difference",
    "QuadrantFrame",
    "WeightedPointSet",
    "complex_median",
    "quadrant_masses",
    "OperatorBundle",
    "Symbol",
    "decompose",
    "paraproduct",
    "schatten_norm",
]

__version__ = "0.1.0"
