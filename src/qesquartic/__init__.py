"""Spectral computations for a quasi-exactly solvable quartic oscillator
family: exact spectral polynomials and their structure, scaled spectra and
their limit supports, Yablonskii-Vorob'ev polynomials, branching loci, and
eigenvalue monodromy."""

from .exactpoly import ExactPoly, discriminant, exact_div, real_roots, resultant
from .pointset import PointSet

__all__ = [
    "ExactPoly",
    "PointSet",
    "discriminant",
    "exact_div",
    "real_roots",
    "resultant",
]

__version__ = "0.1.0"
