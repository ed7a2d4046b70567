"""Spectral computations for a quasi-exactly solvable quartic oscillator
family: exact spectral polynomials and their structure, scaled spectra and
their limit supports, Yablonskii-Vorob'ev polynomials, branching loci, and
eigenvalue monodromy."""

from .exactpoly import ExactPoly
from .pointset import PointSet

__all__ = ["ExactPoly", "PointSet"]

__version__ = "0.1.0"
