"""The package's exact result type: one integer polynomial, immutable.

An ExactPoly holds the int coefficients of one polynomial, ascending, with
trailing zeros trimmed (the zero polynomial is ``()``).  It is what a public
function hands back when its result is one exact polynomial: the spectral
polynomial at a rational a, the cube factor at a = 0, the P/Q/R members,
the Yablonskii-Vorob'ev members and the branching polynomials.  It does no
arithmetic: everything that computes on polynomials runs on the plain int
lists of ``intpoly``, the package's one exact kernel, and wraps its result
here.  A coefficient that is not an int raises TypeError, so every ExactPoly
has integer coefficients by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intpoly


@dataclass(frozen=True)
class ExactPoly:
    """Trimmed int coefficients, ascending; equal iff the coefficients are."""

    coeffs: tuple

    def __post_init__(self):
        cs = list(self.coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"ExactPoly coefficient {c!r} is not an int")
        object.__setattr__(self, "coeffs", tuple(intpoly.trim(cs)))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1
