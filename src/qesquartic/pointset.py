"""Finite multisets of complex points and their deterministic export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sort_points(points):
    """Lexicographic (Re, Im) ordering; the package-wide export order."""
    pts = np.asarray(points, dtype=complex)
    order = np.lexsort((pts.imag, pts.real))
    return pts[order]


@dataclass
class PointSet:
    """A finite multiset of complex points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)

    def __len__(self):
        return len(self.points)

    def scaled(self, factor: float) -> "PointSet":
        return PointSet(self.points / factor)

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.points))) if len(self.points) else 0.0

    def to_csv(self) -> str:
        pts = sort_points(self.points)
        lines = ["re,im"]
        for z in pts:
            lines.append(f"{float(z.real)!r},{float(z.imag)!r}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())
