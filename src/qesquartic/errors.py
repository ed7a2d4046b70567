"""Exception types raised across the package.

Each error names the condition it certifies or reports; several of them
(StructureViolation, MultipleRoot, DegreeMismatch, NotDivisible) double as
falsification signals: they fire when a structural fact the computations rely
on fails to hold, which would indicate either a bug or a genuinely wrong
structural assumption.
"""


class QesquarticError(Exception):
    """Base class for all package errors."""


class NotDivisible(QesquarticError):
    """Exact polynomial division left a nonzero remainder."""


class NotSquarefree(QesquarticError):
    """Polynomial has a repeated factor; carries the offending gcd factor."""

    def __init__(self, message, gcd_factor=None):
        super().__init__(message)
        self.gcd_factor = gcd_factor


class DegreeCapExceeded(QesquarticError):
    """Dense polynomial would exceed the configured coefficient cap."""


class TooClose(QesquarticError):
    """Evaluation point too close to a sample point (empirical Cauchy)."""


class NonConvergence(QesquarticError):
    """Iterative solver failed to reach its tolerance; carries diagnostics."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class StructureViolation(QesquarticError):
    """A spectral polynomial violates the expected coefficient support."""


class MultipleRoot(QesquarticError):
    """A certification step found a repeated root where simplicity is required."""


class DegreeMismatch(QesquarticError):
    """Computed discriminant degree differs from n(n+1)/2."""


class IndexingAmbiguity(QesquarticError):
    """The column peel of a branching set met a step that is not clear-cut."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points


class AmbiguousTopology(QesquarticError):
    """Skeleton endpoint/junction counts fit no known support pattern."""

    def __init__(self, message, leaves=None, junctions=None):
        super().__init__(message)
        self.leaves = leaves
        self.junctions = junctions


class ClearanceViolation(QesquarticError):
    """A monodromy path cannot keep the required distance from branch points."""


class CollisionUnresolved(QesquarticError):
    """Eigenvalue tracking could not separate colliding traces."""


class BranchCollision(QesquarticError):
    """Root continuation met a near-double root below the refinement floor."""


class InsideSupport(QesquarticError):
    """Cauchy transform requested at a point inside the support."""


class StallNearTurningPoint(QesquarticError):
    """Trajectory integration stalled without reaching a capture radius."""
