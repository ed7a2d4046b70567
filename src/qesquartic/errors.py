"""Exception types raised across the package.

Each error names the condition it certifies or reports; several of them
(StructureViolation, MultipleRoot, DegreeMismatch, NotDivisible) double as
falsification signals: they fire when a structural fact the computations rely
on fails to hold, which would indicate either a bug or a genuinely wrong
structural assumption.  A repeated root where a certificate needs simple
ones is MultipleRoot.  An ExactPoly built from a coefficient that is not an
int raises the builtin TypeError: that is a misuse of the result type, not
a finding about the mathematics.
"""


class QesquarticError(Exception):
    """Base class for all package errors."""


class NotDivisible(QesquarticError):
    """Exact polynomial division left a nonzero remainder."""


class DegreeCapExceeded(QesquarticError):
    """Dense polynomial would exceed the configured coefficient cap."""


class TooClose(QesquarticError):
    """Evaluation point too close to a sample point (empirical Cauchy)."""


class NonConvergence(QesquarticError):
    """Iterative solver failed to reach its tolerance."""


class StructureViolation(QesquarticError):
    """A spectral polynomial violates the expected coefficient support."""


class MultipleRoot(QesquarticError):
    """A certification step found a repeated root where simplicity is required."""


class DegreeMismatch(QesquarticError):
    """Computed discriminant degree differs from n(n+1)/2."""


class IndexingAmbiguity(QesquarticError):
    """The column peel of a branching set met a step that is not clear-cut."""


class AmbiguousTopology(QesquarticError):
    """Skeleton endpoint/junction counts fit no known support pattern."""


class ClearanceViolation(QesquarticError):
    """A monodromy path cannot keep the required distance from branch points."""


class CollisionUnresolved(QesquarticError):
    """Eigenvalue tracking could not separate colliding traces."""


class InsideSupport(QesquarticError):
    """Cauchy transform requested at a point inside the support."""


class StallNearTurningPoint(QesquarticError):
    """Trajectory integration stalled without reaching a capture radius, or
    two unmerged turning points lie too close to resolve (closer than 10
    capture radii)."""
