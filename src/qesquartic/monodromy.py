"""Eigenvalue monodromy along closed paths in the parameter plane.

A standard path ("vertical hook") drops from a large positive base point B
to the height of a chosen branching point, runs horizontally left until just
short of it, circles it counterclockwise, and retraces itself back (the way
home at t is the way out at 1 - t, bit for bit).  The spectrum at B is real
and simple; tracking the eigenvalues frame by frame along the path produces
a permutation of the sorted-at-B spectrum.  A path is a plain function that
maps an array of t in [0, 1] to the array of a(t) in one numpy pass (a
scalar t gives a scalar).

Consecutive frames are matched by nearest neighbours: each old eigenvalue
goes to the closest new one.  A step is accepted only when that map is a
permutation and its largest motion is at most 0.3 times the smallest gap
of the new frame; every other new eigenvalue then lies at least 0.7 gaps
away, so the map is the unique optimal assignment.  Otherwise the step is
halved.  That test reads only the two spectra at the ends of a step, as
sets, so the tracker refines one bisection level at a time: it judges all
pending steps together on stacked distance arrays, solves all midpoints of
a level in one stacked eigensolve, and composes the accepted steps' maps
in one pass along the path.  The grid and the result are those of a walk
that halves each step in place.  The initial grid is snapped to multiples
of 2^-40, where 1 - t is exact, and each distinct a is solved once, so at
any step count a hook's way home costs no eigensolve.

The columns of the branching triangle are numbered from the right (the
rightmost point is column 1, and column j holds j points); the measured
monodromy of a column-j hook is the transposition (j, j+1), which the
verification suite checks for every branching point up to moderate n.

For |a| large the matrix is dominated by its tridiagonal part, which after a
diagonal similarity is the classical equispaced-spectrum tridiagonal matrix
scaled by sqrt(a); eigenvalues divided by n sqrt(a) then approach the grid
{-1 + 2k/n}, and a full turn of a reverses the real order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClearanceViolation, CollisionUnresolved
from .spectral import build_matrices, build_matrix

MAX_FRAMES = 200000     # grid points one tracked path may use
STACK_ENTRIES = 1 << 18  # matrix entries per stacked batch


@dataclass
class MonodromyResult:
    """Permutation of the sorted-at-base spectrum plus tracking diagnostics."""

    permutation: tuple          # 0-based: start position p ends at permutation[p]
    min_gap: float
    frames: int
    traces: np.ndarray          # (frames, n+1): the spectrum along the path

    def one_line(self):
        """1-based one-line notation."""
        return tuple(p + 1 for p in self.permutation)

    def is_transposition(self):
        moved = [i for i, p in enumerate(self.permutation) if p != i]
        if len(moved) != 2:
            return None
        i, j = moved
        if self.permutation[i] == j and self.permutation[j] == i:
            return (i + 1, j + 1)
        return None

def kac_matrix(n: int, a=1.0) -> np.ndarray:
    """The tridiagonal comparison matrix: sub (n-i)/n, super (i+1)a/n.

    At a=1 its spectrum is exactly {-1 + 2k/n : k = 0..n}.
    """
    M = np.zeros((n + 1, n + 1), dtype=complex)
    ac = complex(a)
    for i in range(n):
        M[i + 1, i] = (n - i) / n
        M[i, i + 1] = (i + 1) * ac / n
    return M


def path_around_index(n: int, idx: int, branch_set, bump=None):
    """Vertical hook t -> a(t) around the idx-th point of ``branch_set``, the
    branching set of the same n (sorted order), taking an array (or a
    scalar) of t.

    The base point is B = 2 max|branch points| + 1.  With near the distance
    to the nearest other branching point, the circle radius is 0.3 near and
    the path must keep 0.05 near clear of every other branching point;
    hooks around real branching points get their horizontal run bumped off
    the axis by ``bump`` (default min(near/2, 0.35)).  Each failed try
    shrinks radius, bump and clearance by 0.6; raises ClearanceViolation if
    no shrink keeps the path clear, and ValueError if ``branch_set`` belongs
    to another n.
    """
    if n != branch_set.n:
        raise ValueError(f"branching set of n={branch_set.n} given for n={n}")
    pts = branch_set.points.points
    sigma = complex(pts[idx])
    others = np.delete(pts, idx)
    B = 2.0 * float(np.abs(pts).max()) + 1.0
    if others.size:
        near = float(np.abs(others - sigma).min())
    else:
        near = 1.0
    radius = 0.3 * near
    clearance = 0.05 * near
    is_real = abs(sigma.imag) < 1e-9
    if bump is None:
        bump = 0.0 if not is_real else min(0.5 * near, 0.35)
    for attempt in range(8):
        path = _hook(B, sigma, radius, bump)
        if _path_min_distance(path, others) > clearance:
            return path
        radius *= 0.6
        bump *= 0.6
        clearance *= 0.6
    raise ClearanceViolation(
        f"hook around {sigma} cannot clear other branching points"
    )


def _hook(B, sigma, radius, bump):
    """Closed path: vertical drop, horizontal (bumped) approach, ccw circle,
    and the run home as the way out at 1 - t (equal bit for bit wherever
    1 - t is exact), as a function of an array (or a scalar) of t."""
    y = sigma.imag
    approach_from = B + 0j
    p0 = complex(B, y)                 # after vertical segment
    p1 = sigma + radius                # approach point, right of sigma

    def horizontal(s):
        z = p0 + (p1 - p0) * s
        return z + 1j * bump * np.sin(np.pi * np.clip(s, 0.0, 1.0))

    # outbound: 0..0.15 vertical, 0.15..0.45 horizontal (with bump),
    # 0.45..0.55 circle; home is the outbound run at 1 - t
    def path(t):
        t = np.asarray(t, dtype=float) % 1.0
        s = np.where(t < 0.55, t, 1 - t)
        return np.select(
            [(t >= 0.45) & (t < 0.55), s < 0.15],
            [sigma + radius * np.exp(2j * np.pi * ((t - 0.45) / 0.10)),
             approach_from + 1j * y * (s / 0.15)],
            horizontal((s - 0.15) / 0.30))[()]

    return path


def _path_min_distance(path, pts):
    if pts.size == 0:
        return math.inf
    zs = path(np.linspace(0, 1, 600))
    return float(np.abs(zs[:, None] - pts[None, :]).min())


def circle_path(center, radius):
    """a(t) = center + radius e^(2 pi i t)."""
    center, radius = complex(center), float(radius)
    return lambda t: center + radius * np.exp(2j * np.pi * t)


def _nearest(L, R):
    """Row-wise nearest neighbours from each row of L (m, k) into the same
    row of R: (ci, largest row minimum, whether ci is a permutation), one
    entry per row, with R[j][ci[j]] the neighbours of L[j]."""
    D = np.abs(L[:, :, None] - R[:, None, :])
    ci = D.argmin(axis=2)
    perm = (np.sort(ci, axis=1) == np.arange(L.shape[1])).all(axis=1)
    return ci, D.min(axis=2).max(axis=1), perm


def _judge(L, R, refine_factor):
    """Stacked step test for the intervals with end spectra L[j] -> R[j]:
    (ci, gap, accept, collide), one entry per interval.

    gap[j] is the smallest gap of R[j].  A step is accepted when the
    nearest-neighbour map ci[j] is a permutation moving no eigenvalue by
    more than refine_factor * gap[j], or when the motion is below rounding
    (1e-13 of the spectral scale).  In that tiny-motion case a map that is
    not a permutation (coincident eigenvalues) cannot be resolved: collide.
    Every other step must be halved.  Only the two spectra as sets decide,
    not the order of their rows.
    """
    ci, moved, perm = _nearest(L, R)
    k = R.shape[1]
    E = np.abs(R[:, :, None] - R[:, None, :])
    E[:, np.arange(k), np.arange(k)] = math.inf
    gap = E.min(axis=(1, 2))
    tiny = ~(moved > 1e-13 * (1 + np.abs(R).max(axis=1)))
    return ci, gap, perm & ((moved <= refine_factor * gap) | tiny), tiny & ~perm


def _batches(m, k):
    """Slices of range(m) holding at most about STACK_ENTRIES / k^2 stacked
    k x k problems each, so a batch stays a few MB whatever m is."""
    step = max(1, STACK_ENTRIES // (k * k))
    return [slice(s, s + step) for s in range(0, m, step)]


def _spectra(n, ts, path):
    """Unsorted eigenvalues at a = path(t) for each t in ts, (len(ts), n+1):
    one call of the path, a scalar result standing for every t, and stacked
    eigensolves of each distinct a once, keyed on its bits (so 0.0 and -0.0
    stay apart), equal bit for bit to one call per matrix."""
    avals = np.ascontiguousarray(np.broadcast_to(path(ts), ts.shape), complex)
    _, first, inverse = np.unique(avals.view("V16"), return_index=True,
                                  return_inverse=True)
    return np.concatenate([np.linalg.eigvals(build_matrices(n, avals[first[s]]))
                           for s in _batches(len(first), n + 1)])[inverse]


def track_path(n: int, path, steps: int = 256) -> MonodromyResult:
    """Track all eigenvalues around a closed path; the end-to-start matching
    expressed against the ascending-real order of the spectrum at the base.

    ``path`` maps an array of t to the array of a(t); a scalar result is
    taken as constant in t.

    The path starts on ``steps`` equal intervals of t in [0, 1], their ends
    rounded to multiples of 2^-40.  An interval is accepted when the
    nearest-neighbour map from the spectrum at its left end to the one at
    its right end is a permutation whose largest motion is at most 0.3
    times the smallest gap of the right-end spectrum (`_judge`); every
    other candidate is then at least 0.7 gaps away, so the map is the
    unique optimal assignment (this needs a factor below 0.5).  Rejected
    intervals are halved.  The test reads only the two end spectra, so the
    intervals are refined one bisection level at a time: all pending
    intervals are judged together and all midpoints of a level are solved in
    one stacked eigensolve.  The accepted grid is the one a frame-by-frame
    walk builds.  One pass over the accepted intervals in t order then
    composes their maps.  The end frame is matched to the start the same
    way; a closing map that is not a permutation, or moves an eigenvalue by
    more than 1e-6 of the spectral scale, is a closure failure.

    Raises ValueError for steps < 1, and CollisionUnresolved at the
    refinement floor (a rejected interval shorter than 1e-12: the path runs
    too close to a branching point), on coincident eigenvalues in a tiny
    motion, past MAX_FRAMES grid points and on a failed closure.  Of
    several failed intervals the one with the smallest t is reported, as a
    walk along the path meets it first.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps + 1 > MAX_FRAMES:
        raise CollisionUnresolved("frame budget exhausted")
    # on multiples of 2^-40, 1 - t is exact at every grid point and every
    # bisection midpoint down to 2^-52, so a(t) = a(1 - t) bit for bit
    t = np.round(np.linspace(0.0, 1.0, steps + 1) * 2.0**40) * 2.0**-40
    S = _spectra(n, t, path)
    left = np.arange(steps)
    right = left + 1
    done = []           # (left, right, ci, gap) of the accepted intervals
    failure = None      # (t, error) of the leftmost failed interval
    while left.size:
        parts = [_judge(S[left[s]], S[right[s]], 0.3)
                 for s in _batches(left.size, n + 1)]
        ci, gap, accept, collide = (np.concatenate(x) for x in zip(*parts))
        done.append((left[accept], right[accept], ci[accept], gap[accept]))
        reject = ~(accept | collide)
        floor = reject & (t[right] - t[left] < 1e-12)
        bad = np.flatnonzero(collide | floor)
        if bad.size:
            j = bad[np.argmin(t[left[bad]])]
            if failure is None or t[left[j]] < failure[0]:
                what = ("coincident eigenvalues match ambiguously" if collide[j]
                        else f"refinement floor at t={t[right[j]]:.6f}")
                failure = (t[left[j]],
                           CollisionUnresolved(f"{what} (gap {gap[j]:.2e})"))
            reject &= t[left] < failure[0]     # a walk never gets past it
        left, right = left[reject], right[reject]
        if not left.size:
            break
        if t.size + left.size > MAX_FRAMES:
            raise CollisionUnresolved("frame budget exhausted")
        mid = np.arange(t.size, t.size + left.size)
        t = np.concatenate([t, 0.5 * (t[left] + t[right])])
        S = np.concatenate([S, _spectra(n, t[mid], path)])
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
    if failure is not None:
        raise failure[1]
    left, right, ci, gap = (np.concatenate(x) for x in zip(*done))
    order = np.argsort(t[left])
    idx = [np.argsort(S[0])]            # ascending (Re, Im) at the base
    for c in ci[order]:
        idx.append(c[idx[-1]])
    traces = np.take_along_axis(S[np.r_[0, right[order]]], np.array(idx), axis=1)
    start, cur = traces[0], traces[-1]
    ci, closure, is_perm = _nearest(start[None], cur[None])
    closure = float(closure[0])
    scale = 1 + float(np.abs(start).max())
    if closure > 1e-6 * scale or not is_perm[0]:
        raise CollisionUnresolved(f"trace closure failed: {closure:.2e}")
    return MonodromyResult(permutation=tuple(int(c) for c in ci[0]),
                           min_gap=float(gap.min()), frames=len(traces),
                           traces=traces)


def kac_limit_check(n: int, a) -> dict:
    """Deviation of the scaled spectrum from the equispaced limit grid.

    Eigenvalues are divided by n sqrt(a) (principal branch); in the |a| ->
    infinity limit they approach {-1 + 2k/n} exactly, so the report carries
    the max deviation after sorting along the segment direction.
    """
    a = complex(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    lam = np.linalg.eigvals(build_matrix(n, a))
    gamma = lam / (n * np.sqrt(a))
    gamma = gamma[np.argsort(gamma.real)]
    dev = np.abs(gamma - np.array([-1 + 2 * k / n for k in range(n + 1)]))
    return {
        "a": [a.real, a.imag],
        "gamma": gamma,
        "max_deviation": float(dev.max()),
        "mean_deviation": float(dev.mean()),
    }
