"""Constant-coefficient recurrence asymptotics in the scaled spectral plane.

For each tau in [0,1] the scaled minor recurrence freezes into a
constant-coefficient 4-term relation whose characteristic cubic is

    Psi^3 + beta Psi^2 + a tau(1-tau) Psi - (1-tau)^2 tau^2 = 0.

By the equimodularity theorem of Beraha-Kahane-Weiss (1978) the root-counting
measures of its solution sequence live on the locus where the two
largest-modulus roots share their modulus, and off that locus the solution
grows like the strictly dominant root.  This module computes those supports,
their branch points in beta, the discriminant factorization, the support
endpoints, and the tau-averaged Cauchy transform of Borcea-Boegvad-Shapiro
(Publ. RIMS 45, 2009), whose integrand at each tau takes the dominant root:
outside the union support that root is the branch with Psi/beta -> -1 at
infinity, so no continuation is needed.  The transform checks the dominance
gap at every quadrature tau and refuses points on a support; its value is
valid only outside the union support.

Every cubic here goes through the one vectorized helper
``rootfind.cubic_roots``, and the hot loops call it on whole batches: the
support raster of one tau(1 - tau), the bisection of the raster edges that
can hold a support point, those of all taus together (one solve per
bisection step), the 2001-point scan of the real axis, and all taus of one
quadrature order.  The Gauss-Legendre rule of each quadrature order is
computed once per process.

The frozen recurrence itself is solved exactly at a = 0: its solution
polynomials are scaled to integer ones at the rational tau and built in
``intpoly``, and their roots come from ``rootfind.threefold_roots``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss   # loaded with the package, not on first use

from . import intpoly
from .errors import InsideSupport, NonConvergence
from .pointset import PointSet
from .rootfind import cubic_roots, threefold_roots

EQUIMODULAR_TOL = 1e-4
SUPPORT_GRID_SIZE = 61   # raster side of union_support


@dataclass
class SupportSample:
    """Union-of-supports sample over a tau grid: each tau's support points
    (unordered; refined raster crossings and raster members), their union,
    and each tau's three branch points as endpoint markers."""

    a: complex
    tau_grid: list
    per_tau: dict = field(default_factory=dict)   # tau -> ndarray of beta points
    union: np.ndarray = None
    endpoints: dict = field(default_factory=dict)  # tau -> 3 branch points

    def union_points(self) -> PointSet:
        return PointSet(self.union)

    def to_json_dict(self) -> dict:
        """{a, tau_grid, endpoints}: the parameter, the taus and each tau's
        three branch points; the support points go to CSV (``union_points``)."""
        return {
            "a": [self.a.real, self.a.imag],
            "tau_grid": [float(t) for t in self.tau_grid],
            "endpoints": {
                f"{t:.6f}": sorted([float(z.real), float(z.imag)] for z in eps)
                for t, eps in self.endpoints.items()
            },
        }


def _finite(name, value) -> complex:
    z = complex(value)
    if not np.isfinite(z):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


def _tau_product(tau):
    """T = tau(1 - tau), the only way tau enters the characteristic cubic."""
    T = np.asarray(tau, dtype=float)
    return T * (1 - T)


def _char_roots(beta, a, tau):
    """Roots of the characteristic cubic, beta and tau broadcast (last axis 3)."""
    T = _tau_product(tau)
    return cubic_roots(beta, complex(a) * T, -(T * T))


def characteristic_roots(beta, a=0.0, tau=0.5):
    """The three roots of the characteristic cubic, stably ordered by modulus
    (largest first) along the last axis."""
    r = _char_roots(beta, a, tau)
    return np.take_along_axis(r, np.argsort(-np.abs(r), axis=-1), axis=-1)


def _dominance_gap(beta, a, tau):
    """(|r_1| - |r_2|) / |r_1| for the two largest root moduli |r_1| >= |r_2|,
    beta and tau broadcast; inf where all three roots vanish."""
    return _gap(np.abs(characteristic_roots(beta, a, tau)))


def _gap(mods):
    """The dominance gap from root moduli sorted largest first."""
    top = mods[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(top > 0, (top - mods[..., 1]) / top, np.inf)


def support_membership(beta, a=0.0, tau=0.5):
    """True where the two largest-modulus cubic roots are equimodular to
    EQUIMODULAR_TOL, beta and tau broadcast."""
    return _dominance_gap(beta, a, tau) < EQUIMODULAR_TOL


def branch_points(a=0.0, tau=0.5):
    """The three beta roots of the branch-point cubic

    4 b^3 + a^2 b^2 - 18 a b tau(1-tau) + tau(1-tau)(27 tau^2 - 27 tau - 4a^3) = 0.
    """
    a = complex(a)
    T = tau * (1 - tau)
    c3, c2, c1, c0 = 4.0, a * a, -18.0 * a * T, T * (27 * tau * tau - 27 * tau - 4 * a**3)
    return cubic_roots(c2 / c3, c1 / c3, c0 / c3)


def branch_cubic_coeffs_in_a(tau):
    """Exact branch-point cubic at rational tau, as polynomials in a.

    Returns [c0(a), c1(a), c2(a), c3(a)] (ascending beta powers), each a
    list of Fraction coefficients ascending in a, so the tau = 1/2 case can
    be compared coefficientwise against the endpoint cubic as an exact
    identity.
    """
    tau = Fraction(tau)
    T = tau * (1 - tau)
    return _fraction_lists([T * (27 * tau * tau - 27 * tau), 0, 0, -4 * T],
                           [0, -18 * T], [0, 0, 1], [4])


def endpoint_cubic_coeffs_in_a():
    """Exact endpoint cubic coefficients [c0(a), ..., c3(a)], ascending in L,
    each a list of Fraction coefficients ascending in a."""
    return _fraction_lists([Fraction(-27, 16), 0, 0, -1], [0, Fraction(-9, 2)],
                           [0, 0, 1], [4])


def _fraction_lists(*polys):
    return [[Fraction(c) for c in p] for p in polys]


def dsc_exact(a3, tau) -> Fraction:
    """Exact dsc value given rational a^3 and tau (a enters through a^3 only)."""
    a3 = Fraction(a3)
    tau = Fraction(tau)
    return 16 * tau * (1 - tau) * (a3 - 27 * tau + 27 * tau * tau) ** 3


def support_endpoints(a=0.0):
    """The three roots of 4 L^3 + a^2 L^2 - (9/2) a L - a^3 - 27/16 = 0.

    These coincide with branch_points(a, 1/2); the support endpoints of the
    limiting measure are contained among them.
    """
    a = complex(a)
    return cubic_roots(a * a / 4, -9 * a / 8, (-(a**3) - 27 / 16) / 4)


@lru_cache(maxsize=8)   # cauchy_nu asks for at most five orders
def _gauss_rule(order):
    """Read-only Gauss-Legendre nodes mapped to tau in (0, 1), and their
    weights, for one order; each order is computed once per process."""
    nodes, weights = leggauss(order)
    taus = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    taus.flags.writeable = False
    ws.flags.writeable = False
    return taus, ws


def cauchy_nu(beta, a=0.0):
    """tau-averaged Cauchy transform at beta, valid only outside the union
    support.

    Gauss-Legendre quadrature over tau in (0,1) of dPsi/dbeta / Psi, where
    Psi is the largest-modulus root of the tau cubic.  Off the tau support
    that root is strictly dominant (Beraha-Kahane-Weiss), analytic in beta
    and asymptotic to -beta at infinity, and the tau-average of its
    logarithmic derivative is the Cauchy transform of the limiting root
    measure (Borcea-Boegvad-Shapiro).  Each order solves the cubics of all
    its taus in one ``characteristic_roots`` call and raises InsideSupport
    when the dominance gap at any of those taus is below EQUIMODULAR_TOL,
    or when Psi hands over to another root between two adjacent taus: a
    step of Psi longer than its two neighbouring steps together.  The order
    starts at 64 and doubles until two successive values agree
    to 1e-10, and each order's rule comes from ``_gauss_rule``.  beta and a
    must be finite.
    """
    beta, a = _finite("beta", beta), _finite("a", a)
    if beta == 0:
        raise InsideSupport("beta = 0 lies on every support")
    order = 64
    prev = None
    for _ in range(5):
        taus, ws = _gauss_rule(order)
        roots = characteristic_roots(beta, a, taus)
        inside = taus[_gap(np.abs(roots)) < EQUIMODULAR_TOL]
        if len(inside):
            raise InsideSupport(f"beta={beta} is on the tau={inside[0]:.3f} support")
        psi = roots[:, 0]
        step = np.abs(np.diff(psi))
        jump = np.flatnonzero(step > np.r_[0, step[:-1]] + np.r_[step[1:], 0])
        if len(jump):
            raise InsideSupport(f"beta={beta} is on a support between tau="
                                f"{taus[jump[0]]:.3f} and {taus[jump[0] + 1]:.3f}")
        T = taus * (1 - taus)
        dpsi = -(psi * psi) / (3 * psi * psi + 2 * beta * psi + a * T)
        total = complex(np.sum(ws * dpsi / psi))
        if prev is not None and abs(total - prev) < 1e-10:
            return total
        prev = total
        order *= 2
    raise NonConvergence("quadrature did not stabilize for cauchy_nu")


def _continued_side(roots, ref):
    """True where the root nearest ref is strictly larger in modulus than
    the other two, roots along the last axis and ref broadcast against it.

    The one dominance test of the support bisection: ``_refine_edges``
    bisects on it, and ``_raster_support`` compares it at the two raster
    ends of an edge to pick the edges worth bisecting.
    """
    j = np.argmin(np.abs(roots - ref), axis=-1)[..., None]
    mods = np.abs(roots)
    mj = np.take_along_axis(mods, j, axis=-1)[..., 0]
    np.put_along_axis(mods, j, -np.inf, axis=-1)
    return mj - mods.max(axis=-1) > 0


def _refine_edges(b0, b1, a, tau):
    """Bisect the equimodular-curve crossing on every segment [b0[k], b1[k]]
    at tau[k] at once, in 36 steps (tau broadcast against b0).

    The curve is where the largest-modulus root hands over to another root;
    the handover flips ``_continued_side`` for the root continued, the one
    nearest the dominant root at b0.  A segment whose two ends lie on one
    side is bisected towards b1 unless the side flips inside it.  Each
    segment's steps depend only on its own b0, b1 and tau, so segments of
    different taus bisect together with the same results as apart.
    """
    b0 = np.asarray(b0, dtype=complex)
    r0 = _char_roots(b0, a, tau)
    ref = np.take_along_axis(r0, np.argmax(np.abs(r0), axis=-1)[:, None], axis=-1)
    positive = _continued_side(r0, ref)
    lo, hi = b0, np.asarray(b1, dtype=complex)
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        same = _continued_side(_char_roots(mid, a, tau), ref) == positive
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


# An edge whose ends lie on one side of _continued_side gives a support
# point only next to a raster point on or near a support.  Over 14 a x 20
# taus at tol = 1e-4, 667 of 561,154 such edges gave one, each with an end
# gap of at most 2.2e-3, and an end gap below 1000 tol keeps 0.8% of them;
# a band of tol alone loses a point at figA1's tau = 11/32 and 21/32.
_KEEP_GAP_FACTOR = 1000.0


def union_support(a, tau_grid, tol=EQUIMODULAR_TOL) -> SupportSample:
    """Per-tau equimodular supports refined onto the actual curves.

    A coarse SUPPORT_GRID_SIZE-square raster of |Re beta|, |Im beta| <=
    1 + 0.75 max(1, |a|)^1.5 only straddles the (one-dimensional) supports,
    so grid edges where the dominant cubic root jumps are bisected
    transversely until the curve point is located; every refined point then
    passes the membership test at ``tol``.  Of the jump-flagged edges only
    those that can hold a support point are bisected: the ones whose ends
    lie on different sides of ``_continued_side`` (the sign the bisection
    follows, read from the raster roots), and the ones with an end whose
    dominance gap is below 1000 tol, where a raster point on a support
    interval is approached from a neighbour.  Raster points that already
    pass membership are kept too, and the per-tau branch points ride along
    as endpoint markers.  The cubic depends on tau only through T =
    tau(1-tau), so the raster of each distinct T is solved once, keyed on
    the bits of ``_tau_product`` (tau and 1 - tau share them when both are
    exact, as the figures' taus k/32 are); the kept edges of every T are
    then bisected together, each at its own tau, by ``_refine_edges``.  a
    must be finite and tol positive and finite.
    """
    a = _finite("a", a)
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    R = 1.0 + 0.75 * max(1.0, abs(a)) ** 1.5
    side = np.linspace(-R, R, SUPPORT_GRID_SIZE)
    grid = side[:, None] + 1j * side[None, :]
    sample = SupportSample(a=a, tau_grid=list(tau_grid))
    if not sample.tau_grid:
        sample.union = np.empty(0, dtype=complex)
        return sample
    by_T = {}   # T bits -> (tau, raster members, kept edge ends b0, b1)
    for t in sample.tau_grid:
        key = _tau_product(t).tobytes()
        if key not in by_T:
            by_T[key] = (t, *_raster_support(grid, a, t, tol))
    ts, members, b0, b1 = zip(*by_T.values())
    counts = [len(e) for e in b0]
    taus = np.repeat(np.asarray(ts, dtype=float), counts)
    pts = _refine_edges(np.concatenate(b0), np.concatenate(b1), a, taus)
    on_curve = _dominance_gap(pts, a, taus) < tol
    cuts = np.cumsum(counts)[:-1]
    curve = {key: np.concatenate([m, p[ok]]) for key, m, p, ok in
             zip(by_T, members, np.split(pts, cuts), np.split(on_curve, cuts))}
    for t in sample.tau_grid:
        sample.per_tau[t] = curve[_tau_product(t).tobytes()]
        sample.endpoints[t] = branch_points(a, t)
    sample.union = np.concatenate([sample.per_tau[t] for t in sample.tau_grid])
    return sample


def _raster_support(grid, a, tau, tol):
    """One tau's raster: its member points, and the (b0, b1) ends of the
    jump-flagged edges that ``union_support`` keeps for bisection."""
    roots = characteristic_roots(grid, a, tau)
    gap = _gap(np.abs(roots))
    b0, b1 = [], []
    # dominance handover along horizontal and vertical edges
    for r, g, gp in ((roots, grid, gap), (roots.transpose(1, 0, 2), grid.T, gap.T)):
        t0 = r[..., 0]
        # a handover is a jump of the dominant root larger than the local move
        jump = np.abs(np.diff(t0, axis=1))
        scale = np.abs(np.diff(g, axis=1)) + np.abs(t0[:, :-1]) * 0.05 + 1e-12
        i, j = np.nonzero(jump > 0.5 * scale)
        ref = r[i, j, :1]   # the dominant root at b0, as _refine_edges takes it
        keep = ((_continued_side(r[i, j], ref) != _continued_side(r[i, j + 1], ref))
                | (np.minimum(gp[i, j], gp[i, j + 1]) < _KEEP_GAP_FACTOR * tol))
        b0.append(g[i[keep], j[keep]])
        b1.append(g[i[keep], j[keep] + 1])
    return grid[gap < tol], np.concatenate(b0), np.concatenate(b1)


def real_support_interval(a, refine_tol=1e-8):
    """For real a above the all-real-branch-point threshold: the union
    support interval [lo, hi] on the real axis.

    The per-tau supports are nested real intervals whose union equals the
    tau = 1/2 one (its branch points are extremal), so membership bisection
    at tau = 1/2, both ends in lockstep, localizes them to refine_tol (each
    end stops moving once within it, or once no double lies strictly between
    its two bounds, so a refine_tol below the spacing of doubles there still
    returns).  a must be finite and refine_tol positive and finite, and
    below the threshold, a^3 < 27/4, two branch points are non-real and the
    support is not an interval: ValueError for each.
    """
    if not (refine_tol > 0 and np.isfinite(refine_tol)):
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol}")
    a = float(a)
    _finite("a", a)
    if a**3 < 27 / 4:
        raise ValueError(f"real support interval needs a^3 >= 27/4, got a = {a}")
    B = 2.0 + abs(a) ** 1.5
    xs = np.linspace(-B, B, 2001)
    inside = xs[support_membership(xs, a, 0.5)]
    if not len(inside):
        raise InsideSupport("no support found on the real axis")
    inner = inside[[0, -1]]
    outer = inner + np.array([-2.0, 2.0]) * (xs[1] - xs[0])
    active = np.ones(2, dtype=bool)
    while True:
        mid = 0.5 * (inner + outer)
        active &= (np.abs(outer - inner) > refine_tol) & (mid != inner) & (mid != outer)
        if not active.any():
            return tuple(mid)
        member = support_membership(mid, a, 0.5)
        inner = np.where(active & member, mid, inner)
        outer = np.where(active & ~member, mid, outer)


def recurrence_roots(tau, k_max=150) -> PointSet:
    """Roots (in beta) of the k_max-th solution polynomial of the frozen
    recurrence with D^(-2)=D^(-1)=0, D^(0)=1, at a = 0.

    The solution polynomial is supported on every third degree, so the roots
    are computed through the cubic substitution from the exact polynomial at
    the rational value tau holds (a float tau is taken as the binary fraction
    it stores); this pins them onto the three rays instead of smearing them
    with rounding noise.  There is no a != 0 route: a float recurrence with
    ``np.roots`` lands a third to nine tenths of the largest root modulus
    off at k_max = 100..150.
    """
    if k_max < 3:
        raise ValueError("k_max must be >= 3")
    if tau in (0, 1):
        pts = np.zeros(k_max, dtype=complex)
    else:
        pts = threefold_roots(_frozen_recurrence(tau, k_max))
    return PointSet(pts)


def _frozen_recurrence(tau, k):
    """Primitive integer form of D_k, the k-th solution polynomial in beta
    of D_k = -beta D_(k-1) + (tau(1-tau))^2 D_(k-3), D_0 = 1, D_-1 = D_-2 = 0.

    With tau = p/q, u = (p(q-p))^2 and v = q^4, E_k = v^floor(k/3) D_k has
    integer coefficients and obeys E_k = -beta v^[3|k] E_(k-1) + u E_(k-3),
    so the recurrence runs in ``intpoly`` with no Fraction arithmetic.
    """
    t = Fraction(tau)
    p, q = t.numerator, t.denominator
    u, v = (p * (q - p)) ** 2, q ** 4
    e3, e2, e1 = [], [], [1]
    for j in range(1, k + 1):
        e = intpoly.neg([0] + (intpoly.scale(e1, v) if j % 3 == 0 else e1))
        e3, e2, e1 = e2, e1, intpoly.add(e, intpoly.scale(e3, u))
    return intpoly.primitive(e1)[0]
