"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares an algorithm with the package paths it checks: the
Sylvester determinant is expanded by hand-style elimination over Fractions,
determinants come from permutation-free cofactor recursion on dense lists,
products are schoolbook convolutions, the Yablonskii-Vorob'ev recursion runs
on full polynomials in t (the package runs it on the cube-structure factor)
and its identity check evaluates built derivative polynomials (the package
carries a polynomial and its derivatives through one Horner pass),
the resultant over Z[a] is one
fraction-free elimination on a Sylvester matrix of polynomials (the package
interpolates it modulo primes instead; on constant rows it checks the
package's integer subresultant PRS), root counting falls back to numpy
with wide margins, and polynomial arithmetic, evaluation and the frozen
recurrence run per coefficient over Fractions (the package runs them on
integer lists), and eigenvalue tracking and set matching
use scipy's optimal assignment solver (the package matches nearest
neighbours and certifies that the match is the optimal one), as does the
minimum spanning tree (the package runs Prim's algorithm).  Tracking also
runs as a walk along the path, one frame and one eigensolve at a time (the
package refines all intervals of a bisection level together), and the
standard hook is evaluated one scalar t at a time by Python branches (the
package selects among its segments over an array of t).  Spectra at complex
a start Aberth from Newton-polygon guesses on the mpc values of the
bivariate grid at that a, scaled exactly to Gaussian integers (the package
seeds it with the eigenvalues of the balanced matrix and runs the
recurrence on Gaussian integers).
Horizontal trajectories evaluate the direction field five times per RK4
step (the package carries a step's last value into the next step), and the
branch with Psi/beta -> -1 of the characteristic cubic is continued along
a ray from infinity, one radius per ``cubic_roots`` call (the package takes
the dominant root, which is that branch off the supports).  The two ends
of the real support interval are bisected one after the other, one scalar
membership test per step (the package bisects both in lockstep).  The
union support solves the raster of every tau and bisects every
jump-flagged edge of it, one tau at a time (the package solves each
distinct tau(1 - tau) once, keeps only the edges that can hold a support
point and bisects those of all taus together).
The horizontality residual that measures how closely a traced polyline
follows a horizontal trajectory lives only here.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from qesquartic import bkw, intpoly, quaddiff, yv
from qesquartic.errors import CollisionUnresolved, StallNearTurningPoint
from qesquartic.rootfind import aberth_roots, cubic_roots
from qesquartic.spectral import build_matrix, charpoly_bivariate


def dense_det_fraction(M):
    """Cofactor-expansion determinant of a small matrix of Fractions."""
    m = len(M)
    if m == 0:
        return Fraction(1)   # the empty 0x0 matrix (two constants)
    if m == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(m):
        if M[0][j] == 0:
            continue
        sub = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * dense_det_fraction(sub)
        total += term if j % 2 == 0 else -term
    return total


def sylvester_matrix(p, q, zero):
    """Sylvester matrix of p, q (ascending coefficient lists): p's
    coefficients in the top rows, descending powers, ``zero`` elsewhere."""
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    M = [[zero] * n for _ in range(n)]
    for i in range(dq):
        for j, c in enumerate(reversed(p)):
            M[i][i + j] = c
    for i in range(dp):
        for j, c in enumerate(reversed(q)):
            M[dq + i][i + j] = c
    return M


def sylvester_det_by_hand(p, q):
    """Resultant as the cofactor determinant of the Sylvester matrix."""
    if not (p and q):
        return Fraction(0)   # a zero polynomial
    return dense_det_fraction(sylvester_matrix(
        [Fraction(c) for c in p], [Fraction(c) for c in q], Fraction(0)))


def grid_degrees(grid):
    """(x-degree, a-degree, total degree) of an (x, a) grid whose row j
    lists the a-coefficients of x^j; -1 for the zero polynomial."""
    terms = [(j, k) for j, row in enumerate(grid) for k, c in enumerate(row) if c]
    return (max((j for j, _ in terms), default=-1),
            max((k for _, k in terms), default=-1),
            max((j + k for j, k in terms), default=-1))


def grid_derivative_x(grid):
    """d/dx of an (x, a) grid, row by row."""
    return [[j * c for c in row] for j, row in enumerate(grid)][1:]


def horizontality_residual(path, a, L):
    """max |Im(P dT^2)| / |P dT^2| along a polyline: zero on an exact
    horizontal trajectory of P(T) dT^2, P = quaddiff.quartic_value."""
    path = np.asarray(path)
    if len(path) < 3:
        return 0.0
    dT = np.diff(path)
    mid = 0.5 * (path[:-1] + path[1:])
    v = quaddiff.quartic_value(mid, complex(a), complex(L)) * dT * dT
    good = np.abs(v) > 0
    if not good.any():
        return 0.0
    return float(np.max(np.abs(v[good].imag) / np.abs(v[good])))


def sylvester_resultant_poly(p_rows, q_rows):
    """Res_x of two polynomials in x with Z[a] coefficients.

    ``p_rows[j]`` is the x^j coefficient as an ascending int list in a (a
    ``spectral.charpoly_bivariate`` grid).  The Sylvester determinant is
    eliminated fraction-free (Bareiss) with exact divisions in Z[a]; returns
    the ascending int coefficients in a.
    """
    if not (p_rows and q_rows):
        return []            # a zero polynomial
    M = sylvester_matrix(p_rows, q_rows, [])
    n = len(M)
    if n == 0:
        return [1]           # the empty 0x0 matrix (two constants)
    sign, prev = 1, [1]
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((r for r in range(k + 1, n) if M[r][k]), None)
            if swap is None:
                return []
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = intpoly.add(intpoly.mul(M[i][j], M[k][k]),
                                intpoly.neg(intpoly.mul(M[i][k], M[k][j])))
                M[i][j] = intpoly.div_exact(t, prev)
            M[i][k] = []
        prev = M[k][k]
    return M[-1][-1] if sign == 1 else intpoly.neg(M[-1][-1])


def schoolbook_mul(p, q):
    """Product of two ascending int coefficient lists, trailing zeros trimmed."""
    r = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            r[i + j] += a * b
    while r and r[-1] == 0:
        r.pop()
    return r


def yv_tform(N):
    """YV_0..YV_N as ascending int tuples, by the recursion on full polynomials
    in t, YV_(n+1) = (t YV_n^2 - 4 (YV_n YV_n'' - YV_n'^2)) / YV_(n-1), with
    schoolbook products (the package squares the cube-structure factor g of
    YV_n = t^r g(t^3) instead)."""
    ys = [[1], [0, 1]]
    while len(ys) <= N:
        Y, prev = ys[-1], ys[-2]
        d1 = intpoly.deriv(Y)
        d2 = intpoly.deriv(d1)
        wron = intpoly.add(schoolbook_mul(Y, d2), intpoly.neg(schoolbook_mul(d1, d1)))
        num = intpoly.add(schoolbook_mul([0, 1], schoolbook_mul(Y, Y)),
                          intpoly.scale(wron, -4))
        ys.append(intpoly.div_exact(num, prev))
    return [tuple(y) for y in ys[: N + 1]]


def recurrence_holds_five_eval(y, y1, y2):
    """``yv.recurrence_holds`` by five evaluations mod IDENTITY_PRIME: YV_n,
    YV_(n-2), and YV_(n-1) with its two derivatives built as polynomials (the
    package evaluates a polynomial and its derivatives in one Horner pass)."""
    t, m = yv.IDENTITY_T, yv.IDENTITY_PRIME
    d1 = intpoly.deriv(y1)
    v, v1, v2 = (intpoly.eval_mod(p, t, m) for p in (y1, d1, intpoly.deriv(d1)))
    lhs = intpoly.eval_mod(y, t, m) * intpoly.eval_mod(y2, t, m)
    return (lhs - t * v * v + 4 * (v * v2 - v1 * v1)) % m == 0


def painleve_residual_mp(n, t, dps=50):
    """|u'' - t u - 2u^3 - n| at t for u = YV_{n-1}'/YV_{n-1} - YV_n'/YV_n,
    in mpmath at dps digits: the members from ``yv_tform``, u'' by mpmath's
    numerical differentiation of u (the package differentiates analytically)."""
    ys = yv_tform(n)
    with mp.workdps(dps):
        def u(x):
            out = mp.mpc(0)
            for y, sign in ((ys[n - 1], 1), (ys[n], -1)):
                p, dp = mp.polyval(list(reversed(y)), x, derivative=True)
                out += sign * dp / p
            return out

        x = mp.mpc(t)
        v = u(x)
        return float(abs(mp.diff(u, x, 2) - x * v - 2 * v**3 - n))


def numpy_real_root_count(coeffs, lo, hi, imag_tol=1e-7):
    """Real roots of an integer poly in (lo, hi], via numpy with margins."""
    cs = [float(c) for c in coeffs]
    roots = np.roots(cs[::-1])
    count = 0
    for r in roots:
        if abs(r.imag) < imag_tol and lo < r.real <= hi:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Fraction-list polynomials (ascending, trailing zeros trimmed): the plain
# per-coefficient arithmetic that intpoly's integer kernel is checked on
# ---------------------------------------------------------------------------

def frac_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def frac_add(p, q, sign=1):
    n = max(len(p), len(q))
    return frac_trim([(p[i] if i < len(p) else 0) + sign * (q[i] if i < len(q) else 0)
                      for i in range(n)])


def frac_mul(p, q):
    r = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            r[i + j] += a * b
    return frac_trim(r)


def frac_horner(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def bivariate_at(grid, a):
    """Fraction x-coefficients of a bivariate grid (row j: the a-polynomial
    of x^j, ascending) at a rational a, row by row."""
    return frac_trim([frac_horner(row, Fraction(a)) for row in grid])


def gaussian_at(grid, re, im):
    """(Re, Im) Fraction pairs of a bivariate grid's x-coefficients at the
    Gaussian rational a = re + i im, row by row, untrimmed."""
    out = []
    for row in grid:
        x, y = Fraction(0), Fraction(0)
        for c in reversed(row):
            x, y = x * re - y * im + c, x * im + y * re
        out.append((x, y))
    return out


def frozen_recurrence_fraction(tau, k):
    """Primitive integer form of D_k from D_k = -beta D_(k-1) + T^2 D_(k-3),
    T = tau(1-tau), D_0 = 1, run over Fractions and cleared by the LCM of
    the denominators."""
    tq = Fraction(tau)
    T2 = (tq * (1 - tq)) ** 2
    p3, p2, p1 = [], [], [Fraction(1)]
    for _ in range(k):
        new = [Fraction(0)] + [-c for c in p1]
        for i, c in enumerate(p3):
            new[i] += T2 * c
        p3, p2, p1 = p2, p1, new
    den = 1
    for c in p1:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return intpoly.primitive([int(c * den) for c in p1])[0]


# ---------------------------------------------------------------------------
# matching by the optimal assignment solver
# ---------------------------------------------------------------------------

def track_path_lsa(n, func, steps=256, refine_factor=0.3, max_frames=200_000):
    """Eigenvalue tracking matched by optimal assignment between frames:
    (permutation, frames, min_gap) with the package's step rule, halving a
    step whose assignment moves an eigenvalue by more than refine_factor
    times the smallest gap of the new frame (unless below 1e-13 of the
    spectral scale)."""
    ts = list(np.round(np.linspace(0.0, 1.0, steps + 1) * 2.0**40) * 2.0**-40)
    start = np.sort_complex(np.linalg.eigvals(build_matrix(n, func(0.0))))
    cur = start.copy()
    min_gap = math.inf
    frames = 1
    i = 1
    while i < len(ts):
        if len(ts) > max_frames:
            raise CollisionUnresolved("frame budget exhausted")
        new = np.linalg.eigvals(build_matrix(n, func(ts[i])))
        D = np.abs(cur[:, None] - new[None, :])
        ri, ci = linear_sum_assignment(D)
        moved = float(D[ri, ci].max())
        E = np.abs(new[:, None] - new[None, :]) + np.diag([math.inf] * len(new))
        gap = float(E.min())
        if moved > refine_factor * gap and moved > 1e-13 * (1 + np.abs(new).max()):
            if ts[i] - ts[i - 1] < 1e-12:
                raise CollisionUnresolved(f"refinement floor at t={ts[i]:.6f}")
            ts.insert(i, 0.5 * (ts[i - 1] + ts[i]))
            continue
        min_gap = min(min_gap, gap)
        cur = new[ci]
        frames += 1
        i += 1
    D = np.abs(start[:, None] - cur[None, :])
    ri, ci = linear_sum_assignment(D)
    if float(D[ri, ci].max()) > 1e-6 * (1 + float(np.abs(start).max())):
        raise CollisionUnresolved("trace closure failed")
    return tuple(int(c) for c in ci), frames, min_gap


# ---------------------------------------------------------------------------
# frame-by-frame tracking
# ---------------------------------------------------------------------------

def track_path_sequential(n, func, steps=256):
    """Nearest-neighbour tracking one frame at a time, halving a step in
    place and walking on: (permutation, frames, min_gap, traces).  The
    step rule is the package's (0.3 gaps, 1e-13 tiny motion, 1e-12 floor,
    200,000 frames, 1e-6 closure) with the same error messages; the
    package judges all intervals of one bisection level together."""
    def nearest(D):
        ci = D.argmin(axis=1)
        return ci, float(D.min(axis=1).max()), len(set(ci.tolist())) == len(ci)

    ts = list(np.round(np.linspace(0.0, 1.0, steps + 1) * 2.0**40) * 2.0**-40)
    start = np.sort_complex(np.linalg.eigvals(build_matrix(n, func(0.0))))
    cur = start.copy()
    traces = [cur.copy()]
    min_gap = math.inf
    i = 1
    while i < len(ts):
        if len(ts) > 200_000:
            raise CollisionUnresolved("frame budget exhausted")
        new = np.linalg.eigvals(build_matrix(n, func(ts[i])))
        ci, moved, is_perm = nearest(np.abs(cur[:, None] - new[None, :]))
        E = np.abs(new[:, None] - new[None, :])
        np.fill_diagonal(E, math.inf)
        gap = float(E.min())
        if not (moved <= 0.3 * gap and is_perm):
            if moved > 1e-13 * (1 + np.abs(new).max()):
                if ts[i] - ts[i - 1] < 1e-12:
                    raise CollisionUnresolved(
                        f"refinement floor at t={ts[i]:.6f} (gap {gap:.2e})")
                ts.insert(i, 0.5 * (ts[i - 1] + ts[i]))
                continue
            if not is_perm:
                raise CollisionUnresolved(
                    f"coincident eigenvalues match ambiguously (gap {gap:.2e})")
        min_gap = min(min_gap, gap)
        cur = new[ci]
        traces.append(cur.copy())
        i += 1
    ci, closure, is_perm = nearest(np.abs(start[:, None] - cur[None, :]))
    if closure > 1e-6 * (1 + float(np.abs(start).max())) or not is_perm:
        raise CollisionUnresolved(f"trace closure failed: {closure:.2e}")
    return tuple(int(c) for c in ci), len(traces), min_gap, np.array(traces)


# ---------------------------------------------------------------------------
# the standard hook, one scalar t at a time
# ---------------------------------------------------------------------------

def hook_scalar(B, sigma, radius, bump):
    """The package's vertical hook with the same parameters, as a function
    of one scalar t: vertical drop, horizontal (bumped) approach, ccw
    circle, and the run home as the way out at 1 - t."""
    y = sigma.imag
    approach_from = B + 0j
    p0 = complex(B, y)                 # after vertical segment
    p1 = sigma + radius                # approach point, right of sigma

    def horizontal(s):
        z = p0 + (p1 - p0) * s
        return z + 1j * bump * math.sin(math.pi * min(max(s, 0.0), 1.0))

    def func(t):
        t = t % 1.0
        if 0.45 <= t < 0.55:
            s = (t - 0.45) / 0.10
            return sigma + radius * np.exp(2j * np.pi * s)
        if t >= 0.55:
            t = 1 - t
        if t < 0.15:
            s = t / 0.15
            return approach_from + 1j * y * s
        s = (t - 0.15) / 0.30
        return horizontal(s)

    return func


# ---------------------------------------------------------------------------
# horizontal trajectories, five field evaluations per RK4 step
# ---------------------------------------------------------------------------

def trace_horizontal_five_eval(a, L, start, direction, capture_radius, turning,
                               fixed_cap=False):
    """Arc-length RK4 along the horizontal direction field of -P dT^2 that
    evaluates the field afresh at the start of every step.  The largest step
    is H0 max(1, d), d the distance to the nearest turning point, or H0
    itself with ``fixed_cap``."""
    a = complex(a)
    L = complex(L)
    tps = [complex(z) for z, _ in turning]
    cap_r = capture_radius
    esc_r = 10 * math.sqrt(1 + abs(a) + abs(L)) + max(abs(z) for z in tps)
    max_len = 12 * esc_r
    T = complex(start)
    d = complex(direction)
    d /= abs(d)

    def field(Tc, dprev):
        Q = -quaddiff.quartic_value(Tc, a, L)
        if Q == 0:
            return dprev
        u = cmath.exp(-0.5j * cmath.phase(Q))
        return u if (u / dprev).real >= 0 else -u

    path = [T]
    slen = 0.0
    h = quaddiff.H0
    stall = 0
    while slen < max_len:
        dists = [abs(z - T) for z in tps]
        dmin = min(dists)
        if dmin < cap_r and slen > 3 * cap_r:
            k = dists.index(dmin)
            path.append(tps[k])
            return "capture", k, np.asarray(path)
        if abs(T) > esc_r:
            return "escape", None, np.asarray(path)
        k1 = field(T, d)
        k2 = field(T + 0.5 * h * k1, k1)
        k3 = field(T + 0.5 * h * k2, k2)
        k4 = field(T + h * k3, k3)
        step = (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if abs(step) < 1e-14:
            stall += 1
            if stall > 50:
                raise StallNearTurningPoint(f"step collapsed at {T} without capture")
        else:
            stall = 0
        T = T + step
        d = field(T, k4)
        path.append(T)
        slen += abs(step)
        cap = quaddiff.H0 if fixed_cap else quaddiff.H0 * max(1.0, dmin)
        h = min(cap, 0.2 * dmin + 1e-4)
    return "maxlen", None, np.asarray(path)


def critical_graph_five_eval(a, L, fixed_cap=False):
    """Every ray of ``quaddiff.critical_graph`` traced by
    ``trace_horizontal_five_eval``: a list of (result, target, path)."""
    a = complex(a)
    L = complex(L)
    turning = quaddiff.turning_points(a, L)
    tps = np.array([z for z, _ in turning])
    cap_r = 1e-3 * max(np.abs(tps[:, None] - tps[None, :]).max(), 1e-3)
    out = []
    for tp, m in turning:
        for th in quaddiff._local_ray_angles(a, L, tp, m):
            start = tp + 3 * cap_r * np.exp(1j * th)
            out.append(trace_horizontal_five_eval(a, L, start, np.exp(1j * th),
                                                  cap_r, turning, fixed_cap))
    return out


# ---------------------------------------------------------------------------
# branch continuation, one radius per cubic solve
# ---------------------------------------------------------------------------

def psi_branches_per_radius(beta, a, taus):
    """The continued cubic root with Psi/beta -> -1 for every tau, solving
    each radius, planned or inserted, in its own ``cubic_roots`` call.

    Continuation runs along the straight ray arg(z) = arg(beta) from
    |z| = max(10(1+|a|), 2|beta|) down to |beta| in 48 geometric steps, all
    taus in lockstep, each lane taking the root nearest its previous value;
    a midpoint radius is inserted whenever some lane's two nearest roots are
    not cleanly separated, and a lane past 48 insertions raises
    RuntimeError.  Where the ray crosses no tau support, the continued root
    is the dominant one."""
    beta = complex(beta)
    a = complex(a)
    taus = np.asarray(taus, dtype=float)
    T = taus * (1 - taus)
    c, d = a * T, -(T * T)
    phase = beta / abs(beta)
    R0 = max(10.0 * (1 + abs(a)), 2 * abs(beta))
    radii = list(np.geomspace(R0, abs(beta), 48))
    lanes = np.arange(len(T))
    roots = cubic_roots(radii[0] * phase, c, d)
    psi = roots[lanes, np.argmin(np.abs(roots + radii[0] * phase), axis=-1)]
    halvings = np.zeros(len(T), dtype=int)
    prev_rad = radii[0]
    i = 1
    while i < len(radii):
        rad = radii[i]
        roots = cubic_roots(rad * phase, c, d)
        dist = np.abs(roots - psi[:, None])
        near = np.sort(dist, axis=-1)
        ambiguous = near[:, 0] > 0.5 * near[:, 1]
        if ambiguous.any():
            floor = np.flatnonzero(ambiguous & (halvings >= 48))
            if len(floor):
                raise RuntimeError(
                    f"refinement floor at |beta|={rad:.4g} (tau={taus[floor[0]]:.4f})"
                )
            radii.insert(i, 0.5 * (prev_rad + rad))
            halvings += ambiguous
            continue
        psi = roots[lanes, np.argmin(dist, axis=-1)]
        prev_rad = rad
        i += 1
    return psi


# ---------------------------------------------------------------------------
# real support interval, one end after the other
# ---------------------------------------------------------------------------

def real_support_interval_two_loops(a, refine_tol=1e-8):
    """``bkw.real_support_interval`` with each end bisected in its own
    loop of scalar ``support_membership`` tests, the high end first."""
    a = float(a)
    B = 2.0 + abs(a) ** 1.5
    xs = np.linspace(-B, B, 2001)
    inside = xs[bkw._dominance_gap(xs, a, 0.5) < bkw.EQUIMODULAR_TOL]
    step = xs[1] - xs[0]

    def refine(inner, outer):
        while abs(outer - inner) > refine_tol:
            mid = 0.5 * (inner + outer)
            if bkw.support_membership(mid, a, 0.5):
                inner = mid
            else:
                outer = mid
        return 0.5 * (inner + outer)

    hi = refine(inside[-1], inside[-1] + 2 * step)
    lo = refine(inside[0], inside[0] - 2 * step)
    return lo, hi


# ---------------------------------------------------------------------------
# union support, one raster per tau, every flagged edge bisected
# ---------------------------------------------------------------------------

def union_support_per_tau(a, tau_grid, tol=bkw.EQUIMODULAR_TOL):
    """``bkw.union_support``'s (per_tau, endpoints, union) with the raster of
    each tau solved on its own, also where two taus share tau(1 - tau), and
    every jump-flagged raster edge bisected."""
    a = complex(a)
    R = 1.0 + 0.75 * max(1.0, abs(a)) ** 1.5
    side = np.linspace(-R, R, bkw.SUPPORT_GRID_SIZE)
    grid = side[:, None] + 1j * side[None, :]
    per_tau = {t: _support_curve_points(grid, a, t, tol) for t in tau_grid}
    endpoints = {t: bkw.branch_points(a, t) for t in tau_grid}
    union = [per_tau[t] for t in tau_grid]
    return per_tau, endpoints, (np.concatenate(union) if union else
                                np.empty(0, dtype=complex))


def _support_curve_points(grid, a, tau, tol):
    roots = bkw.characteristic_roots(grid, a, tau)
    top = roots[..., 0]
    member = bkw._gap(np.abs(roots)) < tol
    # dominance handover along horizontal and vertical edges
    b0, b1 = [], []
    for t0, g in ((top, grid), (top.T, grid.T)):
        # a handover is a jump of the dominant root larger than the local move
        jump = np.abs(np.diff(t0, axis=1))
        scale = np.abs(np.diff(g, axis=1)) + np.abs(t0[:, :-1]) * 0.05 + 1e-12
        i, j = np.nonzero(jump > 0.5 * scale)
        b0.append(g[i, j])
        b1.append(g[i, j + 1])
    pts = _refine_edges_one_tau(np.concatenate(b0), np.concatenate(b1), a, tau)
    return np.concatenate([grid[member], pts[bkw._dominance_gap(pts, a, tau) < tol]])


def _refine_edges_one_tau(b0, b1, a, tau):
    """Bisect the equimodular-curve crossing on every segment [b0[k], b1[k]]
    at one tau at once, in 36 steps.

    The curve is where the largest-modulus root hands over to another root;
    the handover flips the sign of |r_i| - |r_j| for the continued pair.  The
    root continued is the one nearest the dominant root at b0.
    """
    b0 = np.asarray(b0, dtype=complex)
    r0 = bkw._char_roots(b0, a, tau)
    ref = np.take_along_axis(r0, np.argmax(np.abs(r0), axis=-1)[:, None], axis=-1)

    def top_two_gap(roots):
        j = np.argmin(np.abs(roots - ref), axis=-1)[:, None]
        mods = np.abs(roots)
        mj = np.take_along_axis(mods, j, axis=-1)[:, 0]
        np.put_along_axis(mods, j, -np.inf, axis=-1)
        return mj - mods.max(axis=-1)

    positive = top_two_gap(r0) > 0
    lo, hi = b0, np.asarray(b1, dtype=complex)
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        same = (top_two_gap(bkw._char_roots(mid, a, tau)) > 0) == positive
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def assignment_cost_lsa(pa, pb):
    """Total distance of the optimal assignment between equal-size sets."""
    D = np.abs(np.asarray(pa)[:, None] - np.asarray(pb)[None, :])
    ri, ci = linear_sum_assignment(D)
    return float(D[ri, ci].sum())


def mst_scipy(pts):
    """scipy's minimum spanning tree of the complete distance graph:
    (set of edges (i, j) with i < j, total weight).  csr_matrix drops zero
    distances, so duplicate points are left unjoined."""
    D = np.abs(pts[:, None] - pts[None, :])
    T = minimum_spanning_tree(csr_matrix(D)).toarray()
    i, j = np.nonzero(T)
    edges = {(int(min(a, b)), int(max(a, b))) for a, b in zip(i, j)}
    return edges, float(T.sum())


def charpoly_coeffs_grid_mp(n, a, dps=60):
    """x-coefficients of det(M - x I) at a complex a, as mpc values: each row
    of the bivariate (x, a) grid evaluated by Horner's rule in mpmath at
    dps + 10 digits (the package runs the recurrence at that a on Gaussian
    integers)."""
    with mp.workdps(dps + 10):
        av = mp.mpc(complex(a))
        out = []
        for row in charpoly_bivariate(n):
            acc = mp.mpc(0)
            for c in reversed(row):
                acc = acc * av + c
            out.append(acc)
    return out


def eigs_poly_unseeded(n, a):
    """The charpoly roots at complex a from Newton-polygon starts, on the
    grid's mpc coefficients at 40 + 0.6 n digits, each taken exactly as a
    Gaussian-integer pair at one common power of two (the roots stay)."""
    cs = charpoly_coeffs_grid_mp(n, a, dps=40 + int(0.6 * n))
    parts = [x._mpf_ for c in cs for x in (c.real, c.imag)]   # (sign, man, exp, bc)
    low = min(exp for _, man, exp, _ in parts if man)
    ints = [(-1) ** sign * (int(man) << (exp - low)) if man else 0
            for sign, man, exp, _ in parts]
    return aberth_roots(list(zip(ints[0::2], ints[1::2])))
