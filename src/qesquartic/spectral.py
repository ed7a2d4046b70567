"""The banded spectral family: matrices, characteristic polynomials, spectra.

The (n+1)x(n+1) matrix has subdiagonal (n, n-1, ..., 1), zero diagonal,
first superdiagonal (a, 2a, ..., na) and second superdiagonal
(2, 6, 12, ..., n(n-1)).  Its characteristic polynomial is always computed
through the 4-term principal-minor recurrence

    D^(k) = -x D^(k-1) - (k-1)(n-k+2) a D^(k-2)
            + (n-k+2)(n-k+3)(k-1)(k-2) D^(k-3),

with D^(-2) = D^(-1) = 0, D^(0) = 1, never by determinant expansion.  At a
given a = (u + i v)/q (a rational, or a double as the dyadic rational it
is) it runs on Gaussian-integer lists in x; only the branching points build
the (x, a) grid.

Spectra: the dense LAPACK eigensolve serves n <= DENSE_EIG_MAX_N = 80.  For
this nonnormal family it is backward stable but not forward accurate: its
relative error reaches 1.2e-1 at n = 75..80, a = (0.5 - 0.5i) n^(2/3), with
the residual check passed.  Above that, eigenvalues are the certified Aberth
roots of the exact charpoly, seeded by the eigenvalues of its balanced
similar matrix; at a = 0 the cubic factor structure x^r g(x^3) serves,
immune to the multiple root at the origin, and Aberth on g starts from the
eigenvalues of one residue-class block of the balanced matrix's cube.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import cache, intpoly, rootfind
from .errors import NonConvergence, TooClose
from .exactpoly import ExactPoly
from .pointset import PointSet, sort_points

DENSE_EIG_MAX_N = 80
EIG_CAP_DEFAULT = 400


def build_matrices(n: int, avals) -> np.ndarray:
    """The family's dense matrices at each a in ``avals``, stacked into an
    (m, n+1, n+1) complex array; n >= 1.  Entry (i, i+1) is (i+1) * a as a
    complex product, so signed zeros come out as in scalar arithmetic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    av = np.asarray(avals, dtype=complex).reshape(-1)
    i = np.arange(n)
    M = np.zeros((len(av), n + 1, n + 1), dtype=complex)
    M[:, i + 1, i] = n - i
    M[:, i, i + 1] = (i + 1) * av[:, None]
    M[:, i[:-1], i[:-1] + 2] = (i[:-1] + 1) * (i[:-1] + 2)
    return M


def build_matrix(n: int, a=0.0) -> np.ndarray:
    """Dense (n+1)x(n+1) matrix of the family: the one-element case of
    ``build_matrices``; n >= 1."""
    return build_matrices(n, [a])[0]


def _minor_step_coeffs(n, k):
    c2 = (k - 1) * (n - k + 2)
    c3 = (n - k + 2) * (n - k + 3) * (k - 1) * (k - 2)
    return c2, c3


def _add_row(cur, row, m, shift):
    """cur[j + shift] += m row[j], cur grown with zeros as needed."""
    cur.extend([0] * (len(row) + shift - len(cur)))
    for j, c in enumerate(row):
        cur[j + shift] += m * c


def charpoly_bivariate(n: int) -> list:
    """det(M - x I) as an integer polynomial in (x, a), via the recurrence:
    row j lists the a-coefficients of x^j, ascending and trimmed."""
    p3, p2, p1 = None, None, [[1]]
    for k in range(1, n + 2):
        c2, c3 = _minor_step_coeffs(n, k)
        new = [[0] for _ in range(len(p1) + 1)]
        for i, row in enumerate(p1):  # -x * D^(k-1)
            _add_row(new[i + 1], row, -1, 0)
        for i, row in enumerate(p2 if c2 else ()):  # -c2 a * D^(k-2)
            _add_row(new[i], row, -c2, 1)
        for i, row in enumerate(p3 if c3 else ()):  # +c3 * D^(k-3)
            _add_row(new[i], row, c3, 0)
        p3, p2, p1 = p2, p1, new
    return [intpoly.trim(row) for row in p1]


def spectral_polynomial(n: int, a) -> ExactPoly:
    """The integer polynomial q^floor((n+1)/2) det(M - x I) in x at a
    rational (int/Fraction) ``a`` = u/q in lowest terms, q > 0: the
    characteristic polynomial itself at an integer a.  It comes from the
    fixed-a recurrence at that a (no bivariate grid is built), scaled as
    ``charpoly_coeffs_mp`` scales it at a double."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(a, (int, Fraction)):
        u, q = a.as_integer_ratio()
        return ExactPoly(_charpoly_at(n, u, 0, q)[0])
    raise TypeError("a must be an exact rational")


def _charpoly_at(n, u, v, q):
    """Gaussian-integer lists (re, im) of the x-coefficients of
    q^floor((n+1)/2) det(M - x I) at a = (u + i v)/q, q > 0.

    The recurrence runs on E^(k) = q^floor(k/2) D^(k): a D^(k-2) enters as
    (u + i v) E^(k-2), x D^(k-1) as s x E^(k-1) with
    s = q^(floor(k/2) - floor((k-1)/2)), and D^(k-3) as s q E^(k-3).  At a
    real a the imaginary lists are not carried; at a = 0 the a-term drops out.
    """
    r3 = i3 = r2 = i2 = None
    r1, i1 = [1], [0]
    for k in range(1, n + 2):
        c2, c3 = _minor_step_coeffs(n, k)
        s = q if k % 2 == 0 else 1
        nr = [0] + [-s * c for c in r1]  # -x * D^(k-1)
        ni = [0] + [-s * c for c in i1] if v else [0]
        if c2 and v:  # -c2 a * D^(k-2) (c2 = 0 at k = 1)
            mu, mv = c2 * u, c2 * v
            for j, (x, y) in enumerate(zip(r2, i2)):
                nr[j] -= mu * x - mv * y
                ni[j] -= mu * y + mv * x
        elif c2 and u:  # the same at a real a
            _add_row(nr, r2, -c2 * u, 0)
        if c3:  # +c3 * D^(k-3) (c3 = 0 at k <= 2)
            _add_row(nr, r3, c3 * q * s, 0)
            _add_row(ni, i3, c3 * q * s, 0)
        r3, i3, r2, i2, r1, i1 = r2, i2, r1, i1, nr, ni
    return r1, i1 + [0] * (len(r1) - len(i1))


def charpoly_coeffs_mp(n: int, a):
    """Exact x-coefficients, ascending, at a (complex) double a = (u + i v)/q,
    q = 2^e: the Gaussian-integer pairs (re, im) of q^floor((n+1)/2)
    det(M - x I), which has the same roots.  The cost grows with the binary
    exponent of a as well as with n, since q^floor((n+1)/2) scales every
    coefficient: at a = 1e-200i and n = 84 they carry 30594 bits.  The
    benchmark's traced pass wraps it by this name; ROADMAP item 5's
    in-package spans rename it."""
    u, v, e = rootfind._exact_point(a)
    return list(zip(*_charpoly_at(n, u, v, 1 << e)))


def _eigs_dense(n, a):
    M = build_matrix(n, a)
    lam, vecs = np.linalg.eig(M)
    # per-pair residual ||(M - lam I) v|| / ||M||
    Mnorm = np.linalg.norm(M, ord=np.inf)
    R = M @ vecs - vecs * lam[None, :]
    res = np.linalg.norm(R, axis=0) / Mnorm
    worst = int(np.argmax(res))
    if res[worst] > 1e-10:
        raise NonConvergence(
            f"eigen residual {res[worst]:.2e} at index {worst}", index=worst
        )
    return lam


def _seed_matrix(n, a):
    """M's balanced form D M D^(-1), d_(i+1)/d_i = r_i = sqrt((i+1)t/(n-i)),
    built from the r_i alone (D's range reaches 1e289 at n = 400).  At
    t = |a| the sub- and first superdiagonal have equal moduli; below
    t = (n/2)^(2/3) the second superdiagonal, growing as 1/t, outgrows them
    at mid-band (to overflow at a tiny |a|), so t = max(|a|, (n/2)^(2/3))."""
    M, i = build_matrix(n, a), np.arange(n)
    r = np.sqrt((i + 1) * max(abs(a), (n / 2) ** (2 / 3)) / (n - i))
    M[i + 1, i] *= r
    M[i, i + 1] /= r
    M[i[:-1], i[:-1] + 2] /= r[:-1] * r[1:]
    return M


def _cube_seed_matrix(n):
    """The deg g x deg g block of _seed_matrix(n, 0)^3 on the indices
    i = r mod 3, r = (n+1) mod 3, whose eigenvalues are the roots xi of the
    cubic factor g.  At a = 0 both bands of M raise the index by 1 mod 3
    (sub: i -> i+1, second super: i+2 -> i), so M^3 keeps each residue
    class, and the class of deg g = floor((n+1)/3) indices carries each xi
    once."""
    M = _seed_matrix(n, 0)
    r = (n + 1) % 3
    c0, c1, c2 = (np.arange((r + j) % 3, n + 1, 3) for j in range(3))
    return M[np.ix_(c0, c2)] @ M[np.ix_(c2, c1)] @ M[np.ix_(c1, c0)]


def _seeds(matrix, d):
    """Its eigenvalues as Aberth starts, or None (Newton-polygon starts) when
    the eigensolve raises or returns a non-finite value or not d values."""
    try:
        lam = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError:
        return None
    return lam if lam.shape == (d,) and np.isfinite(lam).all() else None


def _eigs_poly_general(n, a):
    """Certified Aberth roots of the exact charpoly at complex a (at a = 0,
    of its cubic factor g), from the eigenvalues of _seed_matrix (at a = 0,
    of _cube_seed_matrix), or from Newton-polygon starts when those fail.
    Multiprecision Horner points, eigenvalues of M -> of _seed_matrix: n = 84,
    a = 0.05i, i, 2i 235/244/249 -> 184/189/188, criterion 11 314/330/317 ->
    219/171/194; n = 200, a = 0.05i, i, 10i 1465/1572/2172 -> 547/553/561,
    criterion 11 2738/2597/2707 -> 599/574/594.  With t = |a| throughout,
    a = 1e-200i fails to converge at n = 84.  Taking each root's inclusion
    radius from the sweep that freezes it then cuts criterion 11 to
    134/86/109 at n = 84 and 398/373/393 at n = 200.  At a = 0, Newton
    polygon -> _cube_seed_matrix: n = 81 48 -> 27, n = 200 707 -> 67,
    n = 400 3837 -> 226 (774 and 3970 before the radii change)."""
    if a == 0:
        return rootfind.threefold_roots(list(spectral_polynomial(n, 0).coeffs),
                                        init=_seeds(_cube_seed_matrix(n), (n + 1) // 3))
    return rootfind.aberth_roots(charpoly_coeffs_mp(n, a),
                                 init=_seeds(_seed_matrix(n, a), n + 1))


def _a_token(a: complex) -> str:
    # shortest round-trip repr: distinct doubles never share a token; x + 0.0
    # turns -0.0 into 0.0, so -2j and complex(0, -2) share one entry
    s = "_".join(repr(x + 0.0).removesuffix(".0") for x in (a.real, a.imag))
    return s.replace("-", "m").replace(".", "p").replace("+", "")


def eigenvalues(n: int, a=0.0, cache_dir=None) -> PointSet:
    """All n+1 eigenvalues, sorted lexicographically by (Re, Im).

    Above the dense-precision threshold the multiprecision polynomial route
    runs; those spectra (0.05-0.06 s at n = 84, 0.4-0.6 s at n = 200) are
    disk-cached.  a must be finite; n is capped at EIG_CAP_DEFAULT.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EIG_CAP_DEFAULT:
        raise ValueError(f"n={n} exceeds the cap {EIG_CAP_DEFAULT}")
    ac = complex(a)
    if not np.isfinite(ac):
        raise ValueError(f"a must be finite, got {a!r}")
    if n <= DENSE_EIG_MAX_N:
        lam = sort_points(_eigs_dense(n, ac))
    else:
        key = {"a": [ac.real, ac.imag], "schedule": rootfind.DEFAULT_SCHEDULE}
        lam = cache.cached(f"eigs-{_a_token(ac)}", n, key,
                           lambda: sort_points(_eigs_poly_general(n, ac)),
                           cache.Points(n + 1), cache_dir)
    return PointSet(lam)


def scaled_spectrum(n: int, a=0.0, rule="const", cache_dir=None) -> PointSet:
    """Eigenvalues of M at a_n, divided by n^(4/3).

    rule: "const" (a_n = a) or "n23" (a_n = a n^(2/3)).
    """
    if rule == "const":
        an = complex(a)
    elif rule == "n23":
        an = complex(a) * n ** (2.0 / 3.0)
    else:
        raise ValueError(f"unknown scaling rule {rule!r}")
    return eigenvalues(n, an, cache_dir=cache_dir).scaled(n ** (4.0 / 3.0))


def empirical_cauchy(sample: PointSet, z) -> complex:
    """(1/|S|) sum 1/(z - xi) over the point set; z must stay more than 1e-8
    off the points."""
    pts = np.asarray(sample.points if isinstance(sample, PointSet) else sample,
                     dtype=complex)
    if len(pts) == 0:
        raise ValueError("empty point set")
    zc = complex(z)
    d = np.abs(zc - pts)
    if d.min() <= 1e-8:
        raise TooClose(f"z within {d.min():.2e} of a sample point (tol 1e-8)")
    return complex(np.mean(1.0 / (zc - pts)))
