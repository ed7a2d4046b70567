"""The banded spectral family: matrices, characteristic polynomials, spectra.

The (n+1)x(n+1) matrix has subdiagonal (n, n-1, ..., 1), zero diagonal,
first superdiagonal (a, 2a, ..., na) and second superdiagonal
(2, 6, 12, ..., n(n-1)).  Its characteristic polynomial is always computed
through the 4-term principal-minor recurrence

    D^(k) = -x D^(k-1) - (k-1)(n-k+2) a D^(k-2)
            + (n-k+2)(n-k+3)(k-1)(k-2) D^(k-3),

with D^(-2) = D^(-1) = 0, D^(0) = 1, never by determinant expansion.  At a
rational a it runs on one coefficient list in x; only the symbolic charpoly
(the branching points, the mpc coefficients at complex a) builds the (x, a)
grid.

Spectra: the dense LAPACK eigensolve serves n <= DENSE_EIG_MAX_N = 80.  For
this nonnormal family it is backward stable but not forward accurate:
against the certified polynomial roots its relative error is <= 1e-13
through n = 74, but up to 1.2e-1 at n = 75..80 for a = (0.5 - 0.5i) n^(2/3),
and it passes the residual check all the same.  Seeding Aberth with the
dense eigenvalues at every n is the pending fix.  Above the threshold,
eigenvalues are the roots of the exact characteristic polynomial by the
staged multiprecision Aberth solver, started from the dense eigenvalues; at
a = 0 the exact cubic factor structure x^r q(x^3) is used, which is both
faster and immune to the multiple root at the origin.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from . import cache, intpoly, rootfind
from .errors import NonConvergence, StructureViolation, TooClose
from .exactpoly import BivariatePoly, ExactPoly
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


@lru_cache(maxsize=32)
def charpoly_bivariate(n: int) -> BivariatePoly:
    """det(M - x I) as an integer polynomial in (x, a), via the recurrence."""
    p3, p2, p1 = None, None, [[1]]
    for k in range(1, n + 2):
        c2, c3 = _minor_step_coeffs(n, k)
        new = [[0] for _ in range(len(p1) + 1)]
        for i, row in enumerate(p1):  # -x * D^(k-1)
            cur = new[i + 1]
            while len(cur) < len(row):
                cur.append(0)
            for j, c in enumerate(row):
                cur[j] -= c
        if p2 is not None and c2:  # -c2 a * D^(k-2)
            for i, row in enumerate(p2):
                cur = new[i]
                while len(cur) < len(row) + 1:
                    cur.append(0)
                for j, c in enumerate(row):
                    cur[j + 1] -= c2 * c
        if p3 is not None and c3:  # +c3 * D^(k-3)
            for i, row in enumerate(p3):
                cur = new[i]
                while len(cur) < len(row):
                    cur.append(0)
                for j, c in enumerate(row):
                    cur[j] += c3 * c
        p3, p2, p1 = p2, p1, new
    return BivariatePoly(p1, x_name="lambda", a_name="a")


def spectral_polynomial(n: int, a=None):
    """Characteristic polynomial det(M - x I).

    With ``a=None`` returns the exact BivariatePoly in (x, a); with a rational
    (int/Fraction) ``a`` returns the exact ExactPoly in x, from the same
    recurrence run on one integer coefficient list at that a (no bivariate
    grid is built).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a is None:
        return charpoly_bivariate(n)
    if isinstance(a, (int, Fraction)):
        return _charpoly_at(n, Fraction(a))
    raise TypeError("a must be None (symbolic) or an exact rational")


def _charpoly_at(n, a):
    """det(M - x I) at the rational a, as an ExactPoly in x.

    With a = p/q the recurrence runs on the integer lists
    E^(k) = q^floor(k/2) D^(k): a D^(k-2) enters as p E^(k-2), x D^(k-1) as
    s x E^(k-1) with s = q^(floor(k/2) - floor((k-1)/2)), and D^(k-3) as
    s q E^(k-3).  At an integer a every power of q is 1, and at a = 0 the
    a-term drops out.
    """
    p, q = a.numerator, a.denominator
    e3, e2, e1 = None, None, [1]
    for k in range(1, n + 2):
        c2, c3 = _minor_step_coeffs(n, k)
        s = q if k % 2 == 0 else 1
        new = [0] + [-s * c for c in e1]  # -x * D^(k-1)
        if e2 is not None and c2 and p:  # -c2 a * D^(k-2)
            m = c2 * p
            for i, c in enumerate(e2):
                new[i] -= m * c
        if e3 is not None and c3:  # +c3 * D^(k-3)
            m = c3 * q * s
            for i, c in enumerate(e3):
                new[i] += m * c
        e3, e2, e1 = e2, e1, new
    return ExactPoly._make(e1, q ** ((n + 1) // 2), "lambda")


def charpoly_coeffs_mp(n: int, a, dps: int = 60):
    """x-coefficients at a complex a, as exact-int-combination mpc values."""
    biv = charpoly_bivariate(n)
    with mp.workdps(dps + 10):
        av = mp.mpc(complex(a))
        out = []
        for row in biv.grid:
            acc = mp.mpc(0)
            for c in reversed(row):
                acc = acc * av + c
            out.append(acc)
    return out


def zero_a_structure(n: int):
    """(r, q_int) with det(M - x I)|_{a=0} = (-1)^(n+1) x^r q(x^3), q monic.

    The integer list q_int is ascending in xi = x^3; raises StructureViolation
    if any coefficient sits outside the x^(3j+r) support, r = (n+1) mod 3.
    """
    r, g = intpoly.split_cube(spectral_polynomial(n, 0).num)
    if r != (n + 1) % 3:
        raise StructureViolation(
            f"lowest degree {r} for n={n} (expected {(n + 1) % 3} mod 3)"
        )
    sign = (-1) ** (n + 1)
    return r, [sign * c for c in g]


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


def _mp_dps(n):
    return 40 + int(0.6 * n)


def _eigs_poly_general(n, a):
    """Roots of the charpoly at complex a by Aberth at 40 + 0.6 n digits.

    At a = 0 the roots come from the exact cubic factor structure instead.
    The dense eigenvalues seed the iteration.  Above the dense threshold they
    can be far off (3e-2 to 1.4 of max|lambda| at n = 84..200), yet from
    them Aberth makes 21-39% of the polynomial evaluations that it makes
    from Newton-polygon starts (n = 84 and 200 at the three criterion-11
    parameters).  Newton-polygon starts remain the fallback when the
    eigensolve fails or returns non-finite values.  The roots carry the
    disjoint-inclusion-disk certificate either way.
    """
    if a == 0:
        return rootfind.threefold_roots(spectral_polynomial(n, 0).num)
    cs = charpoly_coeffs_mp(n, a, dps=_mp_dps(n))
    try:
        seed = np.linalg.eigvals(build_matrix(n, a))
    except np.linalg.LinAlgError:
        seed = None
    if seed is not None and not np.isfinite(seed).all():
        seed = None
    return rootfind.aberth_roots(cs, init=seed, check_sum=False)


def _a_token(a: complex) -> str:
    # shortest round-trip repr: distinct doubles never share a token; x + 0.0
    # turns -0.0 into 0.0, so -2j and complex(0, -2) share one entry
    s = "_".join(repr(x + 0.0).removesuffix(".0") for x in (a.real, a.imag))
    return s.replace("-", "m").replace(".", "p").replace("+", "")


def eigenvalues(n: int, a=0.0, cache_dir=None) -> PointSet:
    """All n+1 eigenvalues, sorted lexicographically by (Re, Im).

    Above the dense-precision threshold the multiprecision polynomial route
    runs; those spectra (0.07-0.09 s at n = 84, 1-2.4 s at n = 200) are
    disk-cached.  a must be finite; n is capped at EIG_CAP_DEFAULT.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EIG_CAP_DEFAULT:
        raise ValueError(f"n={n} exceeds the cap {EIG_CAP_DEFAULT}")
    ac = complex(a)
    if not np.isfinite(ac):
        raise ValueError(f"a must be finite, got {a!r}")
    a_pair = [ac.real, ac.imag]
    if n <= DENSE_EIG_MAX_N:
        lam = sort_points(_eigs_dense(n, ac))
    else:
        key = {"a": a_pair, "dps": _mp_dps(n), "schedule": rootfind.DEFAULT_SCHEDULE}
        lam = cache.cached(f"eigs-{_a_token(ac)}", n, key,
                           lambda: sort_points(_eigs_poly_general(n, ac)),
                           cache.Points(n + 1), cache_dir)
    return PointSet(lam, label=f"spectrum n={n}", meta={"n": n, "a": a_pair})


def scaled_spectrum(n: int, a=0.0, rule="const", cache_dir=None) -> PointSet:
    """Eigenvalues of M at a_n, divided by n^(4/3).

    rule: "const" (a_n = a), "n23" (a_n = a n^(2/3)), or a callable n -> a_n.
    """
    if callable(rule):
        an = complex(rule(n))
    elif rule == "const":
        an = complex(a)
    elif rule == "n23":
        an = complex(a) * n ** (2.0 / 3.0)
    else:
        raise ValueError(f"unknown scaling rule {rule!r}")
    ps = eigenvalues(n, an, cache_dir=cache_dir)
    factor = n ** (4.0 / 3.0)
    out = ps.scaled(factor, label=f"scaled spectrum n={n}")
    out.meta = {"n": n, "a_n": [an.real, an.imag], "rule": rule if isinstance(rule, str) else "callable",
                "a": [complex(a).real, complex(a).imag], "scaling": "n^(4/3)"}
    return out


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
