"""Yablonskii-Vorob'ev polynomials, their zero loci, and the rational
solutions of the second Painleve equation built from them.

The sequence starts from YV_0 = 1, YV_1 = t and continues by

    YV_{n+1} = (t YV_n^2 - 4 (YV_n YV_n'' - (YV_n')^2)) / YV_{n-1},

where every division is exact over the integers (enforced, not assumed:
a failed division would falsify the adopted recursion).  deg YV_n is the
triangular number n(n+1)/2 and the coefficient support sits in degrees
congruent to it mod 3, which is what pins the zero locus onto a threefold
symmetric triangular pattern.

The recursion runs on that structure.  With YV_n = t^r g(t^3) and the
identity Y Y'' - Y'^2 = (Y^2)''/2 - 2 Y'^2, the numerator is

    t Y^2 - 2 (Y^2)'' + 8 Y'^2 = t^(2r-2) m(t^3),

where Y^2 = t^(2r) g(t^3)^2 and Y' = t^(r-1) h(t^3), h_k = (r + 3k) g_k.  A
step thus costs the two squarings g^2 and h^2, a third of the length of
YV_n each, and one exact division of m by the g of YV_{n-1} through
``intpoly.div_exact``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cache, intpoly, rootfind
from .errors import NonConvergence, NotDivisible
from .exactpoly import ExactPoly
from .pointset import PointSet, sort_points

ZERO_CAP_DEFAULT = 60
SCALE_CONSTANT = (9 / 2) ** (2 / 3)
# Corner limit: max|zeros of YV_n| / n^(2/3) -> (27/2)^(1/3).  With t = n^(2/3) y
# and u = n^(1/3) U, u'' = 2u^3 + tu + n balances to 2U^3 + yU + 1 = 0, whose
# branch points (the triangle's corners) solve y^3 = -27/2.
CORNER_CONSTANT = (27 / 2) ** (1 / 3)
RESIDUAL_TOL = 1e-10


@dataclass
class YVSequence:
    """YV_0..YV_N as exact integer-coefficient polynomials in t."""

    polys: list

    def __getitem__(self, n: int) -> ExactPoly:
        return self.polys[n]

    def __len__(self):
        return len(self.polys)


_YV = [(1,), (0, 1)]   # YV_0, YV_1, ...: each built once per process, kept


def _yv_int_coeffs(N: int):
    """Coefficient tuples of YV_0..YV_N, extending _YV as far as N."""
    while len(_YV) <= N:
        r, g = intpoly.split_cube(_YV[-1])
        rp, gp = intpoly.split_cube(_YV[-2])
        S = intpoly.mul(g, g)
        h = [(r + 3 * k) * c for k, c in enumerate(g)]
        m = [0] + S                                   # t Y^2
        for k, (s, hh) in enumerate(zip(S, intpoly.mul(h, h))):
            j = 2 * r + 3 * k                         # -2 (Y^2)'' + 8 Y'^2
            m[k] += 8 * hh - 2 * j * (j - 1) * s
        q = intpoly.div_exact(m, gp)
        e = 2 * r - 2 - rp                            # YV_{n+1} = t^e q(t^3)
        y = [0] * (3 * len(q) - 2)
        y[::3] = q
        lo = max(-e, 0)
        if any(y[:lo]):
            raise NotDivisible("quotient has a pole at t = 0")
        _YV.append(tuple([0] * e + y[lo:]))
    return tuple(_YV[: N + 1])


def yv_generate(N: int) -> YVSequence:
    """YV_0..YV_N; raises NotDivisible if the recursion ever fails to divide."""
    if N < 0:
        raise ValueError("N must be >= 0")
    coeffs = _yv_int_coeffs(max(N, 1))
    return YVSequence([ExactPoly(c) for c in coeffs[: N + 1]])


def yv_zeros(n: int, cache_dir=None) -> PointSet:
    """All n(n+1)/2 zeros of YV_n, multiplicity included, sorted by (Re, Im).

    Roots come from the exact cubic-structure factor g (YV_n = t^r g(t^3))
    through rootfind.threefold_roots: Aberth roots of g, mapped back by cube
    roots.  Every root's certificate is its Newton inclusion disk from
    Aberth, which aberth_roots requires to be disjoint from all the others.
    On top of that, a stride sample of about 40 zeros (every zero when
    there are fewer than 80) must pass the scale-aware residual test
    |YV_n(z)| / sum_k |c_k||z|^k < RESIDUAL_TOL; the other zeros are not
    evaluated.  n is capped at ZERO_CAP_DEFAULT.  Large-n zero sets are
    disk-cached.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ZERO_CAP_DEFAULT:
        raise ValueError(f"n={n} exceeds the cap {ZERO_CAP_DEFAULT}")
    if n == 0:
        return PointSet(np.empty(0, complex))

    def compute():
        cs = list(_yv_int_coeffs(n)[n])
        pts = rootfind.threefold_roots(cs)
        _check_residuals(cs, pts)
        return sort_points(pts)

    if n >= 25:
        pts = cache.cached("yv-zeros", n, {"schedule": rootfind.DEFAULT_SCHEDULE},
                           compute, cache.Points(n * (n + 1) // 2), cache_dir)
    else:
        pts = compute()
    return PointSet(pts)


def _check_residuals(cs, pts):
    sample = np.asarray(pts)[:: max(1, len(pts) // 40)]
    res = rootfind.residual_scale_aware(cs, sample)
    if len(res) and res.max() > RESIDUAL_TOL:
        k = int(res.argmax())
        raise NonConvergence(
            f"zero residual {res[k]:.2e} at {sample[k]} exceeds {RESIDUAL_TOL:.1e}"
        )


def scaled_zeros(n: int, cache_dir=None) -> PointSet:
    """Zero locus divided by (9/2)^(2/3) n^(2/3).

    The scaled corner modulus tends to CORNER_CONSTANT / SCALE_CONSTANT =
    (2/3)^(1/3) ~ 0.8736, not to 1.
    """
    return yv_zeros(n, cache_dir=cache_dir).scaled(SCALE_CONSTANT * n ** (2.0 / 3.0))


def painleve_residual(n: int, t) -> float:
    """|u'' - t u - 2u^3 - n| at t.

    u'' comes from differentiating the log-derivative formula analytically
    (with v = p'/p: v' = p''/p - v^2, v'' = p'''/p - 3 v p''/p + 2 v^3), so
    the residual is exact up to float evaluation noise.
    """
    tc = complex(t)
    seq = _yv_int_coeffs(n)
    uv, upp = 0j, 0j
    for poly, sign in ((seq[n - 1], 1.0), (seq[n], -1.0)):
        d1 = intpoly.deriv(poly)
        d2 = intpoly.deriv(d1)
        pv = _horner(poly, tc)
        v = _horner(d1, tc) / pv
        p2 = _horner(d2, tc) / pv
        p3 = _horner(intpoly.deriv(d2), tc) / pv
        uv += sign * v
        upp += sign * (p3 - 3 * v * p2 + 2 * v**3)
    return abs(upp - tc * uv - 2 * uv**3 - n)


def _horner(p, z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc
