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

import math
from dataclasses import dataclass

import numpy as np

from . import intpoly, rootfind
from .errors import NonConvergence, NotDivisible, TooClose
from .exactpoly import ExactPoly
from .pointset import PointSet

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
    return YVSequence(
        [ExactPoly.from_int_coeffs(list(c), "t") for c in coeffs[: N + 1]]
    )


def coefficients_json(N: int) -> dict:
    """All generated members with coefficients as decimal strings."""
    coeffs = _yv_int_coeffs(max(N, 1))
    return {
        "members": [
            {"n": n, "degree": len(cs) - 1, "coeffs": [str(c) for c in cs]}
            for n, cs in enumerate(coeffs[: N + 1])
        ]
    }


def coefficient_support_mod3_ok(n: int) -> bool:
    """Exact check: supp(YV_n) lies in degrees == deg YV_n (mod 3)."""
    cs = _yv_int_coeffs(max(n, 1))[n]
    d = len(cs) - 1
    return all(c == 0 or j % 3 == d % 3 for j, c in enumerate(cs))


def yv_zeros(n: int, cap: int = ZERO_CAP_DEFAULT, residual_tol: float = RESIDUAL_TOL,
             cache_dir=None) -> PointSet:
    """All n(n+1)/2 zeros of YV_n, multiplicity included.

    Roots come from the exact cubic-structure factor g (YV_n = t^r g(t^3))
    through rootfind.threefold_roots: Aberth roots of g, each in its own
    Newton inclusion disk, mapped back by cube roots.  Each returned zero
    passes the scale-aware residual test |YV_n(z)| / sum_k |c_k||z|^k <
    residual_tol.  Large-n zero sets are disk-cached.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise ValueError(f"n={n} exceeds the configured cap {cap}")
    if n == 0:
        return PointSet(np.empty(0, complex), label="YV_0 zeros", meta={"n": 0})
    if n >= 25:
        from . import cache

        pts = cache.decode_points(cache.load("yv-zeros", n, cache_dir),
                                  n * (n + 1) // 2)
        if pts is not None:
            return PointSet(pts, label=f"YV_{n} zeros", meta={"n": n})
    cs = list(_yv_int_coeffs(n)[n])
    pts = rootfind.threefold_roots(cs)
    _check_residuals(cs, pts, residual_tol)
    if n >= 25:
        from . import cache
        from .pointset import sort_points

        pts = sort_points(pts)
        cache.store("yv-zeros", n,
                    {"n": n, "points": cache.encode_points(pts)},
                    cache_dir)
    return PointSet(pts, label=f"YV_{n} zeros", meta={"n": n})


def _check_residuals(cs, pts, tol):
    stride = max(1, len(pts) // 40)
    worst = 0.0
    worst_z = None
    for z in pts[::stride]:
        if z == 0:
            res = 0.0 if cs[0] == 0 else math.inf
        else:
            res = rootfind.residual_scale_aware(cs, z)
        if res > worst:
            worst, worst_z = res, z
    if worst > tol:
        raise NonConvergence(
            f"zero residual {worst:.2e} at {worst_z} exceeds {tol:.1e}"
        )


def scaled_zeros(n: int, cap: int = ZERO_CAP_DEFAULT, cache_dir=None) -> PointSet:
    """Zero locus divided by (9/2)^(2/3) n^(2/3).

    The scaled corner modulus tends to CORNER_CONSTANT / SCALE_CONSTANT =
    (2/3)^(1/3) ~ 0.8736, not to 1.
    """
    ps = yv_zeros(n, cap=cap, cache_dir=cache_dir)
    factor = SCALE_CONSTANT * n ** (2.0 / 3.0)
    out = ps.scaled(factor, label=f"scaled YV_{n} zeros")
    out.meta = {"n": n, "scaling": "(9/2)^(2/3) n^(2/3)"}
    return out


def painleve_rational(n: int, t_samples, pole_tol: float = 1e-6, cache_dir=None):
    """u(t; n) = YV_{n-1}'/YV_{n-1} - YV_n'/YV_n at each sample.

    Raises TooClose when a sample sits within pole_tol of a zero of either
    polynomial (a pole of u).
    """
    if n < 1:
        raise ValueError("n must be >= 1 (u(t;0) = 0 identically)")
    seq = yv_generate(n)
    p, q = seq[n - 1], seq[n]
    dp, dq = p.derivative(), q.derivative()
    zp = (yv_zeros(n - 1, cache_dir=cache_dir).points if n >= 2
          else np.empty(0, complex))
    zq = yv_zeros(n, cache_dir=cache_dir).points
    out = []
    for t in t_samples:
        tc = complex(t)
        dmin = min(
            (np.abs(tc - zp).min() if len(zp) else math.inf),
            (np.abs(tc - zq).min() if len(zq) else math.inf),
        )
        if dmin < pole_tol:
            raise TooClose(f"sample {tc} within {dmin:.2e} of a pole")
        pv, qv = p(tc), q(tc)
        out.append(dp(tc) / pv - dq(tc) / qv)
    return out


def painleve_residual(n: int, t) -> float:
    """|u'' - t u - 2u^3 - n| at t.

    u'' comes from differentiating the log-derivative formula analytically
    (with v = p'/p: v' = p''/p - v^2, v'' = p'''/p - 3 v p''/p + 2 v^3), so
    the residual is exact up to float evaluation noise.
    """
    tc = complex(t)
    seq = yv_generate(n)
    uv, upp = 0j, 0j
    for poly, sign in ((seq[n - 1], 1.0), (seq[n], -1.0)):
        pv = poly(tc)
        v = poly.derivative()(tc) / pv
        p2 = poly.derivative().derivative()(tc) / pv
        p3 = poly.derivative().derivative().derivative()(tc) / pv
        uv += sign * v
        upp += sign * (p3 - 3 * v * p2 + 2 * v**3)
    return abs(upp - tc * uv - 2 * uv**3 - n)
