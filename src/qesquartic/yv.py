"""Yablonskii-Vorob'ev polynomials, their zero loci, and the rational
solutions of the second Painleve equation built from them.

The sequence starts from YV_0 = 1, YV_1 = t and continues by

    YV_{n+1} = (t YV_n^2 - 4 (YV_n YV_n'' - (YV_n')^2)) / YV_{n-1},

where every division is exact over the integers (enforced, not assumed:
a failed division would falsify the adopted recursion).  deg YV_n is the
triangular number n(n+1)/2 and the coefficient support sits in degrees
congruent to it mod 3, which is what pins the zero locus onto a threefold
symmetric triangular pattern.

The recursion runs on that structure, in the scaled variable s = t/4^(1/3).
With T_n = n(n+1)/2, P_n(s) = 4^(-T_n/3) YV_n(4^(1/3) s) has integer
coefficients and satisfies

    P_{n+1} P_{n-1} = s P_n^2 - (P_n P_n'' - P_n'^2).

With YV_n = t^r g(t^3) and d = deg g, the t^(r+3k) coefficient g_k is a
multiple of 4^(d-k), and P_n = s^r G(s^3) with G_k = g_k / 4^(d-k): each
step shifts the g of the two previous members right by 2(d-k) bits
(``NotDivisible`` if a set bit would be lost), runs the recursion on G and
shifts the quotient back, so members are kept, cached and returned in t.
The scaling absorbs the recursion's factor 4, whose powers in t only pad
the low coefficients: the shifts drop 18% of all coefficient bits at
n = 30 (the largest coefficient of YV_28's g has 1265 bits, of its G 997),
every product and the division run on the shorter G, and the divisor G is
monic.  With P P'' - P'^2 = (P^2)''/2 - 2 P'^2, the numerator is

    s P^2 - (P^2)''/2 + 2 P'^2 = s^(2r-2) m(s^3),

where P^2 = s^(2r) G(s^3)^2 and P' = s^(r-1) H(s^3), H_k = (r + 3k) G_k.  A
step thus costs the two squarings G^2 and H^2, a third of the length of
YV_n each, and one exact division of m by the G of YV_{n-1} through
``intpoly.div_exact``.

Every member from YV_2 on is a disk-cache entry ("yv-poly", n): a call
loads it instead of repeating the step, after checking its degree and the
recursion identity against the two members before it (``recurrence_holds``).
An entry that fails either check is recomputed and overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cache, intpoly, rootfind
from .errors import NonConvergence, NotDivisible
from .exactpoly import ExactPoly
from .pointset import PointSet, sort_points

ZERO_CAP_DEFAULT = 60
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


# The recursion identity is checked on load at this point, modulo this prime.
IDENTITY_T = 1_000_003
IDENTITY_PRIME = 2**61 - 1


def _step(y1, y2):
    """YV_n from YV_{n-1} = y1 and YV_{n-2} = y2, as a coefficient tuple in t;
    the step itself runs in s (see the module docstring)."""
    r, g = _s_form(y1)
    rp, gp = _s_form(y2)
    S = intpoly.mul(g, g)
    h = [(r + 3 * k) * c for k, c in enumerate(g)]
    m = [0] + S                                   # s P^2
    for k, (s, hh) in enumerate(zip(S, intpoly.mul(h, h))):
        j = 2 * r + 3 * k                         # -(P^2)''/2 + 2 P'^2
        m[k] += 2 * hh - j * (j - 1) // 2 * s
    q = intpoly.div_exact(m, gp)
    d = len(q) - 1
    e = 2 * r - 2 - rp               # YV_n = t^e g(t^3), g_k = 4^(d-k) q_k
    y = [0] * (3 * d + 1)
    y[::3] = [c << 2 * (d - k) for k, c in enumerate(q)]
    lo = max(-e, 0)
    if any(y[:lo]):
        raise NotDivisible("quotient has a pole at t = 0")
    return tuple([0] * e + y[lo:])


def _s_form(y):
    """(r, G) with YV_n = t^r g(t^3) and G_k = g_k / 4^(d-k), d = deg g: the
    s-form P_n = s^r G(s^3).  Raises NotDivisible if a G_k is not integral."""
    r, g = intpoly.split_cube(y)
    d = len(g) - 1
    G = []
    for k, c in enumerate(g):
        sh = 2 * (d - k)
        if c & ((1 << sh) - 1):
            raise NotDivisible(f"t^{r + 3 * k} coefficient not divisible by 4^{d - k}")
        G.append(c >> sh)
    return r, G


def _jet(p):
    """(p, p', p'') at IDENTITY_T modulo IDENTITY_PRIME, in one Horner pass."""
    t, m = IDENTITY_T, IDENTITY_PRIME
    v = v1 = h2 = 0                       # h2 accumulates p''/2
    for c in reversed(p):
        h2 = (h2 * t + v1) % m
        v1 = (v1 * t + v) % m
        v = (v * t + c) % m
    return v, v1, 2 * h2 % m


def _identity_holds(jet, jet1, jet2) -> bool:
    """The recursion identity of recurrence_holds on the three members' jets."""
    v, v1, v2 = jet1
    return (jet[0] * jet2[0] - IDENTITY_T * v * v
            + 4 * (v * v2 - v1 * v1)) % IDENTITY_PRIME == 0


def recurrence_holds(y, y1, y2) -> bool:
    """YV_n YV_{n-2} = t YV_{n-1}^2 - 4 (YV_{n-1} YV_{n-1}'' - YV_{n-1}'^2) at
    t = IDENTITY_T modulo IDENTITY_PRIME, for y, y1, y2 = YV_n, YV_{n-1},
    YV_{n-2}.  One evaluation of an exact identity: a member that fails it is
    wrong, one that passes agrees with the recursion at that point."""
    return _identity_holds(_jet(y), _jet(y1), _jet(y2))


def _yv_int_coeffs(N: int, cache_dir=None):
    """Coefficient tuples of YV_0..YV_N.

    Members from YV_2 on go through the disk cache; an entry is served only
    if it has the member's degree and passes recurrence_holds against the
    two members before it.  Each member's jet is computed at most once, when
    a check first needs it, and serves the checks of the next two members."""
    ys, jets = [(1,), (0, 1)], {}

    def jet_of(k):
        if k not in jets:
            jets[k] = _jet(ys[k])
        return jets[k]

    def check(c, n):
        j = _jet(c)
        if not _identity_holds(j, jet_of(n - 1), jet_of(n - 2)):
            return False
        jets[n] = j                       # c is the member served
        return True

    for n in range(2, N + 1):
        y1, y2 = ys[-1], ys[-2]
        codec = cache.IntPoly(n * (n + 1) // 2, lambda c: check(c, n))
        ys.append(tuple(cache.cached("yv-poly", n, {}, lambda: _step(y1, y2),
                                     codec, cache_dir)))
    return tuple(ys[: N + 1])


def yv_generate(N: int, cache_dir=None) -> YVSequence:
    """YV_0..YV_N; raises NotDivisible if the recursion ever fails to divide.

    Members YV_n with n >= 2 are disk-cached, one entry per n; a loaded
    member has passed its degree check and recurrence_holds.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    coeffs = _yv_int_coeffs(max(N, 1), cache_dir)
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
    evaluated.  n is capped at ZERO_CAP_DEFAULT.  Zero sets are
    disk-cached.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ZERO_CAP_DEFAULT:
        raise ValueError(f"n={n} exceeds the cap {ZERO_CAP_DEFAULT}")
    if n == 0:
        return PointSet(np.empty(0, complex))

    def compute():
        cs = list(_yv_int_coeffs(n, cache_dir)[n])
        pts = rootfind.threefold_roots(cs)
        _check_residuals(cs, pts)
        return sort_points(pts)

    return PointSet(cache.cached(
        "yv-zeros", n, {"schedule": rootfind.DEFAULT_SCHEDULE}, compute,
        cache.Points(n * (n + 1) // 2), cache_dir))


def _check_residuals(cs, pts):
    sample = np.asarray(pts)[:: max(1, len(pts) // 40)]
    res = rootfind.residual_scale_aware(cs, sample)
    if len(res) and res.max() > RESIDUAL_TOL:
        k = int(res.argmax())
        raise NonConvergence(
            f"zero residual {res[k]:.2e} at {sample[k]} exceeds {RESIDUAL_TOL:.1e}"
        )


def painleve_residual(n: int, t, cache_dir=None) -> float:
    """|u'' - t u - 2u^3 - n| at t, for u = (log YV_{n-1}/YV_n)'.

    u'' comes from differentiating the log-derivative formula analytically
    (with v = p'/p: v' = p''/p - v^2, v'' = p'''/p - 3 v p''/p + 2 v^3), so
    the residual is exact up to float evaluation noise.  The ratios p'/p,
    p''/p' and p'''/p'' come from rootfind's fixed-point Horner pass on p,
    p' and p'', and only they are rounded to doubles: the coefficients of
    YV_n are wider than a double's range from n = 26 on.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    tc = complex(t)
    point = rootfind._exact_point(tc)
    seq = _yv_int_coeffs(n, cache_dir)
    uv, upp = 0j, 0j
    for poly, sign in ((seq[n - 1], 1.0), (seq[n], -1.0)):
        d1 = intpoly.deriv(poly)
        v, r1, r2 = (_log_deriv(q, point) for q in (poly, d1, intpoly.deriv(d1)))
        p2 = r1 * v
        p3 = r2 * p2
        uv += sign * v
        upp += sign * (p3 - 3 * v * p2 + 2 * v**3)
    return abs(upp - tc * uv - 2 * uv**3 - n)


def _log_deriv(p, point) -> complex:
    """p'/p at point = (zr, zi, e) of rootfind._exact_point, from one
    fixed-point Horner pass at 30 digits; zero for the zero polynomial."""
    if not p:
        return 0j
    cfix, _ = rootfind._fixed_coeffs(p, 30)
    return 1 / rootfind._newton_ratio(*rootfind._horner(cfix, [point])[0])
