"""Branching sets: where the spectral polynomial has a multiple eigenvalue.

The discriminant-in-x of the characteristic polynomial is an integer
polynomial in a of degree D = n(n+1)/2; its zero locus is the branching set.
It has the form a^r h(a^3) with r = D mod 3 and deg h = m = D // 3, and it
is computed exactly through h by one CRT-modular route.  Only primes
p = 2 (mod 3) above 2^30 are used: cubing is a bijection mod such a p, so
the nodes xi = 1..m+1 have the cube roots a = xi^((2p-1)/3).  At those a
the resultant of the polynomial and its x-derivative is evaluated by a
vectorized mod-p Euclid (the x-leading coefficients are +-1 and +-(n+1), so
every prime above n+1 is good) and divided by a^r, which gives h at the
consecutive nodes xi; Newton divided differences interpolate h mod p.
Every coefficient is divisible by d = prod_{k<=n} (k!)^2 (`_content_divisor`),
so the images are multiplied by d^-1 mod p and h / d, about half the bits
of h, is lifted by CRT, prime by prime in prime order, until it stabilizes
over two extra primes; the lift times d is returned.  Primes come in
batches: the grid evaluation, the Euclid and the interpolation run on
(primes x nodes) arrays with p as a column.  A prime at which some node
breaks the generic remainder-degree sequence is skipped, and three such
primes in a row raise NonConvergence.  A Hadamard bound B on the
coefficients caps the prime count: images still unstable two primes after
the modulus passes 2 (B // d + 1), as those of a resultant that d does not
divide would be, raise NonConvergence as well.

Exactness is cross-checked, not assumed: the computed polynomial must have
degree exactly n(n+1)/2, and its value at two distinct seeded integer
points above D+1 (which also tests the a^r h(a^3) form) must equal
the Sylvester determinant computed independently over the integers by a
subresultant PRS (``intpoly.sylvester_resultant``).  Results are
disk-cached ({kind}-{n}.json) since large-n resultants are the most
expensive objects in the package; a loaded entry is re-checked modulo a
prime (`_load_check`).  The numeric branching points are disk-cached too,
from yv.POINTS_CACHE_FROM_N on (`sigma_points`).  `triangle_sets`
normalises the conjecture's pair.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import cache, intpoly, rootfind, yv
from .errors import DegreeMismatch, IndexingAmbiguity, NonConvergence
from .exactpoly import ExactPoly
from .pointset import PointSet, sort_points
from .spectral import charpoly_bivariate, spectral_polynomial

SIGMA_CAP_DEFAULT = 40
LOAD_CHECK_PRIME = 2**61 - 1   # the modulus of `_load_check`
# The divisors of `triangle_sets`, each times n^(2/3): sigma_n's and YV_n's.
SCALE_CONSTANT = (27 / 4) ** (1 / 3)   # equals 3/4^(1/3)
YV_SCALE_CONSTANT = (9 / 2) ** (2 / 3)


@dataclass
class BranchSet:
    """Branching points of one n: the numeric roots and their grid indices."""

    n: int
    points: PointSet
    rows: list          # per-point row index (1-based)
    cols: list          # per-point column index (1-based)
    min_margin: float | None   # the smallest peel margin of `_peel_grid`


# ---------------------------------------------------------------------------
# modular machinery
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_SKIPPED_PRIMES = 3
_PRIME_BATCH = 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_2mod3(n: int):
    """Primes p = 2 (mod 3) above both 2^30 and n + 1, ascending."""
    p = max(1 << 30, n + 1) + 1
    p += (5 - p) % 6                     # p = 5 (mod 6): odd and 2 (mod 3)
    while True:
        if _is_prime(p):
            yield p
        p += 6


def _modpow_vec(b, e, p):
    """b^e mod p elementwise; e and p are ints or columns (one per prime row)."""
    b = b % p
    r = np.ones_like(b)
    e = np.asarray(e)
    for _ in range(int(e.max()).bit_length()):
        r = np.where(e & 1, r * b % p, r)
        b = b * b % p
        e = e >> 1
    return r


def _resultants_vector_mod(F, G, p):
    """Res_x(F, G) at many points at once mod p; returns (values, ok_mask).

    F and G hold the x-coefficients, ascending and reduced mod p, along
    their first axis; the remaining axes are (primes, points) with p a
    column of primes.  Each step takes the pseudo-remainder lg^(d+1) f mod g
    (lg the leading coefficient of g, d = deg f - deg g), so it only
    multiplies; the powers of lg this adds make one denominator per point,
    evaluated with shared squarings and inverted once at the end.  Points
    where the generic degree sequence breaks (leading coefficient of a
    remainder vanishing mod p) are flagged; their values are not resultants.

    The remainders are reduced with the truncating np.fmod, which is far
    faster than % on negative numbers, so their residues lie in (-p, p).
    The primes lie just above 2^30, far below 2^30.5, so a sum of three
    products of such residues stays inside int64 and the generic step
    (d = 1) reduces once per coefficient.
    """
    f, g = F, G
    sign = 1
    ok = np.ones(f.shape[1:], dtype=bool)
    lgs, exps = [], []                  # the denominator is prod lgs^exps
    while True:
        df, dg = len(f) - 1, len(g) - 1
        d = df - dg
        lg = g[-1]
        ok &= lg != 0
        if dg == 0:
            res = sign * _modpow_vec(g[0], df, p) % p
            den = np.ones_like(res)
            for bit in range(max(exps, default=0).bit_length() - 1, -1, -1):
                den = den * den % p
                for b, e in zip(lgs, exps):
                    if e >> bit & 1:
                        den = den * b % p
            return res * _modpow_vec(den, p - 2, p) % p, ok
        # pseudo-quotient q: lg^(d+1) f = q g + r (Knuth 4.6.1, Algorithm R)
        lgk = [np.ones_like(lg)]
        for _ in range(d + 1):
            lgk.append(lgk[-1] * lg % p)
        top = f[dg:].copy()
        q = [None] * (d + 1)
        for k in range(d, -1, -1):
            q[k] = top[k] * lgk[k] % p
            top[:k] = (lg * top[:k] - top[k] * g[dg - k : dg]) % p
        r = lgk[d + 1] * f[:dg]
        for k in range(d + 1):
            r[k:] -= q[k] * g[: dg - k]
            if k % 2 or k == d:
                np.fmod(r, p, out=r)
        dr = dg - 1
        while dr > 0 and not r[dr].any():
            dr -= 1
        r = r[: dr + 1]
        if dr == 0 and not r[0].any():
            ok &= False
            return r[0], ok
        # Res(f, g) = (-1)^(df dg) lg^(df - dr) Res(g, r) and
        # Res(g, lg^(d+1) r) = lg^((d+1) dg) Res(g, r)
        if (df * dg) % 2:
            sign = -sign
        lgs.append(lg.copy())           # a view would keep every remainder alive
        exps.append((d + 1) * dg - (df - dr))
        f, g = g, r


def _eval_grid_mod(rows, xi, a, primes):
    """Evaluate each Z[a] coefficient row at the points a, mod each prime.

    a has shape (primes, points) and a^3 = xi at every prime.  The terms of
    a row are grouped by exponent mod 3, a^s P(a^3) = a^s P(xi), so Horner
    runs in xi over a third of the a-degree.  The rows are stacked on a
    first axis.
    """
    p = np.array(primes, dtype=np.int64)[:, None]
    out = np.zeros((len(rows),) + a.shape, dtype=np.int64)
    a_s = np.ones_like(a)
    for s in range(3):
        parts = [row[s::3] for row in rows]
        idx = [j for j, part in enumerate(parts) if any(part)]
        if idx:
            width = max(len(parts[j]) for j in idx)
            grid = np.array([parts[j] + [0] * (width - len(parts[j])) for j in idx],
                            dtype=object)
            coef = np.stack([(grid % q).astype(np.int64) for q in primes], axis=-1)
            acc = np.zeros((len(idx),) + a.shape, dtype=np.int64)
            for k in range(width - 1, -1, -1):
                acc = (acc * xi + coef[:, k, :, None]) % p
            out[idx] += acc * a_s % p
        a_s = a_s * a % p
    return out % p


def _interpolate_mod(vals, p):
    """Monomial coefficients of the degree <= D interpolant mod p through
    the points (j + 1, vals[..., j]), j = 0..D, with p an int or a column.

    The nodes are consecutive integers, so level j of the divided
    differences divides by the scalar j.
    """
    D = vals.shape[-1] - 1
    inv = _modpow_vec(np.arange(1, D + 1, dtype=np.int64), p - 2, p)
    dd = vals % p
    for j in range(1, D + 1):
        dd[..., j:] = (dd[..., j:] - dd[..., j - 1 : -1]) * inv[..., j - 1 : j] % p
    coeffs = np.zeros_like(dd)
    for j in range(D, -1, -1):
        # coeffs <- coeffs * (a - (j + 1)) + dd[j]
        coeffs[..., 1:] = (coeffs[..., :-1] - (j + 1) * coeffs[..., 1:]) % p
        coeffs[..., :1] = (dd[..., j : j + 1] - (j + 1) * coeffs[..., :1]) % p
    return coeffs


def _cube_images(n: int, grid):
    """Yield (p, h mod p) in prime order, where Res_x(Sp, dSp/dx) = a^r h(a^3)
    and ``grid`` is Sp's (x, a) grid, ``charpoly_bivariate(n)``.

    h mod p is None at a prime that some node takes off the generic
    remainder-degree sequence.  Primes come in batches of _PRIME_BATCH.
    """
    D = n * (n + 1) // 2
    r = D % 3
    xi = np.arange(1, D // 3 + 2, dtype=np.int64)
    dx = np.arange(1, len(grid), dtype=np.int64)[:, None, None]  # dSp/dx rows: j F_j
    primes = _primes_2mod3(n)
    while True:
        batch = list(itertools.islice(primes, _PRIME_BATCH))
        p = np.array(batch, dtype=np.int64)[:, None]
        a = _modpow_vec(xi, (2 * p - 1) // 3, p)      # the cube roots of xi
        F = _eval_grid_mod(grid, xi, a, batch)
        vals, ok = _resultants_vector_mod(F, dx * F[1:] % p, p)
        if r:
            vals = vals * _modpow_vec(a, p - 1 - r, p) % p
        coeffs = _interpolate_mod(vals, p)
        for q, good, c in zip(batch, ok.all(axis=1), coeffs):
            yield q, c if good else None


def _resultant_bound(grid) -> int:
    """An integer above every |coefficient| of Res_x(F, dF/dx), F in Z[a][x]
    given by its x-coefficient rows.

    On |a| = 1 each Sylvester entry is at most the 1-norm of its
    a-polynomial, so Hadamard's bound on the matrix of those norms bounds
    |Res(a)| there, and with it every coefficient (Cauchy's estimate).
    """
    norms = [sum(abs(c) for c in row) for row in grid]
    s_f = sum(v * v for v in norms)
    s_df = sum((j * v) ** 2 for j, v in enumerate(norms))
    deg = len(grid) - 1
    return math.isqrt(s_f ** (deg - 1) * s_df ** deg) + 1


def _content_divisor(n: int) -> int:
    """d(n) = prod_{k=1..n} (k!)^2, which divides every coefficient of
    Res_x(Sp, dSp/dx) (checked for n = 1..SIGMA_CAP_DEFAULT)."""
    return math.prod(math.factorial(k) for k in range(1, n + 1)) ** 2


def discriminant_resultant_exact(n: int):
    """Raw integer coefficients (ascending in a) of Res_x(Sp, dSp/dx).

    The CRT lifts R / d, d = `_content_divisor(n)`, from the images times
    d^-1 mod p (d's prime factors are at most n) and returns d times the
    lift.  It stops when the lift is unchanged over two more primes.  Once
    the modulus exceeds 2 (`_resultant_bound` // d + 1) the lift of
    consistent images cannot change, so two further primes without that
    stop raise NonConvergence, as images of an R that d does not divide do.
    """
    D = n * (n + 1) // 2
    r = D % 3
    grid = charpoly_bivariate(n)
    d = _content_divisor(n)
    limit = 2 * (_resultant_bound(grid) // d + 1)
    beyond = 0
    crt_mod = 1
    crt_val = [0] * (D // 3 + 1)
    sym = None
    stable = 0
    skipped = 0
    for p, coeffs in _cube_images(n, grid):
        if coeffs is None:
            skipped += 1
            if skipped >= _MAX_SKIPPED_PRIMES:
                raise NonConvergence(
                    f"{skipped} consecutive primes break the remainder-degree "
                    f"sequence at a node for n={n}"
                )
            continue
        skipped = 0
        if crt_mod > limit:
            beyond += 1
        inv = pow(crt_mod % p, p - 2, p)
        coeffs = coeffs * pow(d % p, p - 2, p) % p      # the images of R / d
        crt_val = [
            v + crt_mod * ((int(c) - v % p) * inv % p)
            for v, c in zip(crt_val, coeffs)
        ]
        crt_mod *= p
        half = crt_mod // 2
        new_sym = [v - crt_mod if v > half else v for v in crt_val]
        if sym is not None and new_sym == sym:
            stable += 1
            if stable >= 2:
                raw = [0] * (D + 1)
                raw[r::3] = [d * v for v in new_sym]
                return raw
        else:
            stable = 0
        if beyond >= 2:
            raise NonConvergence(
                f"CRT lift unstable two primes past the coefficient bound "
                f"({limit.bit_length()} bits) for n={n}"
            )
        sym = new_sym


def _spot_points(n: int):
    """The spot check's two points: distinct, seeded, drawn from D+2..D+49."""
    D = n * (n + 1) // 2
    return random.Random(n).sample(range(D + 2, D + 50), 2)


def _spot_check(n: int, coeffs):
    """Exact verification at the two spot points against the Sylvester
    determinant of the fixed-a charpoly and its x-derivative, by the integer
    subresultant PRS (nothing shared with the CRT route or its grid)."""
    for a0 in _spot_points(n):
        p_at = list(spectral_polynomial(n, a0).coeffs)
        expected = intpoly.sylvester_resultant(p_at, intpoly.deriv(p_at))
        got = intpoly.eval_int(coeffs, a0)
        if expected != got:
            raise NonConvergence(
                f"modular resultant spot check failed at a={a0} for n={n}"
            )


def _load_check(n: int, coeffs) -> bool:
    """The check a cached sigma_n = h passes on load: content 1, a positive
    leading coefficient, and R(a1) h(a2) = R(a2) h(a1) with h(a1), h(a2)
    nonzero modulo LOAD_CHECK_PRIME, R = Res_x(Sp, dSp/dx) at the spot
    points a1, a2.  About 2 ms at n = 25, against 25 ms for `_spot_check`."""
    if coeffs[-1] <= 0 or intpoly.content(coeffs) != 1:
        return False
    m = LOAD_CHECK_PRIME
    vals = []
    for a0 in _spot_points(n):
        p_at = list(spectral_polynomial(n, a0).coeffs)
        vals.append((intpoly.resultant_mod(p_at, intpoly.deriv(p_at), m),
                     intpoly.eval_mod(coeffs, a0, m)))
    (r1, h1), (r2, h2) = vals
    return h1 != 0 and h2 != 0 and (r1 * h2 - r2 * h1) % m == 0


def _check_n(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > SIGMA_CAP_DEFAULT:
        raise ValueError(f"n={n} exceeds the cap {SIGMA_CAP_DEFAULT}")


def sigma_polynomial(n: int, cache_dir=None) -> ExactPoly:
    """Exact branching polynomial in a: content-free, positive leading.

    Degree must come out to exactly n(n+1)/2 (DegreeMismatch otherwise); n is
    capped at SIGMA_CAP_DEFAULT.  A cache entry must pass `_load_check`.
    """
    _check_n(n)
    D = n * (n + 1) // 2

    def compute():
        raw = intpoly.trim(list(discriminant_resultant_exact(n)))
        _spot_check(n, raw)
        prim, _ = intpoly.primitive(raw)
        if len(prim) - 1 != D:
            raise DegreeMismatch(
                f"discriminant degree {len(prim) - 1} != {D} for n={n}"
            )
        return prim

    codec = cache.IntPoly(D, lambda c: _load_check(n, c))
    coeffs = cache.cached("sigma-poly", n, {}, compute, codec, cache_dir)
    return ExactPoly(coeffs)


# ---------------------------------------------------------------------------
# numeric roots and indexing
# ---------------------------------------------------------------------------

# The paper's conjecture gives the branching points and the zeros of YV_n one
# asymptotic shape; point by point, sigma_n's zeros lie near -2^(-1/3) times
# YV_n's.  In the cube variable xi = a^3 that is xi_sigma ~ YV_CUBE_FACTOR xi_YV
# (seed error 3.6e-2 of max|xi| at n = 25).
YV_CUBE_FACTOR = -0.5


def _yv_seeds(near, m):
    """Aberth starts for the m roots of g, sigma_n = a^s g(a^3), from the
    unscaled YV_n zeros: YV_CUBE_FACTOR z^3 for one z of each cube triple,
    the zeros at the origin dropped.  None when the zeros do not give m
    finite, distinct starts.

    Members of a triple share z^3 up to rounding, so they are grouped by
    z^3 rounded to 1e-8 of the largest |z^3|; a group that is not exactly a
    triple means no seed.  (Picking one sector of arg z instead is fragile:
    the cube roots of a negative real xi tie on the sector boundary.)
    """
    z = np.asarray(near, dtype=complex)
    if not np.isfinite(z).all():
        return None
    w = z[z != 0] ** 3
    if len(w) != 3 * m or not m:
        return None
    key = np.round(w / np.abs(w).max(), 8)
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    if len(first) != m or (counts != 3).any():
        return None
    return YV_CUBE_FACTOR * w[np.sort(first)]


def sigma_points(n: int, cache_dir=None, near=None) -> BranchSet:
    """Numeric branching points with (row, column) grid indices.

    ``near``, when given, holds the unscaled zeros of YV_n; Aberth then
    starts from the seeds of `_yv_seeds` in place of Newton-polygon guesses,
    or from those guesses when the zeros give no seed.  Either way the
    roots agree as sets to rounding and pass the same certificates; their
    (Re, Im) order may differ where real parts tie to rounding (at n = 40
    one conjugate pair swaps at indices 500/501).

    From yv.POINTS_CACHE_FROM_N on the sorted points are disk-cached under
    n and the precision schedule: as "sigma-points" from Newton-polygon
    starts, as "sigma-points-yv" from YV seeds, whose key adds the seeds'
    SHA-256.  A hit loads neither sigma_polynomial nor runs Aberth.

    The grid is `_peel_grid`'s.  Columns are counted from the RIGHT (j = 1
    is the single rightmost point; column j holds exactly j points); rows
    run 1..2n - 1 bottom to top, with real points on row n and conjugate
    points on rows summing to 2n.  A peel step that is not clear-cut
    raises IndexingAmbiguity, which no n up to the cap of
    `sigma_polynomial` does.
    """
    _check_n(n)
    D = n * (n + 1) // 2
    # sigma_n = a^r g(a^3) with r = D mod 3 and g(0) != 0 at every n up to
    # the cap, so deg g = D // 3 and the seeds need no polynomial
    init = None if near is None else _yv_seeds(near, D // 3)

    def compute():
        ip = list(sigma_polynomial(n, cache_dir=cache_dir).coeffs)
        return sort_points(rootfind.threefold_roots(ip, init=init))

    if n < yv.POINTS_CACHE_FROM_N:
        pts = compute()
    else:
        kind, key = "sigma-points", {"schedule": rootfind.DEFAULT_SCHEDULE}
        if init is not None:
            kind = "sigma-points-yv"
            key["seeds"] = hashlib.sha256(init.tobytes()).hexdigest()
        pts = cache.cached(kind, n, key, compute, cache.Points(D), cache_dir)
    rows, cols, margin = _peel_grid(n, pts)
    return BranchSet(n=n, points=PointSet(pts), rows=rows, cols=cols,
                     min_margin=margin)


# The smallest peel margin accepted; sigma_n has margins of at least 1.53
# at every n from 3 to 40 (the least at n = 40).
PEEL_MARGIN_MIN = 1.25


def _peel_grid(n, pts):
    """Rows, columns and the smallest peel margin of the n(n+1)/2 points.

    Column 1 is the point with the largest real part; column j + 1 is the
    j + 1 unassigned points nearest to column j, by distance to the set.
    The margin of a step is the (j+2)-th smallest of those distances over
    the (j+1)-th; IndexingAmbiguity is raised when one falls below
    PEEL_MARGIN_MIN.  The smallest margin is None when no step has a
    (j+2)-th candidate (n <= 2).  Rows follow from the columns: column j,
    sorted by imaginary part as k = 1..j, takes the rows n + 2k - j - 1.
    """
    cols = np.zeros(len(pts), dtype=int)
    rows = np.zeros(len(pts), dtype=int)
    cols[np.argmax(pts.real)] = 1
    margins = []
    for j in range(1, n):
        free = np.flatnonzero(cols == 0)
        dist = np.abs(pts[free, None] - pts[None, cols == j]).min(axis=1)
        order = np.argsort(dist, kind="stable")
        cols[free[order[: j + 1]]] = j + 1
        if len(free) > j + 1:
            margins.append(float(dist[order[j + 1]] / dist[order[j]]))
    margin = min(margins, default=None)
    if margin is not None and margin < PEEL_MARGIN_MIN:
        raise IndexingAmbiguity(
            f"column peel margin {margin:.3f} < {PEEL_MARGIN_MIN} for n={n}")
    for j in range(1, n + 1):
        members = np.flatnonzero(cols == j)
        k = np.arange(1, j + 1)
        rows[members[np.argsort(pts[members].imag)]] = n + 2 * k - j - 1
    return rows.tolist(), cols.tolist(), margin


def triangle_sets(n: int, cache_dir=None) -> tuple[PointSet, PointSet]:
    """The conjecture's point pair (A, B): sigma_n's points divided by
    SCALE_CONSTANT n^(2/3) and YV_n's zeros, which also seed sigma's Aberth,
    by YV_SCALE_CONSTANT n^(2/3).  B's corner modulus tends to
    yv.CORNER_CONSTANT / YV_SCALE_CONSTANT = (2/3)^(1/3) ~ 0.8736, not 1.
    """
    zeros = yv.yv_zeros(n, cache_dir=cache_dir)
    bs = sigma_points(n, cache_dir=cache_dir, near=zeros.points)
    s = n ** (2.0 / 3.0)
    return bs.points.scaled(SCALE_CONSTANT * s), zeros.scaled(YV_SCALE_CONSTANT * s)


# ---------------------------------------------------------------------------
# set comparison and lattice stabilization
# ---------------------------------------------------------------------------

def compare_sets(A: PointSet, B: PointSet) -> dict:
    """Cardinalities, Hausdorff distance, mean nearest-neighbor distance,
    and the optimal-assignment total cost between two point sets.

    The assignment is the nearest-neighbour map from A to B, certified
    optimal: with delta its largest distance and g the smallest gap between
    points of B, a map that is a permutation with delta < g/2 is the unique
    optimal assignment, since any other one costs at least g - 2 delta more
    on each reassigned point.  For equal nonzero cardinalities,
    ``assignment_certificate`` reports delta (``max_nn``), g/2
    (``half_gap``), whether the map is a permutation and whether the
    certificate holds; ``assignment_cost`` is the sum of the matched
    distances when it holds and None when it does not.
    """
    pa = np.asarray(A.points if isinstance(A, PointSet) else A, dtype=complex)
    pb = np.asarray(B.points if isinstance(B, PointSet) else B, dtype=complex)
    out = {"card_a": len(pa), "card_b": len(pb)}
    if len(pa) == 0 or len(pb) == 0:
        out.update(hausdorff=math.inf, mean_nn=math.inf, assignment_cost=math.inf)
        return out
    D = np.abs(pa[:, None] - pb[None, :])
    d_ab = D.min(axis=1)
    d_ba = D.min(axis=0)
    out["hausdorff"] = float(max(d_ab.max(), d_ba.max()))
    out["mean_nn"] = float((d_ab.mean() + d_ba.mean()) / 2)
    if len(pa) != len(pb):
        out["assignment_cost"] = None
        return out
    G = np.abs(pb[:, None] - pb[None, :])
    np.fill_diagonal(G, math.inf)
    delta = float(d_ab.max())
    half_gap = float(G.min()) / 2
    nn = D.argmin(axis=1)
    is_perm = len(set(nn.tolist())) == len(nn)
    certified = is_perm and delta < half_gap
    out["assignment_cost"] = float(d_ab.sum()) if certified else None
    out["assignment_certificate"] = {"max_nn": delta, "half_gap": half_gap,
                                     "permutation": is_perm,
                                     "certified": certified}
    return out


def lattice_probe(n: int, window, sets) -> dict:
    """Drift of the unscaled branching lattice between n and n+3.

    sets holds the branching point arrays at n and at n+3, and window is
    (re_min, re_max, im_min, im_max); points of both sets inside are matched
    by nearest neighbor and the per-pair drift reported.
    """
    re0, re1, im0, im1 = window
    A, B = sets

    def clip(pts):
        return pts[(pts.real >= re0) & (pts.real <= re1)
                   & (pts.imag >= im0) & (pts.imag <= im1)]

    a_in, b_in = clip(A), clip(B)
    out = {"n": n, "m": n + 3, "count_a": len(a_in), "count_b": len(b_in),
           "pairs": [], "max_drift": None, "mean_drift": None}
    if len(a_in) == 0 or len(b_in) == 0:
        return out
    spacing = _local_spacing(a_in if len(a_in) > 1 else A)
    drifts = []
    for z in a_in:
        w = b_in[np.argmin(np.abs(b_in - z))]
        drifts.append(abs(w - z))
        out["pairs"].append({"from": [z.real, z.imag], "to": [w.real, w.imag],
                             "drift": abs(w - z)})
    out["max_drift"] = float(max(drifts))
    out["mean_drift"] = float(np.mean(drifts))
    out["local_spacing"] = float(spacing)
    return out


def _local_spacing(pts):
    if len(pts) < 2:
        return math.inf
    D = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(D, np.inf)
    return float(np.median(D.min(axis=1)))

