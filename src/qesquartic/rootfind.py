"""Simultaneous polynomial root finding at staged multiprecision.

The solver is Aberth-Ehrlich iteration.  Each sweep evaluates the Newton
ratios p/p' of the unconverged roots, while the mutual repulsion sums run
vectorized in double precision: root estimates live at unit scale after
rescaling, so double is plenty for the geometry, and only the polynomial
evaluation needs big arithmetic because the coefficients are huge.  Initial
estimates come from the Newton polygon of the coefficient moduli unless the
caller supplies better ones.

Evaluation is one kernel, shared by the solver, Newton polishing and the
scale-aware residual: a simultaneous Horner pass for (p, p') in complex
fixed-point Python integers.  Coefficients (int, Fraction, float, complex,
mpf, mpc or a Gaussian-integer pair (re, im)) are converted exactly, once
per precision stage, to integers at scale 2^-shift with ceil(dps log2 10) +
span_bits + GUARD_BITS fractional bits, where span_bits is log2 of the ratio
of the largest to the smallest nonzero rescaled coefficient modulus.  Every
coefficient thus carries at least the stage precision, and the error of
p(z) stays within the stage precision of sum_k |c_k||z|^k, as a floating
evaluation's would.  A root estimate enters exactly, as the dyadic rational
its double is, so multiplying by it costs a big-by-small integer product.

Everything is rescaled to the dominant root radius before iterating; without
that, evaluation near roots of a polynomial whose coefficients span hundreds
of digits cancels catastrophically at any fixed precision.  A root whose
correction falls below 1e-15 is frozen for the rest of its stage, as in
MPSolve (Bini & Fiorentino 2000; Bini & Robol 2014): it still repels the
others but is no longer evaluated.  On convergence every root z_i gets the
Newton inclusion radius d |p(z_i)/p'(z_i)|, widened by the rounding bound
of the fixed-point evaluation, the radius of a disk about z_i that holds a
root; the disks must be pairwise disjoint, so each holds exactly one.

Ahead of the multiprecision stages runs one double-precision stage, MPSolve's
"double plus exponent" phase: the same iteration with each rescaled
coefficient held as a complex double mantissa and an int64 binary exponent,
and one numpy Horner pass for (p, p') over all unfrozen roots at once, each
root carrying one running exponent.  Coefficient spans far beyond the double
range (over 2000 bits for YV_40) thus neither underflow nor overflow.  A
root is frozen there when its correction falls below 1e-15 or when |p| is
within the rounding noise d eps sum_k |c_k||z|^k of the double pass, so the
stage stops where double precision stops telling anything.  Its points,
or the caller's starts if any came out non-finite, start the multiprecision
stages, whose freezing rule and certificates are those above; it only saves
them sweeps (yv_zeros(25) makes about a third of the multiprecision
evaluations it made without it).

``threefold_roots`` is the one route for polynomials x^s g(x^3) (the a = 0
spectra, the YV zeros, the branching points and the frozen recurrence at
a = 0): Aberth on g, mapped back by cube roots.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import mpmath as mp
import numpy as np
from numpy.random import RandomState   # loaded with the package, not on first use

from . import intpoly
from .errors import NonConvergence

# (dps, max_sweeps) per stage; dps None is the double-precision stage
DEFAULT_SCHEDULE = ((None, 100), (50, 90), (120, 20), (250, 8))


def _log_abs(c):
    """Natural log of |c| for int/Fraction/mpf/mpc/complex/(re, im); None for 0."""
    if isinstance(c, tuple):                      # a Gaussian integer (re, im)
        return 0.5 * _log_abs_int(c[0] ** 2 + c[1] ** 2) if any(c) else None
    if c == 0:
        return None
    if isinstance(c, int):
        return _log_abs_int(c)
    if isinstance(c, Fraction):
        return _log_abs_int(c.numerator) - _log_abs_int(c.denominator)
    if isinstance(c, (mp.mpf, mp.mpc)):
        return float(mp.log(abs(c)))
    return math.log(abs(c))


def _log_abs_int(n):
    n = abs(n)
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 60
    return math.log(n >> shift) + shift * math.log(2)


def newton_polygon_radii(coeffs):
    """Per-root modulus estimates from the upper hull of (k, log|c_k|)."""
    logs = [_log_abs(c) for c in coeffs]
    d = len(coeffs) - 1
    hull = []
    for k in range(d + 1):
        if logs[k] is None:
            continue
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (logs[j] - logs[i]) * (k - i) <= (logs[k] - logs[i]) * (j - i):
                hull.pop()
            else:
                break
        hull.append(k)
    radii = np.zeros(d, dtype=float)     # roots at the origin below hull[0]
    for t in range(len(hull) - 1):
        i, j = hull[t], hull[t + 1]
        radii[i:j] = math.exp((logs[i] - logs[j]) / (j - i))
    return radii


GUARD_BITS = 32
_LN2 = math.log(2)
_LOG2_10 = math.log2(10)


def _ratio(x):
    """(num, den) with x == num / den exactly, den > 0."""
    if isinstance(x, numbers.Rational):           # int, Fraction, numpy ints
        return int(x.numerator), int(x.denominator)
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = x._mpf_
        if not man:
            if exp:
                raise ValueError(f"non-finite coefficient {x}")
            return 0, 1
        man = -man if sign else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return float(x).as_integer_ratio()


def _parts(c):
    """Exact (num, den) pairs of the real and imaginary parts of c."""
    if isinstance(c, tuple):                      # a Gaussian integer (re, im)
        return (c[0], 1), (c[1], 1)
    if isinstance(c, (mp.mpc, complex)):
        return _ratio(c.real), _ratio(c.imag)
    return _ratio(c), (0, 1)


def _fixed_coeffs(coeffs, dps, scale=1.0):
    """Coefficients of p(scale w) as complex fixed-point ints.

    Returns (cfix, shift): cfix[k] = (re, im) approximates the k-th
    coefficient of p(scale w) times 2^shift, floored, where shift puts the
    largest coefficient modulus near 1 and leaves the smallest nonzero one
    ceil(dps log2 10) + GUARD_BITS significant bits.
    """
    d = len(coeffs) - 1
    ls = math.log(scale)
    logs = [L + (k - d) * ls for k, L in enumerate(map(_log_abs, coeffs))
            if L is not None]
    top = max(logs)
    span_bits = math.ceil((top - min(logs)) / _LN2)
    shift = (math.ceil(dps * _LOG2_10) + span_bits + GUARD_BITS
             - math.floor(top / _LN2))
    sn, sd = float(scale).as_integer_ratio()
    up, down = 1, 1                     # sd^(d-k), sn^(d-k)
    cfix = [None] * (d + 1)
    for k in range(d, -1, -1):
        cfix[k] = tuple(_floor_scaled(num * up, den * down, shift)
                        for num, den in _parts(coeffs[k]))
        up, down = up * sd, down * sn
    return cfix, shift


def _floor_scaled(num, den, shift):
    """floor(num 2^shift / den)."""
    if shift >= 0:
        return (num << shift) // den
    return num // (den << -shift)


def _exact_point(z):
    """(zr, zi, e) with z == (zr + i zi) 2^-e exactly."""
    z = complex(z)
    rn, rd = z.real.as_integer_ratio()
    im, id_ = z.imag.as_integer_ratio()
    den = max(rd, id_)                  # both are powers of two
    return rn * (den // rd), im * (den // id_), den.bit_length() - 1


def _horner(cfix, points):
    """(p, p') at each point (zr, zi, e) = (zr + i zi) 2^-e.

    One simultaneous Horner pass per point (q <- q z + p; p <- p z + c_k) in
    the fixed-point scale of cfix; returns (pr, pi, qr, qi) per point.
    """
    top = cfix[-1]
    rest = cfix[-2::-1]
    out = []
    for zr, zi, e in points:
        pr, pi = top
        qr = qi = 0
        for cr, ci in rest:
            qr, qi = ((qr * zr - qi * zi) >> e) + pr, ((qr * zi + qi * zr) >> e) + pi
            pr, pi = ((pr * zr - pi * zi) >> e) + cr, ((pr * zi + pi * zr) >> e) + ci
        out.append((pr, pi, qr, qi))
    return out


def _newton_ratio(pr, pi, qr, qi):
    """p / p' as a complex double; infinite where p' vanishes or it overflows."""
    den = qr * qr + qi * qi
    try:
        return complex((pr * qr + pi * qi) / den, (pi * qr - pr * qi) / den)
    except (ZeroDivisionError, OverflowError):
        return complex(math.inf, 0.0)


def _inclusion_radii(cfix, z):
    """Newton inclusion radii d |p(z_i)| / |p'(z_i)| (inf where p' may vanish).

    The disk of that radius about z_i holds at least one root of p, the
    polynomial of the exact coefficients: each floor of the fixed-point
    Horner pass and of the coefficients errs by under one unit per part, so
    |p| is taken 2 sqrt 2 sum_k |z|^k units larger and |p'|
    2 sqrt 2 (sum_k |z|^k + sum_k k |z|^(k-1)) units smaller than computed.
    """
    d = len(cfix) - 1
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore"):
        powers = np.abs(z)[:, None] ** np.arange(d + 1)
        err_p = 2 * math.sqrt(2) * powers.sum(axis=1)
        err_q = err_p + 2 * math.sqrt(2) * (np.arange(1, d + 1)
                                            * powers[:, :-1]).sum(axis=1)
    out = []
    for (pr, pi, qr, qi), ep, eq in zip(_horner(cfix, map(_exact_point, z)),
                                        err_p, err_q):
        try:                    # an infinite bound, or a radius past floats
            top = math.isqrt(pr * pr + pi * pi) + 1 + math.ceil(ep)
            bottom = math.isqrt(qr * qr + qi * qi) - math.ceil(eq)
            out.append(d * top / bottom if bottom > 0 else math.inf)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


# the double-precision stage: coefficients as (mantissa, binary exponent)
_EPS = float(np.finfo(float).eps)
_ZERO_EXP = np.iinfo(np.int64).min // 4     # exponent of a zero coefficient
_DPE_BITS = 64                              # integer bits kept per mantissa


def _dpe_coeffs(coeffs, scale):
    """The coefficients of p(scale w) / scale^d as (mantissa, exponent) pairs.

    Returns (man, exp): man[k] complex, exp[k] int64, with coefficient k
    equal to man[k] 2^exp[k] to double precision and the larger of
    |Re man[k]|, |Im man[k]| in [1/2, 1).  A zero coefficient gets mantissa
    0 and exponent _ZERO_EXP.  Built from _fixed_coeffs, so no coefficient
    underflows or overflows however wide its span.
    """
    cfix, shift = _fixed_coeffs(coeffs, 16, scale)   # >= 86 bits each
    man = np.zeros(len(cfix), dtype=complex)
    exp = np.full(len(cfix), _ZERO_EXP, dtype=np.int64)
    for k, (re, im) in enumerate(cfix):
        bits = max(abs(re).bit_length(), abs(im).bit_length())
        if not bits:
            continue
        t = max(bits - _DPE_BITS, 0)
        mr, mi = float(re >> t), float(im >> t)
        _, x = math.frexp(max(abs(mr), abs(mi)))
        man[k] = complex(math.ldexp(mr, -x), math.ldexp(mi, -x))
        exp[k] = t + x - shift
    return man, exp


def _dpe_horner(man, exp, z):
    """p(z), p'(z) and sum_k |c_k||z|^k at every point of z, all at once.

    One Horner pass over the (mantissa, exponent) coefficients of
    _dpe_coeffs.  Each point carries one running binary exponent shared by
    its three values.  Every step rescales them with frexp/ldexp so that
    the bound, which dominates |p| and |p'| |z| / d, lies between 1/2 and
    3, and aligns the next coefficient to that exponent: p and the bound
    never underflow or overflow, nor does p' unless |z| < d 2^-1000.
    Returns the three mantissa rows, shape (3, len(z)); the exponent
    cancels from the ratios the caller takes.
    """
    d = len(man) - 1
    zz = np.stack([z, z, np.abs(z)])
    cb = np.stack([man, np.abs(man)], axis=1)[:, :, None]
    acc = np.zeros((3, len(z)), dtype=complex)
    acc[0::2] = cb[d]
    e = np.full(len(z), exp[d])
    for k in range(d - 1, -1, -1):
        nxt = acc * zz
        nxt[1] += acc[0]
        e_next = np.maximum(e + np.frexp(nxt[2].real)[1], exp[k])
        nxt *= np.ldexp(1.0, e - e_next)
        nxt[0::2] += cb[k] * np.ldexp(1.0, exp[k] - e_next)
        acc, e = nxt, e_next
    return acc


def _dpe_newton(man, exp, z):
    """Newton ratios p/p' at z in double precision (not finite where p'
    vanishes), and 0, which freezes the point, where |p| is within the
    rounding noise d eps sum_k |c_k||z|^k of the Horner pass: there the
    ratio means nothing."""
    p, q, bound = _dpe_horner(man, exp, z)
    d = len(man) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        N = p / q
    return np.where(np.abs(p) <= d * _EPS * bound.real, 0j, N)


def aberth_roots(coeffs, init=None, check_sum=True):
    """All roots of sum coeffs[k] z^k (ascending; exact, mp or (re, im) pairs).

    ``init``, when given, holds d finite starting points (ValueError
    otherwise); by default they come from the Newton polygon.  Runs the
    (dps, max_sweeps) stages of DEFAULT_SCHEDULE; a root whose
    correction falls below tol = 1e-15 is frozen.  The first stage (dps
    None) runs in double precision with a binary exponent per value and
    also freezes a root whose |p| is at its rounding noise; the stages
    after it start from its points (from the starts if any is not finite)
    and stop once all roots are frozen.  Returns a complex ndarray
    of the d roots.  Raises NonConvergence when the final sweep still moves
    by more than sqrt(tol) at root scale, when the exact sum-of-roots
    identity fails beyond tolerance, or when the Newton inclusion disks of
    the returned roots are not pairwise disjoint.
    """
    tol = 1e-15
    d = len(coeffs) - 1
    if d >= 0 and coeffs[d] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if d < 1:
        return np.empty(0, dtype=complex)
    if init is not None:
        init = np.asarray(init, dtype=complex)
        if init.shape != (d,) or not np.isfinite(init).all():
            raise ValueError(f"init must hold {d} finite starting points")
    if d == 1:
        with mp.workdps(40):
            return np.array([complex(-_to_mp(coeffs[0]) / _to_mp(coeffs[1]))])
    radii = newton_polygon_radii(coeffs)
    s = float(radii.max())
    if s == 0 or not math.isfinite(s):
        s = 1.0
    if init is None:
        ang = 2 * np.pi * ((np.arange(d) * 0.38196601125010515) % 1.0) + 0.31
        z = (np.maximum(radii, 1e-12 * s) / s) * np.exp(1j * ang)
    else:
        z = init / s
    last_step = math.inf
    for dps, max_sweeps in DEFAULT_SCHEDULE:
        if dps is None:
            man, exp = _dpe_coeffs(coeffs, s)
            starts = z.copy()
        else:
            cfix, _ = _fixed_coeffs(coeffs, dps, s)
        rng = RandomState(12345)
        active = np.arange(d)
        for _ in range(max_sweeps):
            za = z[active]
            if dps is None:
                N = _dpe_newton(man, exp, za)
            else:
                N = np.array([_newton_ratio(*v) for v in
                              _horner(cfix, map(_exact_point, za))])
            stuck = ~np.isfinite(N)
            N[stuck] = 1e-3 * (1 + np.abs(za[stuck]))
            diff = za[:, None] - z[None, :]
            diff[np.arange(len(active)), active] = np.inf
            with np.errstate(all="ignore"):
                S = np.sum(1.0 / diff, axis=1)
                w = N / (1 - N * S)
            bad = ~np.isfinite(w)
            if bad.any():
                w[bad] = 1e-3 * np.exp(2j * np.pi * rng.rand(int(bad.sum())))
            aw = np.abs(w)
            cap = 0.2 + 0.5 * np.abs(za)
            w = np.where(aw > cap, w / np.maximum(aw, 1e-300) * cap, w)
            z[active] = za - w
            aw = np.abs(w)
            last_step = float(aw.max())
            active = active[aw >= tol]
            if not len(active):
                break
        if dps is None:
            if not np.isfinite(z).all():
                z = starts
        elif not len(active):
            break
    roots = z * s
    if last_step > math.sqrt(tol):
        raise NonConvergence(
            f"Aberth stalled with max step {last_step:.2e} at root scale"
        )
    if check_sum and _is_exact(coeffs[d]) and _is_exact(coeffs[d - 1]):
        expected = -Fraction(coeffs[d - 1]) / Fraction(coeffs[d])
        got = complex(roots.sum())
        err = abs(got - complex(expected)) / (1 + d * s)
        if err > 1e-8:
            raise NonConvergence(
                f"sum-of-roots check failed: relative error {err:.2e}"
            )
    rad = _inclusion_radii(cfix, z)
    dist = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dist, np.inf)
    overlap = dist <= rad[:, None] + rad[None, :]
    if overlap.any():
        i, j = np.argwhere(overlap)[0]
        raise NonConvergence(
            f"inclusion disks of roots {i} and {j} overlap: radii "
            f"{rad[i] * s:.2e}, {rad[j] * s:.2e} at distance {dist[i, j] * s:.2e}"
        )
    return roots


def threefold_roots(coeffs, init=None):
    """All roots of x^s g(x^3) (ascending coefficients), multiplicity included.

    The s zeros come first, then the three cube roots of each root of g, which
    aberth_roots finds, starting from ``init`` (deg g points in the cube
    variable) when given; the threefold symmetry is thus exact.  Raises
    StructureViolation unless every nonzero coefficient sits in one residue
    class of degrees mod 3.
    """
    s, g = intpoly.split_cube(coeffs)
    xi = aberth_roots(g, init=init)
    cube = np.abs(xi) ** (1 / 3) * np.exp(1j * np.angle(xi) / 3)
    turns = np.exp(2j * np.pi * np.arange(3) / 3)
    return np.concatenate([np.zeros(s, complex), (cube[:, None] * turns).ravel()])


def _to_mp(c):
    """c as an mpf/mpc at the current working precision."""
    if isinstance(c, Fraction):
        return mp.mpf(c.numerator) / c.denominator
    if isinstance(c, (mp.mpf, mp.mpc)):
        return +c
    if isinstance(c, complex):
        return mp.mpc(c)
    return mp.mpf(c)


def _is_exact(c):
    return isinstance(c, (int, Fraction))


def newton_polish(coeffs, roots, dps=50, steps=3):
    """A few Newton steps on each root at dps digits; returns mpc list.

    Each iterate is kept in fixed point with ceil(dps log2 10) + GUARD_BITS
    bits below its leading bit.
    """
    cfix, _ = _fixed_coeffs(coeffs, dps)
    prec = math.ceil(dps * _LOG2_10) + GUARD_BITS
    pts = []
    for zr, zi, e in map(_exact_point, roots):
        lead = max(abs(zr), abs(zi)).bit_length() - e
        up = max(0, prec - lead - e)
        pts.append((zr << up, zi << up, e + up))
    for _ in range(steps):
        moved = []
        for (zr, zi, e), (pr, pi, qr, qi) in zip(pts, _horner(cfix, pts)):
            den = qr * qr + qi * qi
            if den:
                zr -= ((pr * qr + pi * qi) << e) // den
                zi -= ((pi * qr - pr * qi) << e) // den
            moved.append((zr, zi, e))
        pts = moved
    with mp.workdps(dps):
        return [mp.mpc(mp.mpf((zr, -e)), mp.mpf((zi, -e))) for zr, zi, e in pts]


def residual_scale_aware(coeffs, z):
    """|p(z)| / sum_k |c_k||z|^k   (backward-stable residual normalization),
    with p(z) evaluated at 60 digits.

    z is one point (a float comes back) or an array of points (an array of
    the same shape comes back); the coefficients are converted once per call.
    """
    zs = np.asarray(z, dtype=complex)
    cfix, shift = _fixed_coeffs(coeffs, 60)
    logs = [(k, L) for k, L in enumerate(map(_log_abs, coeffs)) if L is not None]
    pts = [complex(w) for w in zs.flat]
    out = []
    for w, (pr, pi, _, _) in zip(pts, _horner(cfix, map(_exact_point, pts))):
        if pr == 0 and pi == 0:
            out.append(0.0)
            continue
        lz = math.log(abs(w)) if w else -math.inf
        terms = [L + k * lz if k else L for k, L in logs]
        top = max(terms)
        if top == -math.inf:
            out.append(math.inf)
            continue
        log_den = top + math.log(sum(math.exp(t - top) for t in terms))
        log_p = 0.5 * _log_abs_int(pr * pr + pi * pi) - shift * _LN2
        out.append(math.exp(log_p - log_den))
    return out[0] if zs.ndim == 0 else np.reshape(out, zs.shape)


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3) ** np.arange(3)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cubic_roots(b, c, d):
    """Roots of z^3 + b z^2 + c z + d, broadcast over b, c and d.

    The one cubic solver of the package: it serves a whole raster, edge batch
    or quadrature grid of the frozen-recurrence cubic in one call as well as
    the branch-point and endpoint cubics at a single parameter.  Cardano's
    form takes the cube-root argument -q/2 +- sqrt(disc) of larger modulus
    (the other one cancels); one Newton step then removes most of the
    rounding that form leaves, and is kept wherever it does not increase
    |p(z)| and moves z by less than half the distance to the nearest other
    Cardano root.  The roots lie along a last axis of length 3, so scalar
    coefficients give an array of shape (3,).
    """
    # contiguous copies at the common shape: numpy may round a broadcast
    # (stride-0) operand differently, and each row must not depend on the batch
    b, c, d = (np.array(x, dtype=complex)[..., None]
               for x in np.broadcast_arrays(b, c, d))
    b3 = b / 3
    p3 = c / 3 - b3 * b3                  # p/3, with p = c - b^2/3
    h = b3 * (b3 * b3 - c / 2) + d / 2    # q/2, with q = 2b^3/27 - bc/3 + d
    sq = np.sqrt(h * h + p3 * p3 * p3)
    # |-h + sq| >= |-h - sq| exactly when Re(conj(h) sq) <= 0
    u3 = np.where((h.conjugate() * sq).real <= 0, sq, -sq) - h
    u = u3 ** (1 / 3) * _CUBE_ROOTS_OF_UNITY
    with np.errstate(all="ignore"):          # bad steps are dropped below
        z = np.where(u == 0, -b3, u - p3 / u - b3)
        f = ((z + b) * z + c) * z + d
        step = f / ((3 * z + 2 * b) * z + c)
        newton = z - step
        f_newton = ((newton + b) * newton + c) * newton + d
    # next to a double root p' ~ 0, and the step can land on another root
    gap = np.abs(z - z.take(_NEXT, axis=-1))          # |z_i - z_(i+1)|
    nearest = np.minimum(gap, gap.take(_PREV, axis=-1))
    keep = (np.isfinite(newton) & (np.abs(f_newton) <= np.abs(f))
            & (2 * np.abs(step) < nearest))
    return np.where(keep, newton, z)
