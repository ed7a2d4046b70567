"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares an algorithm with the package paths it checks: the
Sylvester determinant is expanded by hand-style elimination over Fractions,
determinants come from permutation-free cofactor recursion on dense lists,
products are schoolbook convolutions, the Yablonskii-Vorob'ev recursion runs
on full polynomials in t (the package runs it on the cube-structure factor),
the resultant over Z[a] is one
fraction-free elimination on a Sylvester matrix of polynomials (the package
interpolates it modulo primes instead), root counting falls back to numpy
with wide margins, and polynomial arithmetic, evaluation and the frozen
recurrence run per coefficient over Fractions (the package keeps integer
numerators over one denominator).
"""

import math
from fractions import Fraction

import numpy as np

from qesquartic import intpoly


def dense_det_fraction(M):
    """Cofactor-expansion determinant of a small matrix of Fractions."""
    m = len(M)
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
    return dense_det_fraction(sylvester_matrix(
        [Fraction(c) for c in p], [Fraction(c) for c in q], Fraction(0)))


def sylvester_resultant_poly(p_rows, q_rows):
    """Res_x of two polynomials in x with Z[a] coefficients.

    ``p_rows[j]`` is the x^j coefficient as an ascending int list in a (a
    ``BivariatePoly.grid``).  The Sylvester determinant is eliminated
    fraction-free (Bareiss) with exact divisions in Z[a]; returns the
    ascending int coefficients in a.
    """
    M = sylvester_matrix(p_rows, q_rows, [])
    n = len(M)
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
                t = intpoly.sub(intpoly.mul(M[i][j], M[k][k]),
                                intpoly.mul(M[i][k], M[k][j]))
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
        wron = intpoly.sub(schoolbook_mul(Y, d2), schoolbook_mul(d1, d1))
        num = intpoly.sub(schoolbook_mul([0, 1], schoolbook_mul(Y, Y)),
                          intpoly.scale(wron, 4))
        ys.append(intpoly.div_exact(num, prev))
    return [tuple(y) for y in ys[: N + 1]]


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
# per-coefficient arithmetic that ExactPoly's integer kernel is checked on
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
