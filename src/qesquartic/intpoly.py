"""Dense univariate polynomial arithmetic over Python big integers.

Polynomials are plain lists of int coefficients in ascending degree, with no
trailing zeros (the zero polynomial is the empty list).  This module is the
package's one exact kernel: ExactPoly (integer numerators over one
denominator), the frozen recurrence in ``bkw``, the certificates in
``zerocase`` and the branching polynomials all run on it.  Everything here
is closed over the integers and never rounds; a rational point num/den is
evaluated homogeneously by ``eval_at``, without a Fraction.

Multiplication switches to Kronecker substitution above a size threshold.
Each polynomial becomes one big integer with k bytes per coefficient, k large
enough that every convolution coefficient c satisfies |c| < 2^(8k-1): the
coefficients are written with ``int.to_bytes(k, signed=True)`` (two's
complement, so each negative digit carries a borrow of 2^(8k) into the next
one), joined, read back with ``int.from_bytes``, and the borrows are
subtracted as one integer.  CPython's subquadratic big int product then
gives all convolution coefficients at once.  To unpack, a constant whose
every digit is the offset 2^(8k-1) is added, which makes every digit
nonnegative and carry-free; ``to_bytes`` of the sum is sliced into k-byte
digits and the offset taken off each.  A square (``mul(p, p)``) packs once.

``split_cube`` writes a polynomial whose support lies in one residue class
of degrees mod 3 as x^r g(x^3).
"""

from __future__ import annotations

import math
from fractions import Fraction

KRONECKER_MIN_LEN = 32
DEGREE_CAP = 100_000


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def add(p, q):
    r = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        r[i] += c
    for i, c in enumerate(q):
        r[i] += c
    return trim(r)


def sub(p, q):
    r = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        r[i] += c
    for i, c in enumerate(q):
        r[i] -= c
    return trim(r)


def neg(p):
    return [-c for c in p]


def scale(p, c):
    if c == 0:
        return []
    return [c * x for x in p]


def mul(p, q):
    if not p or not q:
        return []
    if len(p) + len(q) - 1 > DEGREE_CAP:
        from .errors import DegreeCapExceeded

        raise DegreeCapExceeded(
            f"product degree {len(p) + len(q) - 2} exceeds cap {DEGREE_CAP}"
        )
    if min(len(p), len(q)) >= KRONECKER_MIN_LEN:
        return _mul_kronecker(p, q)
    r = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                r[i + j] += a * b
    return trim(r)


def _mul_kronecker(p, q):
    # k bytes per digit: every convolution coefficient plus a sign bit
    bound = max(map(abs, p)) * max(map(abs, q)) * min(len(p), len(q))
    k = (bound.bit_length() + 8) // 8
    n = len(p) + len(q) - 1
    P = _pack(p, k)
    R = P * P if q is p else P * _pack(q, k)
    offset = (b"\0" * (k - 1) + b"\x80") * n     # every digit 2^(8k-1)
    raw = (R + int.from_bytes(offset, "little")).to_bytes(n * k, "little")
    half = 1 << (8 * k - 1)
    return trim([int.from_bytes(raw[i:i + k], "little") - half
                 for i in range(0, n * k, k)])


def _pack(p, k):
    """sum p[i] 2^(8ki) as one integer, for digits |p[i]| < 2^(8k-1)."""
    digits = b"".join(c.to_bytes(k, "little", signed=True) for c in p)
    borrows = bytearray(len(digits) + k)    # a negative digit borrows 1 from the next
    borrows[k::k] = bytes(c < 0 for c in p)
    return int.from_bytes(digits, "little") - int.from_bytes(borrows, "little")


def split_cube(p):
    """(r, g) with p(x) = x^r g(x^3), r the lowest degree of p.

    Raises StructureViolation unless every nonzero coefficient sits in one
    residue class of degrees mod 3.
    """
    support = [j for j, c in enumerate(p) if c]
    if len({j % 3 for j in support}) != 1:
        from .errors import StructureViolation

        raise StructureViolation("coefficient support spans several classes mod 3")
    r = support[0]
    return r, p[r::3]


def deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def div_exact(p, q):
    """Exact quotient p/q over the integers; raises NotDivisible otherwise."""
    from .errors import NotDivisible

    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return []
    if len(p) < len(q):
        raise NotDivisible("degree of dividend below divisor")
    r = list(p)
    qd = len(q) - 1
    qlc = q[-1]
    out = [0] * (len(p) - qd)
    for i in range(len(p) - 1, qd - 1, -1):
        c = r[i]
        if c == 0:
            continue
        if c % qlc != 0:
            raise NotDivisible(f"leading reduction not integral at degree {i}")
        f = c // qlc
        out[i - qd] = f
        for j in range(qd + 1):
            r[i - qd + j] -= f * q[j]
    if any(r):
        raise NotDivisible("nonzero remainder")
    return trim(out)


def content(p):
    g = 0
    for c in p:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def primitive(p):
    """Primitive part with positive leading coefficient; returns (pp, unit*content)."""
    if not p:
        return [], 0
    g = content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p], g


def eval_at(p, num: int, den: int) -> int:
    """den^deg(p) * p(num/den), one homogeneous Horner pass over the integers."""
    if not p:
        return 0
    acc = p[-1]
    pw = 1
    for c in reversed(p[:-1]):
        pw *= den
        acc = acc * num + c * pw
    return acc


def eval_int(p, x: int) -> int:
    return eval_at(p, x, 1)


def sign_at(p, x) -> int:
    """Sign of p at a rational (int or Fraction) point, in integer arithmetic."""
    v = eval_at(p, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def sign_at_inf(p, positive: bool) -> int:
    if not p:
        return 0
    lc = p[-1]
    s = (lc > 0) - (lc < 0)
    if not positive and (len(p) - 1) % 2 == 1:
        s = -s
    return s


def gcd(p, q):
    """Integer polynomial gcd (primitive, positive leading coefficient)."""
    a = primitive(list(p))[0] if p else []
    b = primitive(list(q))[0] if q else []
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem_even(a, b)
        if r:
            r = primitive(r)[0]
        a, b = b, r
    return a


def _prem_even(p, q):
    """Pseudo-remainder of p by q, scaled by a positive factor only.

    Each elimination multiplies the remainder by lc(q); when that happened an
    odd number of times and lc(q) < 0, one extra multiplication makes the
    total factor an even power, so signs are preserved (needed for Sturm).
    """
    dq = len(q) - 1
    lc = q[-1]
    r = list(p)
    mult = 0
    while r and len(r) - 1 >= dq:
        dr = len(r) - 1
        top = r[-1]
        new = [lc * c for c in r[:-1]]
        sh = dr - dq
        for j in range(dq):
            new[sh + j] -= top * q[j]
        r = trim(new)
        mult += 1
    if mult % 2 == 1 and lc < 0:
        r = [lc * c for c in r]
    return r


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------

def sturm_sequence(p):
    """Integer Sturm sequence of p (primitive-reduced, sign-faithful)."""
    s0, _ = primitive(list(p))
    return signed_remainders(s0, _positive_primitive(deriv(s0))[0])


def signed_remainders(p, q):
    """Signed remainder sequence p, q, -rem(p, q), ... (deg p >= deg q).

    Each member after q is a pseudo-remainder divided by its positive
    content, so it differs from the true signed remainder by a positive
    factor only and every sign variation count is exact.
    """
    seq = [list(p), list(q)] if q else [list(p)]
    while len(seq[-1]) > 1:
        r = _prem_even(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_positive_primitive(neg(r))[0])
    return seq


def _positive_primitive(p):
    """Divide by positive content only (keeps the sign of every coefficient)."""
    g = content(p)
    if g in (0, 1):
        return list(p), 1
    return [c // g for c in p], g


def sign_variations(signs) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def sturm_count(seq, lo, hi) -> int:
    """V(lo) - V(hi), the sign variation drop of seq over (lo, hi].

    For a Sturm sequence this is the number of distinct real roots in
    (lo, hi]; for the signed remainders of (p, q) it is the Cauchy index of
    q/p there (Basu, Pollack & Roy, Thm 2.58).  lo/hi may be +-math.inf.
    """
    def vs(x):
        if x == math.inf:
            return sign_variations([sign_at_inf(s, True) for s in seq])
        if x == -math.inf:
            return sign_variations([sign_at_inf(s, False) for s in seq])
        return sign_variations([sign_at(s, x) for s in seq])

    return vs(lo) - vs(hi)


def root_bound(p) -> int:
    """Cauchy bound: every real root lies in (-B, B)."""
    lc = abs(p[-1])
    m = max(abs(c) for c in p[:-1]) if len(p) > 1 else 0
    return 1 + (m + lc - 1) // lc + 1


def isolate_real_roots(p, lo=None, hi=None, seq=None):
    """Disjoint rational intervals (a, b], one per distinct real root in (lo, hi].

    Sturm bisection: every interval is certified by exact counts.
    """
    if seq is None:
        seq = sturm_sequence(p)
    B = root_bound(p)
    lo = Fraction(-B) if lo is None else Fraction(lo)
    hi = Fraction(B) if hi is None else Fraction(hi)
    stack = [(lo, hi)]
    out = []
    while stack:
        a, b = stack.pop()
        c = sturm_count(seq, a, b)
        if c == 0:
            continue
        if c == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        stack.append((a, m))
        stack.append((m, b))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Sylvester resultant (fraction-free)
# ---------------------------------------------------------------------------

def sylvester_resultant(p, q):
    """det of the Sylvester matrix of p, q (p's coefficients in the top rows).

    Fraction-free Bareiss elimination over the integers; the exact
    determinant, including its sign.
    """
    dp, dq = len(p) - 1, len(q) - 1
    if dp < 0 or dq < 0:
        return 0
    if dp == 0:
        return p[0] ** dq if dq >= 0 else 1
    if dq == 0:
        return q[0] ** dp
    n = dp + dq
    M = [[0] * n for _ in range(n)]
    prow = list(reversed(p))
    qrow = list(reversed(q))
    for i in range(dq):
        for j, c in enumerate(prow):
            M[i][i + j] = c
    for i in range(dp):
        for j, c in enumerate(qrow):
            M[dq + i][i + j] = c
    return _bareiss_det(M)


def _bareiss_det(M):
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = M[k][k]
        for i in range(k + 1, n):
            row_i = M[i]
            row_k = M[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * M[n - 1][n - 1]
