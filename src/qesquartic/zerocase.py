"""Structure theory of the a = 0 spectral polynomials.

At a = 0 the characteristic polynomial collapses onto every third power of x
and splits, after the sign-simplifying variable flip x -> -x, into three
families P_l, Q_l, R_l of monic integer polynomials in xi = x^3 defined by
the triple recurrence

    P_l = xi R_{l-1} + (n-3l+2)(n-3l+3)(3l-2)(3l-1) P_{l-1}
    Q_l = P_l + (n-3l+1)(n-3l+2)(3l-1)(3l) Q_{l-1}
    R_l = Q_l + (n-3l)(n-3l+1)(3l)(3l+1) R_{l-1}

with P_0 = Q_0 = R_0 = 1.  All three have positive coefficients, so their
real roots are negative; this module certifies - in exact integer
arithmetic, never floating point - that the roots are real, simple, negative
and interlace along the recurrence chains.  Interlacing is one Cauchy index,
read off the signed remainder sequence of the pair.  A met index proves both
polynomials of the pair real-rooted and simple, and a real-rooted polynomial
has only negative roots iff every coefficient is nonzero with the sign of the
leading one; so negativity is read off the coefficients of every polynomial
an interlacing verdict covers, and only one that none covers falls back to a
Sturm count on (-inf, 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import intpoly
from .errors import MultipleRoot, StructureViolation
from .exactpoly import ExactPoly
from .spectral import spectral_polynomial


@dataclass
class PQRTriple:
    """P_l, Q_l, R_l at one recurrence depth l for a fixed n (xi = x^3)."""

    n: int
    l: int
    P: ExactPoly
    Q: ExactPoly
    R: ExactPoly


def _pqr_lists(n: int, depth: int):
    """(P_l, Q_l, R_l) as int lists for l = 0..depth."""
    P, Q, R = [1], [1], [1]
    out = [(P, Q, R)]
    for l in range(1, depth + 1):
        cP = (n - 3 * l + 2) * (n - 3 * l + 3) * (3 * l - 2) * (3 * l - 1)
        cQ = (n - 3 * l + 1) * (n - 3 * l + 2) * (3 * l - 1) * (3 * l)
        cR = (n - 3 * l) * (n - 3 * l + 1) * (3 * l) * (3 * l + 1)
        P = intpoly.add([0] + R, intpoly.scale(P, cP))
        Q = intpoly.add(P, intpoly.scale(Q, cQ))
        R = intpoly.add(Q, intpoly.scale(R, cR))
        out.append((P, Q, R))
    return out


def pqr_sequences(n: int):
    """All triples for l = 0..floor(n/3); exact integer recurrence."""
    if n < 3:
        raise ValueError("n must be >= 3 for a nontrivial triple recurrence")
    return [PQRTriple(n, l, ExactPoly(P), ExactPoly(Q), ExactPoly(R))
            for l, (P, Q, R) in enumerate(_pqr_lists(n, n // 3))]


def _cube_factor(n: int):
    """(r, q) of factor_structure, q as an int list."""
    p = list(spectral_polynomial(n, 0).coeffs)
    r, g = intpoly.split_cube(p)
    if r != (n + 1) % 3:
        raise StructureViolation(
            f"lowest degree {r} for n={n} (expected {(n + 1) % 3} mod 3)"
        )
    return r, intpoly.scale(g, (-1) ** (n + 1))


def factor_structure(n: int):
    """(r, q) with det(M - x I)|_{a=0} = (-1)^(n+1) x^r q(x^3) and q monic.

    r is 0, 1, 2 according to n+1 = 3k, 3k+1, 3k+2; q is the ExactPoly
    ascending in xi = x^3.  A StructureViolation is raised if any
    coefficient of the recurrence-built characteristic polynomial escapes
    the x^(3j+r) support or if its lowest degree is not (n+1) mod 3.
    """
    r, q = _cube_factor(n)
    return r, ExactPoly(q)


def pqr_matches_factor(n: int) -> bool:
    """Cross-check the two conventions: q(xi) == (-1)^k F_k(-xi) exactly.

    F is P, Q or R according to n+1 = 3k, 3k+1, 3k+2 (k = floor((n+1)/3));
    the (-1)^k makes the right side monic, matching q.  For n+1 = 3k the
    depth k is one step past the l <= floor(n/3) triples of `certify_all`.
    """
    r, q = _cube_factor(n)
    k = (n + 1) // 3
    F = _pqr_lists(n, k)[k][r]
    return q == [c if (i + k) % 2 == 0 else -c for i, c in enumerate(F)]


def _all_roots_negative_simple(ip) -> bool:
    """Exact: every root of the int list ip real, simple, and in (-inf, 0)."""
    if len(ip) <= 1:
        return True
    seq = intpoly.sturm_sequence(ip)
    d = len(ip) - 1
    count = intpoly.sturm_count(seq, -math.inf, Fraction(0))
    # d distinct roots, all strictly negative: real-rooted, simple, negative
    return count == d and intpoly.sign_at(ip, 0) != 0


def _negative_if_real_rooted(ip) -> bool:
    """Exact, given ip real-rooted: every root in (-inf, 0).

    lc * prod(x - r) with every r < 0 has all coefficients of the sign of
    lc; conversely, same-signed nonzero coefficients leave no root in
    [0, inf).
    """
    return all(c * ip[-1] > 0 for c in ip)


def certify_interlacing(p, q) -> str:
    """Exact interlacing verdict for int lists p, q with deg p = deg q or
    deg q + 1.

    Returns "interlacing-with-largest-in-p" when p has deg p simple real
    roots, q has a root strictly between each neighbouring pair of them and
    the largest of all the roots is p's; "not-interlacing" otherwise.  That
    holds iff the Cauchy index of q/p over R is deg p * sign(lc p * lc q)
    (Basu, Pollack & Roy, Thm 2.58; Fisk), which is V(-inf) - V(+inf) of the
    signed remainder sequence of (p, q): no root is isolated, and nothing is
    computed in floating point.  Raises MultipleRoot if either polynomial is
    not squarefree.

    The squarefree checks run only when the index falls short, because a
    pair that meets it is squarefree.  Only the real poles of q/p add to
    |Ind(q/p)|, at most 1 each, and they lie among the distinct real roots
    of p; so |Ind| = deg p leaves p deg p simple real roots, each a pole,
    hence none a root of q.  The jumps of q/p at them then all have one
    sign, so q/p, and with it q, changes sign in each of the deg p - 1 gaps
    between them: q has roots of odd total multiplicity in each gap.  That
    takes deg p - 1 of q's at most deg p roots, one simple root per gap,
    and for deg q = deg p the one left over is real and lies outside the
    gaps (inside one it would make that gap's multiplicity even), hence is
    simple too.
    """
    if not (len(p) - len(q) in (0, 1)):
        raise ValueError("degrees must differ by 0 or 1 (p the larger)")
    index = intpoly.sturm_count(intpoly.signed_remainders(p, q),
                                -math.inf, math.inf)
    sign = intpoly.sign_at_inf(p, True) * intpoly.sign_at_inf(q, True)
    if index == (len(p) - 1) * sign:
        return "interlacing-with-largest-in-p"
    for u, name in ((p, "p"), (q, "q")):
        if len(u) > 1 and len(intpoly.gcd(u, intpoly.deriv(u))) > 1:
            raise MultipleRoot(f"{name} is not squarefree")
    return "not-interlacing"


def certify_all(n: int):
    """Certification record for one n: structure, negativity, interlacing.

    Returns a dict with per-l verdicts; everything certified exactly.  The
    interlacing arrows checked are the three that define each new triple:
    xi R_{l-1} <- P_l, P_l <- Q_l, Q_l <- R_l.  They run first: a
    polynomial that equals p or q of an arrow verdict
    "interlacing-with-largest-in-p" is real-rooted and simple, so its
    `*_neg_simple` is `_negative_if_real_rooted`; any other polynomial is
    decided by the Sturm count of `_all_roots_negative_simple`.  At the top
    depth of n = 3l the Q_R arrow is degenerate-equal, and R_l = Q_l is
    covered by P_Q.
    """
    r, q = factor_structure(n)
    rec = {"n": n, "r": r, "q_degree": q.degree, "structure_ok": True,
           "pqr": []}
    if n >= 3:
        triples = _pqr_lists(n, n // 3)
        for l in range(1, len(triples)):
            P, Q, R = triples[l]
            # arrowheads per the proof chains: the largest root (nearest 0)
            # sits in xi*R_{l-1}, then P_l, then Q_l respectively.  At the
            # top depth a recurrence coefficient can vanish, leaving the two
            # polynomials identical; that degenerate step is recorded as such.
            pairs = {"xiR_P": ([0] + triples[l - 1][2], P), "P_Q": (P, Q),
                     "Q_R": (Q, R)}
            arrows = {key: _arrow(*pq) for key, pq in pairs.items()}
            real_rooted = [u for key, pq in pairs.items()
                           if arrows[key] == "interlacing-with-largest-in-p"
                           for u in pq]
            entry = {"l": l}
            for name, F in zip("PQR", triples[l]):
                entry[f"{name}_neg_simple"] = (
                    _negative_if_real_rooted(F) if F in real_rooted
                    else _all_roots_negative_simple(F))
            entry.update(arrows)
            rec["pqr"].append(entry)
    return rec


def _arrow(p, q) -> str:
    if p == q:
        return "degenerate-equal"
    return certify_interlacing(p, q)

