"""Exact univariate polynomials over the rationals/integers.

ExactPoly stores integer numerators over one positive denominator (ascending
degree) and delegates every operation to ``intpoly``, the package's one exact
integer kernel: arithmetic, derivative, exact division, evaluation at a
rational point, Sturm-based real-root counting and isolation.  ``coeffs`` is
only a read-only view as Fractions.  Polynomials in (x, a) are plain
integer grids (``spectral.charpoly_bivariate``); their resultant in x is
computed by the modular route in ``branching``, and the fraction-free
determinant over Z[a] that cross-checks it is a test oracle, not part of
the package.

Conventions (fixed so results are reproducible bit for bit):

* An ExactPoly is canonical: no trailing zero numerator, den > 0,
  gcd(content(num), den) = 1, and the zero polynomial is ([], 1); so two
  polynomials are equal iff their (num, den) pairs are.
* ``resultant`` is the determinant of the Sylvester matrix of two ExactPoly
  with the first polynomial's coefficients in the top rows, computed by a
  subresultant pseudo-remainder sequence over the integers.  No
  normalization by leading coefficients.
* ``discriminant`` is ``resultant(p, dp/dx)`` with no further division; only
  its zero locus is ever used downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import intpoly
from .errors import DegreeCapExceeded, NotSquarefree


class ExactPoly:
    """Dense polynomial num/den with integer numerators, ascending degree."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num, den):
        """Store num/den in canonical form (num is trimmed in place)."""
        intpoly.trim(num)
        if len(num) > intpoly.DEGREE_CAP:
            raise DegreeCapExceeded(f"{len(num)} coefficients exceed the dense cap")
        if not num:
            den = 1
        elif den != 1:
            g = math.gcd(intpoly.content(num), den)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.num, self.den = num, den

    @classmethod
    def _make(cls, num, den):
        """The canonical ExactPoly num/den, built without Fractions."""
        p = cls.__new__(cls)
        p._set(num, den)
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([1])

    @classmethod
    def variable(cls):
        return cls([0, 1])

    @classmethod
    def from_int_coeffs(cls, coeffs):
        return cls._make(list(coeffs), 1)

    # -- basic queries ------------------------------------------------
    @property
    def coeffs(self) -> list:
        """The coefficients as Fractions (a fresh list; read-only view)."""
        return [Fraction(c, self.den) for c in self.num]

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.num), self.den))

    def __repr__(self):
        if not self.num:
            return "ExactPoly(0)"
        terms = []
        for k, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "ExactPoly(" + " + ".join(terms) + ")"

    # -- arithmetic ---------------------------------------------------
    def _combine(self, other, op):
        """op (intpoly.add or sub) on both numerators over a common den."""
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        return ExactPoly._make(op(intpoly.scale(self.num, den // self.den),
                                  intpoly.scale(other.num, den // other.den)),
                               den)

    def __add__(self, other):
        return self._combine(other, intpoly.add)

    def __sub__(self, other):
        return self._combine(other, intpoly.sub)

    def __neg__(self):
        return ExactPoly._make(intpoly.neg(self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return ExactPoly._make(intpoly.scale(self.num, other.numerator),
                                   self.den * other.denominator)
        other = self._coerce(other)
        return ExactPoly._make(intpoly.mul(self.num, other.num),
                               self.den * other.den)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, ExactPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactPoly([other])
        raise TypeError(f"cannot combine ExactPoly with {type(other)!r}")

    def derivative(self) -> "ExactPoly":
        return ExactPoly._make(intpoly.deriv(self.num), self.den)

    def shift_up(self, k: int) -> "ExactPoly":
        """Multiply by x^k."""
        return ExactPoly._make([0] * k + self.num, self.den)

    def compose_cube(self) -> "ExactPoly":
        """p(x) -> p(x^3)."""
        cs = [0] * (3 * len(self.num))
        cs[::3] = self.num
        return ExactPoly._make(cs, self.den)

    def negate_variable(self) -> "ExactPoly":
        """p(x) -> p(-x)."""
        cs = list(self.num)
        cs[1::2] = intpoly.neg(cs[1::2])
        return ExactPoly._make(cs, self.den)

    def __call__(self, x):
        """p(x): a Fraction at an int or Fraction x, complex otherwise."""
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            v = intpoly.eval_at(self.num, x.numerator, x.denominator)
            return Fraction(v, x.denominator ** max(self.degree, 0) * self.den)
        acc = 0j
        for c in reversed(self.num):
            acc = acc * x + c
        return acc if self.den == 1 else acc / self.den


def exact_div(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Exact quotient with p = q * result; raises NotDivisible otherwise.

    Pseudo-division over the integers: when q divides p over Q, the integer
    form of p times lc(q)^(deg p - deg q + 1) is divisible by that of q in Z[x].
    """
    ip, dp = p.num, p.den
    iq, dq = q.num, q.den
    lc = iq[-1] ** max(len(ip) - len(iq) + 1, 0) if iq else 1
    quot = intpoly.div_exact(intpoly.scale(ip, lc), iq)
    return ExactPoly._make(intpoly.scale(quot, dq), dp * lc)


def real_roots(p: ExactPoly, lo=None, hi=None):
    """Exact real-root count and isolating intervals on (lo, hi].

    Endpoints are rationals or None for the full line.  Requires p squarefree
    (raises NotSquarefree carrying the repeated factor otherwise).  Returns
    ``(count, intervals)`` where every interval is a pair of Fractions
    containing exactly one root.
    """
    ip = p.num
    if not ip:
        raise ValueError("zero polynomial has no well-defined root set")
    g = intpoly.gcd(ip, intpoly.deriv(ip))
    if len(g) > 1:
        raise NotSquarefree(
            "polynomial has a repeated factor",
            gcd_factor=ExactPoly.from_int_coeffs(g),
        )
    intervals = intpoly.isolate_real_roots(ip, lo, hi)
    return len(intervals), intervals


def resultant(p: ExactPoly, q: ExactPoly) -> Fraction:
    """Sylvester-determinant resultant of two ExactPoly in their common variable."""
    if not (isinstance(p, ExactPoly) and isinstance(q, ExactPoly)):
        raise TypeError("resultant expects two ExactPoly")
    if not p.num or not q.num:
        return Fraction(0)
    det = intpoly.sylvester_resultant(p.num, q.num)
    return Fraction(det, p.den ** q.degree * q.den ** p.degree)


def discriminant(p: ExactPoly) -> Fraction:
    """resultant(p, p') with no leading-coefficient normalization."""
    return resultant(p, p.derivative())

