"""Exact univariate and bivariate polynomials over the rationals/integers.

ExactPoly carries big-rational coefficients (ascending degree) and supports
the closed, exact operations the rest of the package is built on: arithmetic,
derivative, exact division, Sturm-based real-root counting and isolation.
BivariatePoly holds an integer coefficient grid in (x, a), used for spectral
polynomials in both variables.  Their resultant in x is computed by the
modular route in ``branching``; the fraction-free determinant over Z[a] that
cross-checks it is a test oracle, not part of the package.

Conventions (fixed so results are reproducible bit for bit):

* ``resultant`` is the determinant of the Sylvester matrix of two ExactPoly
  with the first polynomial's coefficients in the top rows, computed by
  fraction-free (Bareiss) elimination.  No normalization by leading
  coefficients.
* ``discriminant`` is ``resultant(p, dp/dx)`` with no further division; only
  its zero locus is ever used downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import intpoly
from .errors import DegreeCapExceeded, NotSquarefree


def _to_fraction_list(coeffs):
    return [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]


class ExactPoly:
    """Dense polynomial with exact rational coefficients, ascending degree."""

    __slots__ = ("coeffs", "var_name")

    def __init__(self, coeffs, var_name: str = "x"):
        cs = _to_fraction_list(list(coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) > intpoly.DEGREE_CAP:
            raise DegreeCapExceeded(f"{len(cs)} coefficients exceed the dense cap")
        self.coeffs = cs
        self.var_name = var_name

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, var_name="x"):
        return cls([], var_name)

    @classmethod
    def one(cls, var_name="x"):
        return cls([1], var_name)

    @classmethod
    def variable(cls, var_name="x"):
        return cls([0, 1], var_name)

    @classmethod
    def from_int_coeffs(cls, coeffs, var_name="x"):
        p = cls.__new__(cls)
        p.coeffs = [Fraction(c) for c in coeffs]
        while p.coeffs and p.coeffs[-1] == 0:
            p.coeffs.pop()
        p.var_name = var_name
        return p

    # -- basic queries ------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return f"ExactPoly(0, {self.var_name!r})"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*{self.var_name}")
            else:
                terms.append(f"{c}*{self.var_name}^{k}")
        return "ExactPoly(" + " + ".join(terms) + ")"

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return ExactPoly(cs, self.var_name)

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] -= c
        return ExactPoly(cs, self.var_name)

    def __neg__(self):
        return ExactPoly([-c for c in self.coeffs], self.var_name)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactPoly([c * other for c in self.coeffs], self.var_name)
        other = self._coerce(other)
        ip, dp = self._int_form()
        iq, dq = other._int_form()
        prod = intpoly.mul(ip, iq)
        den = dp * dq
        return ExactPoly([Fraction(c, den) for c in prod], self.var_name)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, ExactPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactPoly([other], self.var_name)
        raise TypeError(f"cannot combine ExactPoly with {type(other)!r}")

    def _int_form(self):
        """(integer coefficient list, common denominator)."""
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        return [int(c * den) for c in self.coeffs], den

    def derivative(self) -> "ExactPoly":
        return ExactPoly(
            [i * c for i, c in enumerate(self.coeffs)][1:], self.var_name
        )

    def shift_up(self, k: int) -> "ExactPoly":
        """Multiply by x^k."""
        return ExactPoly([Fraction(0)] * k + self.coeffs, self.var_name)

    def compose_cube(self) -> "ExactPoly":
        """p(x) -> p(x^3)."""
        cs = [Fraction(0)] * (3 * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            cs[3 * i] = c
        return ExactPoly(cs, self.var_name)

    def negate_variable(self) -> "ExactPoly":
        """p(x) -> p(-x)."""
        return ExactPoly(
            [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)],
            self.var_name,
        )

    def monic(self) -> "ExactPoly":
        lc = self.leading()
        if lc in (0, 1):
            return self
        return ExactPoly([c / lc for c in self.coeffs], self.var_name)

    def __call__(self, x):
        acc = 0 if not isinstance(x, complex) else 0j
        for c in reversed(self.coeffs):
            if isinstance(x, (int, Fraction)):
                acc = acc * x + c
            else:
                acc = acc * x + complex(c)
        return acc


def exact_div(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Exact quotient with p = q * result; raises NotDivisible otherwise.

    Pseudo-division over the integers: when q divides p over Q, the integer
    form of p times lc(q)^(deg p - deg q + 1) is divisible by that of q in Z[x].
    """
    ip, dp = p._int_form()
    iq, dq = q._int_form()
    lc = iq[-1] ** max(len(ip) - len(iq) + 1, 0) if iq else 1
    quot = intpoly.div_exact(intpoly.scale(ip, lc), iq)
    return ExactPoly([Fraction(c * dq, dp * lc) for c in quot], p.var_name)


def real_roots(p: ExactPoly, lo=None, hi=None):
    """Exact real-root count and isolating intervals on (lo, hi].

    Endpoints are rationals or None for the full line.  Requires p squarefree
    (raises NotSquarefree carrying the repeated factor otherwise).  Returns
    ``(count, intervals)`` where every interval is a pair of Fractions
    containing exactly one root.
    """
    ip, _ = p._int_form()
    if not ip:
        raise ValueError("zero polynomial has no well-defined root set")
    g = intpoly.gcd(ip, intpoly.deriv(ip))
    if len(g) > 1:
        raise NotSquarefree(
            "polynomial has a repeated factor",
            gcd_factor=ExactPoly.from_int_coeffs(g, p.var_name),
        )
    seq = intpoly.sturm_sequence(ip)
    lo_f = None if lo is None else Fraction(lo)
    hi_f = None if hi is None else Fraction(hi)
    intervals = intpoly.isolate_real_roots(ip, lo_f, hi_f, seq=seq)
    return len(intervals), intervals


def resultant(p: ExactPoly, q: ExactPoly) -> Fraction:
    """Sylvester-determinant resultant of two ExactPoly in their common variable."""
    if not (isinstance(p, ExactPoly) and isinstance(q, ExactPoly)):
        raise TypeError("resultant expects two ExactPoly")
    ip, dp_ = p._int_form()
    iq, dq_ = q._int_form()
    det = intpoly.sylvester_resultant(ip, iq)
    return Fraction(det, dp_ ** (len(iq) - 1) * dq_ ** (len(ip) - 1))


def discriminant(p: ExactPoly) -> Fraction:
    """resultant(p, p') with no leading-coefficient normalization."""
    return resultant(p, p.derivative())


class BivariatePoly:
    """Integer polynomial in (x, a): grid[j][k] is the x^j a^k coefficient."""

    __slots__ = ("grid", "x_name", "a_name")

    def __init__(self, grid, x_name="x", a_name="a"):
        g = [intpoly.trim([int(c) for c in row]) for row in grid]
        while g and not g[-1]:
            g.pop()
        self.grid = g
        self.x_name = x_name
        self.a_name = a_name

    @property
    def x_degree(self):
        return len(self.grid) - 1

    @property
    def a_degree(self):
        return max((len(row) - 1 for row in self.grid if row), default=-1)

    @property
    def total_degree(self):
        td = -1
        for j, row in enumerate(self.grid):
            for k, c in enumerate(row):
                if c:
                    td = max(td, j + k)
        return td

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.grid == other.grid

    def coefficient(self, x_pow: int, a_pow: int) -> int:
        if x_pow >= len(self.grid):
            return 0
        row = self.grid[x_pow]
        return row[a_pow] if a_pow < len(row) else 0

    def derivative_x(self) -> "BivariatePoly":
        return BivariatePoly(
            [[j * c for c in row] for j, row in enumerate(self.grid)][1:],
            self.x_name,
            self.a_name,
        )

    def eval_a(self, a) -> ExactPoly:
        """Substitute a rational value for a; ExactPoly in x remains."""
        a = Fraction(a)
        cs = []
        for row in self.grid:
            acc = Fraction(0)
            for c in reversed(row):
                acc = acc * a + c
            cs.append(acc)
        return ExactPoly(cs, self.x_name)

    def eval_a_numeric(self, a):
        """Substitute a float/complex a; plain coefficient list in x."""
        out = []
        for row in self.grid:
            acc = 0j if isinstance(a, complex) else 0.0
            for c in reversed(row):
                acc = acc * a + c
            out.append(acc)
        return out

    def __repr__(self):
        return (
            f"BivariatePoly({self.x_name}-deg {self.x_degree}, "
            f"{self.a_name}-deg {self.a_degree})"
        )
