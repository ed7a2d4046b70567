import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesquartic import intpoly
from qesquartic.errors import NotDivisible, NotSquarefree
from qesquartic.exactpoly import (
    ExactPoly,
    discriminant,
    exact_div,
    real_roots,
    resultant,
)

from oracles import (
    frac_add,
    frac_horner,
    frac_mul,
    frac_trim,
    grid_degrees,
    numpy_real_root_count,
    schoolbook_mul,
    sylvester_det_by_hand,
    sylvester_resultant_poly,
)


def P(*coeffs):
    return ExactPoly(list(coeffs))


class TestExactDiv:
    def test_monomial(self):
        # (t^3 + 4t) / t
        assert exact_div(P(0, 4, 0, 1), P(0, 1)) == P(4, 0, 1)

    def test_yv_step_quotient(self):
        # frozen from the degree-3 recursion step: (t^7 + 20 t^4 - 80 t) / t
        assert exact_div(P(0, -80, 0, 0, 20, 0, 0, 1), P(0, 1)) == \
            P(-80, 0, 0, 20, 0, 0, 1)

    def test_remainder_raises(self):
        with pytest.raises(NotDivisible):
            exact_div(P(1, 0, 1), P(1, 1))

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(60):
            p = P(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 7))] + [1])
            q = P(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 6))] + [1])
            assert exact_div(p * q, q) == p


@st.composite
def _split_real_polys(draw):
    """(coeffs, real roots): up to six distinct real roots k or k/3 in
    [-20, 20] and complex pairs u +- iv with v >= 1, times a small leading
    factor."""
    real = draw(st.lists(st.fractions(-20, 20).filter(lambda r: r.denominator in (1, 3)),
                         unique=True, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(-10, 10), st.integers(1, 5)),
                          min_size=0 if real else 1, max_size=2, unique=True))
    p = ExactPoly([draw(st.sampled_from([1, -1, 3, -7]))])
    for r in real:
        p = p * ExactPoly([-r.numerator, r.denominator])
    for u, v in pairs:
        p = p * ExactPoly([u * u + v * v, -2 * u, 1])
    return p.num, real


# lo < hi, each k + 1/2 (never a root k or k/3) or infinite
_INTERVAL = st.lists(st.one_of(st.integers(-24, 23).map(lambda k: Fraction(2 * k + 1, 2)),
                               st.sampled_from([-math.inf, math.inf])),
                     min_size=2, max_size=2, unique=True).map(sorted)


_SMALL_POLY = st.lists(st.fractions(-9, 9, max_denominator=4), min_size=1,
                       max_size=6).filter(lambda cs: cs[-1] != 0)


class TestResultant:
    # the three (x, a) grid cases freeze the Z[a] oracle that
    # test_branching compares the modular resultant against
    def test_linear_pair(self):
        # res_x(x - a, x + a) = 2a
        assert sylvester_resultant_poly([[0, -1], [1]], [[0, 1], [1]]) == [0, 2]

    def test_quadratic_with_derivative(self):
        # res_x(x^2 - a, 2x): the 3x3 Sylvester determinant is -4a
        # (hand oracle below confirms the sign of the raw determinant)
        assert sylvester_resultant_poly([[0, -1], [], [1]], [[], [2]]) == [0, -4]
        hand = sylvester_det_by_hand([-5, 0, 1], [0, 2])   # a = 5
        assert hand == -4 * 5

    def test_cubic_discriminant_pattern(self):
        # res_x(x^3 - 4a x - 4, 3x^2 - 4a) = -(256 a^3 - 432)
        p = [[-4], [0, -4], [], [1]]
        q = [[0, -4], [], [3]]
        assert sylvester_resultant_poly(p, q) == [432, 0, 0, -256]

    def test_bivariate_input_refused(self):
        p = [[0, -1], [1]]          # an (x, a) grid, not an ExactPoly
        with pytest.raises(TypeError):
            resultant(p, p)

    @settings(max_examples=40)
    @given(_SMALL_POLY, _SMALL_POLY)
    def test_univariate_matches_hand_oracle(self, p, q):
        assert resultant(ExactPoly(p), ExactPoly(q)) == sylvester_det_by_hand(p, q)

    @pytest.mark.parametrize("p, q", [([], [1, 2]), ([1, 2], []), ([], [])])
    def test_zero_polynomial_gives_zero(self, p, q):
        res = resultant(ExactPoly(p), ExactPoly(q))
        assert res == 0 and isinstance(res, Fraction)

    def test_discriminant_of_zero_is_zero(self):
        res = discriminant(ExactPoly([]))
        assert res == 0 and isinstance(res, Fraction)

    def test_discriminant_detects_multiple_roots(self):
        rng = random.Random(5)
        for _ in range(25):
            # build a polynomial with a known double root r
            r = rng.randint(-5, 5)
            s = rng.randint(-5, 5)
            p = ExactPoly([r * r, -2 * r, 1]) * ExactPoly([-s, 1])
            assert discriminant(p) == 0
            # and a squarefree one with distinct roots
            roots = rng.sample(range(-20, 20), 3)
            q = ExactPoly([1])
            for rt in roots:
                q = q * ExactPoly([-rt, 1])
            assert discriminant(q) != 0


class TestRealRoots:
    def test_simple_quadratic(self):
        count, ivs = real_roots(P(-1, 0, 1), -2, 2)
        assert count == 2
        for (a, b), root in zip(ivs, (-1, 1)):
            assert a < root <= b

    def test_no_real_roots(self):
        assert real_roots(P(1, 0, 1))[0] == 0

    def test_shifted_linear(self):
        # the l=1 member of the zero-parameter family at n=5: xi + 40
        count, ivs = real_roots(P(40, 1), lo=None, hi=0)
        assert count == 1

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree) as exc:
            real_roots(P(1, 2, 1))
        assert exc.value.gcd_factor is not None
        assert exc.value.gcd_factor.degree == 1

    @settings(max_examples=80)
    @given(_split_real_polys(), _INTERVAL)
    def test_count_matches_numpy_oracle(self, poly, interval):
        coeffs, real = poly
        lo, hi = interval
        count = intpoly.sturm_count(intpoly.sturm_sequence(coeffs), lo, hi)
        assert count == numpy_real_root_count(coeffs, lo, hi)
        assert count == sum(lo < r <= hi for r in real)
        isolated, _ = real_roots(ExactPoly(coeffs), *(None if math.isinf(x) else x
                                                       for x in (lo, hi)))
        assert isolated == count


class TestBivariate:
    def test_degrees(self):
        # x-, a- and total degree of -x^3 + 4ax + 4, and of the zero grid
        assert grid_degrees([[4], [0, 4], [], [-1]]) == (3, 1, 3)
        assert grid_degrees([]) == (-1, -1, -1)


# coefficients at the sign and borrow edges: +-2^k and +-(2^k - 1), zero runs
_POWERS = st.builds(lambda k, sign, off: sign * (2**k - off),
                    st.integers(0, 80), st.sampled_from([1, -1]), st.sampled_from([0, 1]))
_WIDE = st.integers(-2**64, 2**64)


@st.composite
def _int_polys(draw, min_len, max_len):
    """Ascending int coefficient lists with a nonzero leading coefficient;
    mixed signs, all positive or all negative."""
    cs = draw(st.lists(st.one_of(st.just(0), _POWERS, _WIDE),
                       min_size=min_len - 1, max_size=max_len - 1))
    cs.append(draw(st.one_of(_POWERS, _WIDE).filter(bool)))
    sign = draw(st.sampled_from([0, 1, -1]))
    return cs if sign == 0 else [sign * abs(c) for c in cs]


class TestKroneckerMultiplication:
    def test_matches_schoolbook(self):
        rng = random.Random(23)
        for _ in range(80):
            p = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(33, 70))]
            q = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(33, 70))]
            assert intpoly.mul(p, q) == schoolbook_mul(p, q)

    def test_borrow_rollover(self):
        # sparse structured products: negative digits next to runs of zeros
        p = [-80, 0, 0, 20, 0, 0, 1] * 7
        assert intpoly._mul_kronecker(p, p) == schoolbook_mul(p, p)

    def test_square_matches_schoolbook(self):
        rng = random.Random(5)
        p = [rng.randint(-10**9, 10**9) for _ in range(61)]
        assert intpoly.mul(p, p) == schoolbook_mul(p, p)
        assert intpoly._mul_kronecker(p, p) == schoolbook_mul(p, p)

    def test_all_negative_inputs(self):
        rng = random.Random(6)
        p = [-rng.randint(1, 10**5) for _ in range(40)]
        q = [-rng.randint(1, 10**12) for _ in range(35)]
        assert intpoly._mul_kronecker(p, q) == schoolbook_mul(p, q)
        assert intpoly._mul_kronecker(p, p) == schoolbook_mul(p, p)

    def test_negative_leading_coefficient(self):
        rng = random.Random(7)
        p = [rng.randint(-999, 999) for _ in range(40)] + [-3]
        q = [rng.randint(-999, 999) for _ in range(40)] + [7]
        prod = intpoly._mul_kronecker(p, q)
        assert prod == schoolbook_mul(p, q)
        assert prod[-1] == -21

    @pytest.mark.parametrize("bits", [8, 16, 64])
    @pytest.mark.parametrize("length", [32, 128, 256])
    def test_byte_boundary_coefficients(self, bits, length):
        # coefficients of bit length 8j; |c| = 2^bits - 1 everywhere puts the
        # middle product coefficient on the digit bound length (2^bits - 1)^2,
        # of bit length 2 bits + 5, 2 bits + 7 = 8k - 1 and 2 bits + 8 = 8k
        m = (1 << bits) - 1
        for p, q in (([m] * length, [m] * length),
                     ([m] * length, [-m] * length),
                     ([m, -m] * (length // 2), [-m, m] * (length // 2)),
                     ([-(1 << (bits - 1))] * length, [1 << (bits - 1)] * length)):
            assert intpoly._mul_kronecker(p, q) == schoolbook_mul(p, q)

    def test_interior_zero_runs(self):
        p = [3, -1] + [0] * 50 + [-7, 0, 0, 2]
        q = [0] * 5 + [1] + [0] * 30 + [-1, 4]
        assert intpoly._mul_kronecker(p, q) == schoolbook_mul(p, q)
        assert intpoly._mul_kronecker(p, p) == schoolbook_mul(p, p)

    @settings(max_examples=100)
    @given(p=_int_polys(intpoly.KRONECKER_MIN_LEN - 1, intpoly.KRONECKER_MIN_LEN + 1),
           q=_int_polys(intpoly.KRONECKER_MIN_LEN - 1, intpoly.KRONECKER_MIN_LEN + 1))
    def test_threshold_and_edges_match_schoolbook(self, p, q):
        # both sides of KRONECKER_MIN_LEN through mul, and the packing itself
        ref = schoolbook_mul(p, q)
        assert intpoly.mul(p, q) == ref
        assert intpoly._mul_kronecker(p, q) == ref


class TestIntDivExact:
    @settings(max_examples=100)
    @given(p=_int_polys(1, 40), q=_int_polys(2, 40), data=st.data())
    def test_roundtrip_and_remainder(self, p, q, data):
        prod = intpoly.mul(p, q)
        assert intpoly.div_exact(prod, q) == p
        r = data.draw(_int_polys(1, len(q) - 1))
        with pytest.raises(NotDivisible):
            intpoly.div_exact(intpoly.add(prod, r), q)


def _prs_polys(max_deg):
    """Degree 0..max_deg, sparse, leading coefficient of either sign, times
    a content."""
    return st.builds(lambda cs, lc, k: [k * c for c in cs + [lc]],
                     st.lists(st.one_of(st.just(0), st.integers(-30, 30)),
                              max_size=max_deg),
                     st.integers(-30, 30).filter(bool),
                     st.sampled_from([1, -1, 2, -6, 35]))


def _res_oracle(p, q):
    """Sylvester determinant of two integer polys by the Z[a] Bareiss oracle,
    fed constant rows."""
    r = sylvester_resultant_poly([[c] if c else [] for c in p],
                                 [[c] if c else [] for c in q])
    return r[0] if r else 0


class TestSylvesterResultant:
    @settings(max_examples=150)
    @given(_prs_polys(10), _prs_polys(10))
    def test_matches_bareiss_oracle_both_orders(self, p, q):
        res = intpoly.sylvester_resultant(p, q)
        assert res == _res_oracle(p, q)
        assert intpoly.sylvester_resultant(q, p) == _res_oracle(q, p)
        # Res(q, p) = (-1)^(deg p deg q) Res(p, q)
        sign = (-1) ** ((len(p) - 1) * (len(q) - 1))
        assert intpoly.sylvester_resultant(q, p) == sign * res

    @settings(max_examples=60)
    @given(_prs_polys(3).filter(lambda f: len(f) > 1), _prs_polys(7), _prs_polys(7))
    def test_shared_factor_gives_zero(self, f, u, v):
        p, q = intpoly.mul(f, u), intpoly.mul(f, v)
        assert intpoly.sylvester_resultant(p, q) == 0 == _res_oracle(p, q)

    @given(_prs_polys(10))
    def test_zero_polynomial_gives_zero(self, p):
        assert intpoly.sylvester_resultant(p, []) == 0 == _res_oracle(p, [])
        assert intpoly.sylvester_resultant([], p) == 0 == _res_oracle([], p)

    def test_constants_and_abnormal_sequence(self):
        # two constants: the empty 0x0 determinant
        assert intpoly.sylvester_resultant([3], [5]) == 1 == _res_oracle([3], [5])
        # x^4 + 1 against x^2 + 1 (remainder degree drops by two), and a
        # negative leading coefficient on a non-primitive pair
        for p, q in (([1, 0, 0, 0, 1], [1, 0, 1]),
                     ([6, 0, -4, 0, 0, -2], [0, 9, 0, -3])):
            assert intpoly.sylvester_resultant(p, q) == _res_oracle(p, q)


def test_degree_cap():
    from qesquartic.errors import DegreeCapExceeded

    with pytest.raises(DegreeCapExceeded):
        intpoly.mul([1] * 60_000, [1] * 60_000)


# coefficient lists with small and wide numerators over small denominators
_FRACS = st.lists(st.builds(Fraction, st.one_of(st.integers(-60, 60), _WIDE),
                            st.integers(1, 36)), max_size=8)
_RATIONAL = st.fractions(-50, 50, max_denominator=30)


def _assert_canonical(p):
    num, den = p.num, p.den
    assert den > 0
    assert not num or num[-1] != 0
    assert math.gcd(intpoly.content(num), den) == 1
    if not num:
        assert den == 1


class TestIntegerKernel:
    """ExactPoly on integer numerators against per-coefficient Fractions."""

    @settings(max_examples=80)
    @given(p=_FRACS, q=_FRACS)
    def test_ring_operations(self, p, q):
        P_, Q_ = ExactPoly(p), ExactPoly(q)
        assert P_.coeffs == frac_trim(p)
        assert (P_ + Q_).coeffs == frac_add(frac_trim(p), frac_trim(q))
        assert (P_ - Q_).coeffs == frac_add(frac_trim(p), frac_trim(q), -1)
        assert (-P_).coeffs == frac_trim([-c for c in p])
        assert (P_ * Q_).coeffs == frac_mul(frac_trim(p), frac_trim(q))
        for r in (P_ + Q_, P_ - Q_, -P_, P_ * Q_):
            _assert_canonical(r)
        assert (P_ - P_) == ExactPoly.zero() and ((P_ - P_).num, (P_ - P_).den) == ([], 1)

    @settings(max_examples=80)
    @given(p=_FRACS, c=_RATIONAL)
    def test_scalars_and_equality(self, p, c):
        P_ = ExactPoly(p)
        assert (P_ * c).coeffs == frac_trim([x * c for x in p])
        assert (c * P_) == P_ * c
        assert (P_ + c).coeffs == frac_add(frac_trim(p), frac_trim([c]))
        assert ExactPoly(P_.coeffs) == P_
        assert hash(ExactPoly(P_.coeffs)) == hash(P_)

    @settings(max_examples=80)
    @given(p=_FRACS, k=st.integers(0, 4))
    def test_structural_maps(self, p, k):
        P_, cs = ExactPoly(p), frac_trim(p)
        assert P_.derivative().coeffs == frac_trim([i * c for i, c in enumerate(cs)][1:])
        assert P_.shift_up(k).coeffs == frac_trim([0] * k + cs)
        cube = [Fraction(0)] * (3 * len(cs))
        cube[::3] = cs
        assert P_.compose_cube().coeffs == frac_trim(cube)
        assert P_.negate_variable().coeffs == [c if i % 2 == 0 else -c
                                               for i, c in enumerate(cs)]
        for r in (P_.derivative(), P_.shift_up(k), P_.compose_cube(),
                  P_.negate_variable()):
            _assert_canonical(r)

    @settings(max_examples=80)
    @given(p=_FRACS, x=_RATIONAL)
    def test_call_at_rationals(self, p, x):
        P_ = ExactPoly(p)
        want = frac_horner(frac_trim(p), x)
        assert P_(x) == want
        if x.denominator == 1:
            assert P_(int(x)) == want

    def test_call_at_complex(self):
        P_ = ExactPoly([Fraction(1, 3), -2, 0, Fraction(5, 7)])
        z = 0.3 - 1.2j
        want = sum(complex(c) * z**k for k, c in enumerate(P_.coeffs))
        assert abs(P_(z) - want) < 1e-14 * abs(want)
        assert P_(0.5) == pytest.approx(float(frac_horner(P_.coeffs, Fraction(1, 2))))


class TestEvalAt:
    @settings(max_examples=100)
    @given(p=st.lists(st.one_of(_POWERS, _WIDE), max_size=10),
           num=st.integers(-10**12, 10**12), den=st.integers(1, 10**9))
    def test_matches_fraction_horner(self, p, num, den):
        p = intpoly.trim(list(p))
        want = frac_horner(p, Fraction(num, den)) * Fraction(den) ** max(len(p) - 1, 0)
        assert intpoly.eval_at(p, num, den) == want
        assert intpoly.eval_at(p, num, 1) == intpoly.eval_int(p, num) \
            == frac_horner(p, num)
        sign = intpoly.sign_at(p, Fraction(num, den))
        assert sign == (want > 0) - (want < 0)

    def test_small_cases(self):
        assert intpoly.eval_at([], 3, 2) == 0
        assert intpoly.eval_at([7], -3, 2) == 7
        # 1 - 2x + x^2 at -3/2: 4 * (25/4) = 25
        assert intpoly.eval_at([1, -2, 1], -3, 2) == 25
