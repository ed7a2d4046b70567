import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesquartic import intpoly, yv
from qesquartic.errors import NotDivisible
from qesquartic.exactpoly import ExactPoly

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


class TestExactPoly:
    def test_trims_compares_and_hashes(self):
        p = ExactPoly([4, 0, 0, 1, 0, 0])
        assert p.coeffs == (4, 0, 0, 1) and p.degree == 3
        assert p == ExactPoly((4, 0, 0, 1)) and hash(p) == hash(ExactPoly([4, 0, 0, 1]))
        assert p != ExactPoly([4, 0, 0, -1])
        assert ExactPoly([0, 0]).coeffs == () and ExactPoly([]).degree == -1

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), 1.0, 1 + 0j, [1]])
    def test_non_int_coefficients_rejected(self, c):
        with pytest.raises(TypeError):
            ExactPoly([1, c])

    def test_immutable_without_arithmetic(self):
        p = ExactPoly([1, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.coeffs = (2,)
        with pytest.raises(TypeError):
            p + p


class TestExactDiv:
    def test_monomial(self):
        # (t^3 + 4t) / t
        assert intpoly.div_exact([0, 4, 0, 1], [0, 1]) == [4, 0, 1]

    def test_yv_step_quotient(self):
        # frozen from the degree-3 recursion step: (t^7 + 20 t^4 - 80 t) / t
        assert intpoly.div_exact([0, -80, 0, 0, 20, 0, 0, 1], [0, 1]) == \
            [-80, 0, 0, 20, 0, 0, 1]

    def test_remainder_raises(self):
        with pytest.raises(NotDivisible):
            intpoly.div_exact([1, 0, 1], [1, 1])

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(60):
            p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))] + [rng.randint(1, 4)]
            q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 4)]
            assert intpoly.div_exact(intpoly.mul(p, q), q) == p


@st.composite
def _split_real_polys(draw):
    """(coeffs, real roots): up to six distinct real roots k or k/3 in
    [-20, 20] and complex pairs u +- iv with v >= 1, times a small leading
    factor."""
    real = draw(st.lists(st.fractions(-20, 20).filter(lambda r: r.denominator in (1, 3)),
                         unique=True, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(-10, 10), st.integers(1, 5)),
                          min_size=0 if real else 1, max_size=2, unique=True))
    p = [draw(st.sampled_from([1, -1, 3, -7]))]
    for r in real:
        p = intpoly.mul(p, [-r.numerator, r.denominator])
    for u, v in pairs:
        p = intpoly.mul(p, [u * u + v * v, -2 * u, 1])
    return p, real


# lo < hi, each k + 1/2 (never a root k or k/3) or infinite
_INTERVAL = st.lists(st.one_of(st.integers(-24, 23).map(lambda k: Fraction(2 * k + 1, 2)),
                               st.sampled_from([-math.inf, math.inf])),
                     min_size=2, max_size=2, unique=True).map(sorted)


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
        p = [[0, -1], [1]]          # an (x, a) grid, not an exact polynomial
        with pytest.raises(TypeError):
            ExactPoly(p)

    @pytest.mark.parametrize("p, q", [([], [1, 2]), ([1, 2], []), ([], [])])
    def test_zero_polynomial_gives_zero(self, p, q):
        assert intpoly.sylvester_resultant(p, q) == 0

    def test_discriminant_of_zero_is_zero(self):
        assert intpoly.sylvester_resultant([], intpoly.deriv([])) == 0

    def test_discriminant_detects_multiple_roots(self):
        def disc(p):
            return intpoly.sylvester_resultant(p, intpoly.deriv(p))

        rng = random.Random(5)
        for _ in range(25):
            # build a polynomial with a known double root r
            r = rng.randint(-5, 5)
            s = rng.randint(-5, 5)
            assert disc(intpoly.mul([r * r, -2 * r, 1], [-s, 1])) == 0
            # and a squarefree one with distinct roots
            q = [1]
            for rt in rng.sample(range(-20, 20), 3):
                q = intpoly.mul(q, [-rt, 1])
            assert disc(q) != 0


def _contains_one_root_each(intervals, roots):
    roots = sorted(roots)
    return len(intervals) == len(roots) and all(
        a < r <= b for (a, b), r in zip(intervals, roots))


class TestRealRoots:
    def test_simple_quadratic(self):
        assert _contains_one_root_each(intpoly.isolate_real_roots([-1, 0, 1]), [-1, 1])

    def test_no_real_roots(self):
        assert intpoly.isolate_real_roots([1, 0, 1]) == []

    def test_shifted_linear(self):
        # the l=1 member of the zero-parameter family at n=5: xi + 40
        assert _contains_one_root_each(intpoly.isolate_real_roots([40, 1]), [-40])

    def test_not_squarefree(self):
        # the repeated factor x + 1 of (x + 1)^2, as certify_interlacing finds it
        p = [1, 2, 1]
        assert intpoly.gcd(p, intpoly.deriv(p)) == [1, 1]

    @settings(max_examples=80)
    @given(_split_real_polys(), _INTERVAL)
    def test_count_matches_numpy_oracle(self, poly, interval):
        coeffs, real = poly
        lo, hi = interval
        count = intpoly.sturm_count(intpoly.sturm_sequence(coeffs), lo, hi)
        assert count == numpy_real_root_count(coeffs, lo, hi)
        assert count == sum(lo < r <= hi for r in real)
        assert _contains_one_root_each(intpoly.isolate_real_roots(coeffs), real)


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

    @pytest.mark.parametrize("bits", [5, 13, 29, 61])
    @pytest.mark.parametrize("length, top", [(32, 15), (64, 0)])
    def test_two_point_digit_boundary(self, bits, length, top):
        # |c| = 2^bits - 1 everywhere: the middle product coefficient is the
        # bound length (2^bits - 1)^2, of bit length 2 bits + 5 = 16k - 1
        # (length 32) or 2 bits + 6 = 16k (length 64) for the two-point digit
        m = (1 << bits) - 1
        assert (length * m * m).bit_length() % 16 == top
        for p, q in (([m] * length, [m] * length),
                     ([m] * length, [-m] * length),
                     ([m, -m] * (length // 2), [-m, m] * (length // 2))):
            assert intpoly._mul_kronecker(p, q) == schoolbook_mul(p, q)
            assert intpoly._mul_kronecker(p, p) == schoolbook_mul(p, p)

    def test_input_width_sets_the_digit(self):
        # 200-bit coefficients against units: the product bound asks for 13
        # bytes per digit, the wide operand for 26
        rng = random.Random(8)
        wide = [rng.choice([-1, 1]) * rng.getrandbits(200) for _ in range(40)]
        wide[5] = -(1 << 199)
        unit = [rng.choice([-1, 0, 1]) for _ in range(33)] + [1]
        assert intpoly._mul_kronecker(wide, unit) == schoolbook_mul(wide, unit)
        assert intpoly._mul_kronecker(unit, wide) == schoolbook_mul(unit, wide)

    @pytest.mark.parametrize("p, q", [([7], [-9]), ([-3], [-1 << 70]),
                                      ([2, -5], [3]), ([1 << 90], [-1, 1])])
    def test_one_and_two_coefficient_products(self, p, q):
        # an empty odd part, and a single odd coefficient
        assert intpoly._mul_kronecker(p, q) == schoolbook_mul(p, q)
        assert intpoly._mul_kronecker(p, p) == schoolbook_mul(p, p)

    def test_alternating_sign_square(self):
        # p(-x) has one sign throughout: the -X packing carries no borrows
        rng = random.Random(9)
        p = [(-1) ** i * rng.randint(1, 10**30) for i in range(77)]
        assert intpoly._mul_kronecker(p, p) == schoolbook_mul(p, p)

    def test_two_point_digit_is_half_the_product_width(self, monkeypatch):
        # squaring the g of YV_29 (as YV_30's step does) packs at about half
        # the bytes a one-point digit holding the whole product bound needs
        ys = yv._yv_int_coeffs(30)
        packed = []
        pack = intpoly._pack
        monkeypatch.setattr(intpoly, "_pack",
                            lambda p, k: packed.append((p, k)) or pack(p, k))
        assert yv._step(ys[29], ys[28]) == ys[30]
        g, k = packed[0]
        bound = max(map(abs, g)) ** 2 * len(g)
        assert k <= (bound.bit_length() + 8) // 8 // 2 + 1

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

    @settings(max_examples=150)
    @given(_prs_polys(10), _prs_polys(10), st.sampled_from([101, 2**61 - 1]))
    def test_mod_p_matches_exact(self, p, q, m):
        # no leading coefficient of _prs_polys is divisible by either prime;
        # mod 101 a remainder's leading coefficient can vanish
        assert intpoly.resultant_mod(p, q, m) == intpoly.sylvester_resultant(p, q) % m

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


# int coefficient lists, small and wide, with zeros that trimming must drop
_INTS = st.lists(st.one_of(st.just(0), st.integers(-60, 60), _WIDE), max_size=8)


class TestIntegerKernel:
    """intpoly's ring operations on int lists against per-coefficient
    Fractions."""

    @settings(max_examples=80)
    @given(p=_INTS, q=_INTS)
    def test_ring_operations(self, p, q):
        fp, fq = frac_trim(p), frac_trim(q)
        P_, Q_ = intpoly.trim(list(p)), intpoly.trim(list(q))
        assert P_ == fp
        assert intpoly.add(P_, Q_) == frac_add(fp, fq)
        assert intpoly.add(P_, intpoly.neg(Q_)) == frac_add(fp, fq, -1)
        assert intpoly.neg(P_) == frac_trim([-c for c in p])
        assert intpoly.mul(P_, Q_) == frac_mul(fp, fq)
        assert intpoly.add(P_, intpoly.neg(P_)) == []

    @settings(max_examples=80)
    @given(p=_INTS, c=st.one_of(st.integers(-50, 50), _WIDE))
    def test_scalars_and_equality(self, p, c):
        P_ = intpoly.trim(list(p))
        assert intpoly.scale(P_, c) == frac_trim([x * c for x in p])
        assert intpoly.add(P_, [c]) == frac_add(frac_trim(p), frac_trim([c]))
        assert ExactPoly(p) == ExactPoly(P_) == ExactPoly(P_ + [0])
        assert hash(ExactPoly(p)) == hash(ExactPoly(P_))

    @settings(max_examples=80)
    @given(p=_INTS, k=st.integers(0, 4))
    def test_structural_maps(self, p, k):
        cs = intpoly.trim(list(p))
        assert intpoly.deriv(cs) == frac_trim([i * c for i, c in enumerate(cs)][1:])
        if cs:
            # x^k cs(x^3) splits back into its lowest degree and cs's tail
            low = next(j for j, c in enumerate(cs) if c)
            cube = [0] * (3 * len(cs))
            cube[::3] = cs
            assert intpoly.split_cube(intpoly.trim([0] * k + cube)) == \
                (k + 3 * low, cs[low:])


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
