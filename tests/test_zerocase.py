import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qesquartic import intpoly
from qesquartic.errors import MultipleRoot
from qesquartic.exactpoly import ExactPoly
from qesquartic.spectral import spectral_polynomial
from qesquartic.zerocase import (
    certify_all,
    certify_interlacing,
    factor_structure,
    pqr_matches_factor,
    pqr_sequences,
)


def xi_poly(*coeffs):
    return ExactPoly(list(coeffs))


class TestPQRSequences:
    @pytest.mark.parametrize("n", [3, 5, 6, 9, 14])
    def test_first_triple(self, n):
        t = pqr_sequences(n)[1]
        assert t.P == xi_poly(2 * n * n - 2 * n, 1)
        assert t.Q == xi_poly(8 * n * n - 20 * n + 12, 1)
        assert t.R == xi_poly(20 * n * n - 80 * n + 84, 1)

    def test_monic_degrees(self):
        for n in (6, 10, 13):
            for tr in pqr_sequences(n):
                for fam in (tr.P, tr.Q, tr.R):
                    assert fam.degree == tr.l
                    assert fam.coeffs[-1] == 1

    def test_positive_coefficients(self):
        for n in (9, 12):
            for tr in pqr_sequences(n):
                if 3 * tr.l > n:
                    continue
                for fam in (tr.P, tr.Q, tr.R):
                    assert all(c > 0 for c in fam.coeffs)


class TestFactorStructure:
    def test_n2(self):
        r, q = factor_structure(2)
        assert r == 0
        assert q == xi_poly(-4, 1)

    def test_n1(self):
        r, q = factor_structure(1)
        assert r == 2
        assert q == ExactPoly([1])

    def test_n3(self):
        r, q = factor_structure(3)
        assert r == 1
        assert q.degree == 1
        # the brute-force determinant gives x^4 - 24x, i.e. q = xi - 24
        assert q == xi_poly(-24, 1)

    @pytest.mark.parametrize("n", list(range(1, 30)))
    def test_reconstruction(self, n):
        r, q = factor_structure(n)
        rebuilt = [0] * (r + 3 * q.degree + 1)
        rebuilt[r::3] = [(-1) ** (n + 1) * c for c in q.coeffs]
        assert ExactPoly(rebuilt) == spectral_polynomial(n, 0)

    @pytest.mark.parametrize("n", list(range(1, 25)))
    def test_matches_triple_convention(self, n):
        assert pqr_matches_factor(n)


class TestInterlacing:
    def test_quadratic_pair(self):
        v = certify_interlacing([1, 3, 1], [1, 1])
        assert v == "interlacing-with-largest-in-p"

    def test_no_real_roots(self):
        v = certify_interlacing([1, 0, 1], [0, 1])
        assert v == "not-interlacing"

    def test_recurrence_pair_n6(self):
        tr = pqr_sequences(6)
        v = certify_interlacing(list(tr[2].P.coeffs), list(tr[1].P.coeffs))
        assert v == "interlacing-with-largest-in-p"

    def test_multiple_root_raises(self):
        with pytest.raises(MultipleRoot):
            certify_interlacing([1, 2, 1], [1, 1])

    def test_wrong_order_detected(self):
        # same roots, swapped ownership of the largest
        assert certify_interlacing([2, 1], [1, 1]) == "not-interlacing"
        assert certify_interlacing([1, 1], [2, 1]) == \
            "interlacing-with-largest-in-p"


@st.composite
def interlaced_roots(draw):
    """(p roots, q roots): distinct integers, the largest in p, alternating
    below it; deg q = deg p or deg p - 1."""
    d = draw(st.integers(1, 6))
    k = 2 * d if draw(st.booleans()) else 2 * d - 1
    roots = sorted(draw(st.sets(st.integers(-60, 60), min_size=k, max_size=k)))
    return roots[::-2], roots[-2::-2]


def from_roots(roots, lc):
    poly = [lc]
    for r in roots:
        poly = intpoly.mul(poly, [-r, 1])
    return poly


LEADING = st.sampled_from([1, -1, 3, -7])


class TestInterlacingProperties:
    @settings(max_examples=60)
    @given(interlaced_roots(), LEADING, LEADING)
    def test_interlacing(self, roots, cp, cq):
        p_roots, q_roots = roots
        v = certify_interlacing(from_roots(p_roots, cp), from_roots(q_roots, cq))
        assert v == "interlacing-with-largest-in-p"

    @settings(max_examples=30)
    @given(interlaced_roots(), LEADING, LEADING)
    def test_swapped(self, roots, cp, cq):
        p_roots, q_roots = roots
        assume(len(p_roots) == len(q_roots))
        v = certify_interlacing(from_roots(q_roots, cq), from_roots(p_roots, cp))
        assert v == "not-interlacing"

    @settings(max_examples=60)
    @given(interlaced_roots(), LEADING, LEADING, st.data())
    def test_shifted_root(self, roots, cp, cq, data):
        # one root of q moved above the largest root of p
        p_roots, q_roots = roots
        assume(q_roots)
        i = data.draw(st.integers(0, len(q_roots) - 1))
        q_roots[i] = max(p_roots) + data.draw(st.integers(1, 5))
        v = certify_interlacing(from_roots(p_roots, cp), from_roots(q_roots, cq))
        assert v == "not-interlacing"

    @settings(max_examples=60)
    @given(interlaced_roots(), LEADING, LEADING, st.data())
    def test_shared_root(self, roots, cp, cq, data):
        p_roots, q_roots = roots
        assume(q_roots)
        i = data.draw(st.integers(0, len(q_roots) - 1))
        q_roots[i] = data.draw(st.sampled_from(p_roots))
        v = certify_interlacing(from_roots(p_roots, cp), from_roots(q_roots, cq))
        assert v == "not-interlacing"


class TestCertifyAll:
    @pytest.mark.parametrize("n", [7, 18, 33])
    def test_everything_holds(self, n):
        rec = certify_all(n)
        assert rec["structure_ok"]
        for e in rec["pqr"]:
            for key, val in e.items():
                if key == "l":
                    continue
                assert val is True or val in (
                    "interlacing-with-largest-in-p", "degenerate-equal"
                ), (n, e)

    def test_report_shape(self):
        rec = certify_all(9)
        assert rec["n"] == 9
        assert len(rec["pqr"]) == 3
        assert certify_all(9) == rec
