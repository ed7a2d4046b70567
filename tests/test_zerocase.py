import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qesquartic import intpoly, zerocase
from qesquartic.errors import MultipleRoot
from qesquartic.exactpoly import ExactPoly
from qesquartic.spectral import spectral_polynomial
from qesquartic.zerocase import (
    _all_roots_negative_simple,
    _negative_if_real_rooted,
    _pqr_lists,
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


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends to the returned list."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, spy)
    return calls


class TestNegativityFromInterlacing:
    @pytest.mark.parametrize("n", [*range(3, 31), *range(40, 45)])
    def test_matches_sturm_oracle(self, n):
        triples = _pqr_lists(n, n // 3)
        for e in certify_all(n)["pqr"]:
            for name, F in zip("PQR", triples[e["l"]]):
                assert e[f"{name}_neg_simple"] == \
                    _all_roots_negative_simple(F), (n, e["l"], name)

    def test_no_sturm_sequence_at_n40(self, monkeypatch):
        calls = _count_calls(monkeypatch, intpoly, "sturm_sequence")
        certify_all(40)
        assert calls == []

    def test_uncovered_polynomial_falls_back_to_sturm(self, monkeypatch):
        n = 20
        triples = _pqr_lists(n, n // 3)
        qr_pairs = [(Q, R) for _, Q, R in triples[1:]]
        real = zerocase.certify_interlacing

        def qr_not_interlacing(p, q):
            if (p, q) in qr_pairs:
                return "not-interlacing"
            return real(p, q)
        monkeypatch.setattr(zerocase, "certify_interlacing", qr_not_interlacing)
        calls = _count_calls(monkeypatch, intpoly, "sturm_sequence")
        rec = certify_all(n)
        assert len(calls) == len(rec["pqr"])
        for e in rec["pqr"]:
            assert e["Q_R"] == "not-interlacing"
            assert e["R_neg_simple"] == \
                _all_roots_negative_simple(triples[e["l"]][2])

    def test_nonnegative_root_fails_sign_rule(self):
        p = from_roots([-3, -1, 2], 1)
        q = from_roots([-2, 1], 1)
        assert certify_interlacing(p, q) == "interlacing-with-largest-in-p"
        for u in (p, q):
            assert _negative_if_real_rooted(u) is False
            assert _all_roots_negative_simple(u) is False

    @settings(max_examples=60)
    @given(interlaced_roots(), LEADING, LEADING)
    def test_sign_rule_matches_sturm(self, roots, cp, cq):
        for rs, lc in zip(roots, (cp, cq)):
            u = from_roots(rs, lc)
            assert _negative_if_real_rooted(u) == _all_roots_negative_simple(u)
