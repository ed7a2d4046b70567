import hashlib

import numpy as np
import pytest

from qesquartic import verify, yv
from qesquartic.errors import NotDivisible, StructureViolation, TooClose
from qesquartic.exactpoly import ExactPoly

from oracles import yv_tform


class TestGeneration:
    def test_low_members(self):
        seq = yv.yv_generate(4)
        assert seq[0] == ExactPoly([1], "t")
        assert seq[1] == ExactPoly([0, 1], "t")
        assert seq[2] == ExactPoly([4, 0, 0, 1], "t")
        assert seq[3] == ExactPoly([-80, 0, 0, 20, 0, 0, 1], "t")
        assert seq[4] == ExactPoly([0, 11200, 0, 0, 0, 0, 0, 60, 0, 0, 1], "t")

    def test_degrees_and_divisibility(self):
        # generation itself enforces exact divisibility at every step
        seq = yv.yv_generate(20)
        for n in range(21):
            assert seq[n].degree == n * (n + 1) // 2

    def test_monic_integer(self):
        seq = yv.yv_generate(12)
        for p in seq.polys:
            assert p.leading() == 1
            assert all(c.denominator == 1 for c in p.coeffs)

    @pytest.mark.parametrize("n", [5, 9, 14, 20])
    def test_coefficient_support_mod3(self, n):
        assert yv.coefficient_support_mod3_ok(n)

    def test_members_built_once(self, monkeypatch):
        first = yv._yv_int_coeffs(30)
        for n in range(1, 11):
            yv.painleve_residual(n, 0.3 + 0.2j)
        built = []
        div_exact = yv.intpoly.div_exact
        monkeypatch.setattr(yv.intpoly, "div_exact",
                            lambda p, q: built.append(q) or div_exact(p, q))
        assert yv._yv_int_coeffs(30) == first
        assert built == []

    def test_matches_t_form_oracle(self):
        assert yv._yv_int_coeffs(15) == tuple(yv_tform(15))

    def test_members_0_to_40_bit_identical(self):
        # SHA-256 of YV_0..YV_40: each poly's ascending decimal coefficients
        # joined by ",", the polys joined by ";"
        enc = ";".join(",".join(str(c) for c in cs)
                       for cs in yv._yv_int_coeffs(40)[:41])
        assert hashlib.sha256(enc.encode()).hexdigest() == (
            "c5b81706ab379aa75137890fe6ef1ec17779c54cc78e08b4207e9f808dc3d655")

    @pytest.mark.parametrize("start, n", [
        ([(1,), (0, 1), (5, 0, 0, 1)], 4),   # t^3 + 5 does not divide numerator 4
        ([(0, 0, 1), (1, 0, 0, 1)], 2),      # t^2 does not: a pole at t = 0
    ], ids=["g", "power-of-t"])
    def test_non_exact_step_raises(self, start, n, monkeypatch):
        monkeypatch.setattr(yv, "_YV", start)
        with pytest.raises(NotDivisible):
            yv._yv_int_coeffs(n)

    def test_mixed_support_refused(self, monkeypatch):
        monkeypatch.setattr(yv, "_YV", [(1,), (0, 1), (5, 1, 0, 1)])
        with pytest.raises(StructureViolation):
            yv._yv_int_coeffs(3)


class TestZeros:
    def test_first(self):
        z = yv.yv_zeros(1)
        assert len(z.points) == 1
        assert abs(z.points[0]) == 0

    def test_second_cube_roots(self):
        z = np.sort_complex(yv.yv_zeros(2).points)
        targets = np.sort_complex(np.roots([1, 0, 0, 4]))
        assert np.abs(z - targets).max() < 1e-10

    def test_negative_n_refused(self):
        with pytest.raises(ValueError):
            yv.yv_zeros(-1)

    def test_count_matches_degree(self):
        for n in (4, 7, 10):
            assert len(yv.yv_zeros(n).points) == n * (n + 1) // 2

    def test_zero_root_multiplicity(self):
        # deg YV_4 = 10 == 1 mod 3: exactly one zero at the origin
        z = yv.yv_zeros(4).points
        assert int((np.abs(z) < 1e-12).sum()) == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            yv.yv_zeros(61)

    def test_cache_roundtrip(self, tmp_cache):
        a = yv.yv_zeros(25, cache_dir=tmp_cache).points
        b = yv.yv_zeros(25, cache_dir=tmp_cache).points
        assert np.array_equal(a, b)


class TestScaledZeros:
    def test_n2_value(self):
        ps = yv.scaled_zeros(2)
        expect = 4 ** (1 / 3) / ((9 / 2) ** (2 / 3) * 2 ** (2 / 3))
        assert abs(ps.max_modulus() - expect) < 1e-12

    def test_growth_trend(self):
        # the scaled max modulus rises from below toward the corner limit
        # (27/2)^(1/3) / (9/2)^(2/3) = (2/3)^(1/3), not toward 1
        r10 = yv.scaled_zeros(10).max_modulus()
        r20 = yv.scaled_zeros(20).max_modulus()
        assert r10 < r20 < (2 / 3) ** (1 / 3)

    def test_corner_limit_extrapolation(self):
        # c(n) = max|zeros_n|/n^(2/3) approaches its limit like L - A n^(-p);
        # Aitken's delta-squared over n = 6, 12, 24 eliminates A and p.  The
        # limit (27/2)^(1/3) is where 2U^3 + yU + 1 = 0, the leading balance
        # of u'' = 2u^3 + tu + n at t = n^(2/3) y, u = n^(1/3) U, branches.
        c6, c12, c24 = (yv.yv_zeros(n).max_modulus() / n ** (2 / 3)
                        for n in (6, 12, 24))
        d1, d2 = c12 - c6, c24 - c12
        assert 0 < d2 < d1
        limit = c24 + d2 * d2 / (d1 - d2)
        assert abs(limit - (27 / 2) ** (1 / 3)) < 1e-3

    def test_verify_band_reports_corner_ratio(self):
        # n = 16 (the --fast size) sits 11.5% short of the corner limit
        rec = verify.criterion_yv_scaling_band(16)
        ratio = yv.yv_zeros(16).max_modulus() / ((27 / 2) ** (1 / 3)
                                                 * 16 ** (2 / 3))
        assert not rec["passed"]
        assert f"= {ratio:.4f}" in rec["detail"]


class TestPainleve:
    def test_reciprocal_solution(self):
        # u(t; 1) = -1/t
        assert yv.painleve_rational(1, [2.0])[0] == pytest.approx(-0.5)

    def test_n2_value(self):
        # 1/t - 3t^2/(t^3+4) at t=1
        assert yv.painleve_rational(2, [1.0])[0] == pytest.approx(0.4)

    def test_pole_guard(self):
        with pytest.raises(TooClose):
            yv.painleve_rational(2, [(-4) ** (1 / 3) + 0j])

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_ode_residual(self, n):
        # samples keep a margin from the poles (zeros of either polynomial),
        # as the operation's precondition requires
        poles = np.concatenate([yv.yv_zeros(n - 1).points if n >= 2 else [],
                                yv.yv_zeros(n).points])
        rng = np.random.RandomState(n)
        done = 0
        while done < 6:
            t = complex(rng.uniform(0.4, 2.2), rng.uniform(-0.6, 0.6))
            if len(poles) and np.abs(t - poles).min() < 0.25:
                continue
            assert yv.painleve_residual(n, t) < 1e-6
            done += 1
