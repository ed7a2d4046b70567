import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from oracles import bivariate_at, eigs_poly_unseeded, gaussian_at, grid_degrees
from qesquartic import rootfind, spectral
from qesquartic.errors import TooClose
from qesquartic.exactpoly import ExactPoly
from qesquartic.spectral import (
    DENSE_EIG_MAX_N,
    build_matrices,
    build_matrix,
    charpoly_bivariate,
    empirical_cauchy,
    eigenvalues,
    scaled_spectrum,
    spectral_polynomial,
)
from qesquartic.verify import charpoly_cofactor
from qesquartic.zerocase import factor_structure


def multiset_dev(a, b):
    D = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    ri, ci = linear_sum_assignment(D)
    return D[ri, ci].max()


class TestMatrix:
    def test_smallest(self):
        M = build_matrix(1, 3.0)
        assert np.allclose(M, [[0, 3], [1, 0]])

    def test_n2_pattern(self):
        M = build_matrix(2, 1.0)
        assert np.allclose(M, [[0, 1, 2], [2, 0, 2], [0, 1, 0]])

    def test_second_superdiagonal(self):
        M = build_matrix(4, 0.0)
        band = [M[i, i + 2].real for i in range(3)]
        assert band == [2.0, 6.0, 12.0]

    def test_trace_zero(self):
        for n in (1, 5, 17):
            assert abs(np.trace(build_matrix(n, 2 - 1j))) == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 80, 84])
    def test_stacked_builder_bitwise(self, n):
        # each slice of the stacked build is the matrix entry by entry in
        # scalar complex arithmetic, signed zeros included
        rng = np.random.default_rng(n)
        avals = [0, -0.0, complex(-0.0, -2.0), -2j, 3, 0.5 - 0.5j] + list(
            rng.normal(size=4) + 1j * rng.normal(size=4))
        stack = build_matrices(n, [complex(a) for a in avals])
        assert stack.shape == (len(avals), n + 1, n + 1)
        for a, S in zip(avals, stack):
            ref = np.zeros((n + 1, n + 1), dtype=complex)
            for i in range(n):
                ref[i + 1, i] = n - i
                ref[i, i + 1] = (i + 1) * complex(a)
            for i in range(n - 1):
                ref[i, i + 2] = (i + 1) * (i + 2)
            M = build_matrix(n, a)
            for X in (M, S):
                assert np.array_equal(X, ref)
                assert np.array_equal(np.signbit(X.real), np.signbit(ref.real))
                assert np.array_equal(np.signbit(X.imag), np.signbit(ref.imag))


class TestSpectralPolynomial:
    def test_n1(self):
        # x^2 - a, here at a=0 and at a=5; at a = 1/2 scaled by q = 2
        assert spectral_polynomial(1, 0) == ExactPoly([0, 0, 1])
        assert spectral_polynomial(1, 5) == ExactPoly([-5, 0, 1])
        assert spectral_polynomial(1, Fraction(1, 2)) == ExactPoly([-1, 0, 2])

    def test_n2_at_zero(self):
        assert spectral_polynomial(2, 0) == ExactPoly([4, 0, 0, -1])

    def test_n2_symbolic(self):
        # the (x, a) grid is charpoly_bivariate's; spectral_polynomial takes
        # only an exact a
        assert charpoly_bivariate(2) == [[4], [0, 4], [], [-1]]
        with pytest.raises(TypeError):
            spectral_polynomial(2, None)

    def test_degrees(self):
        for n in (1, 2, 3, 4, 5, 8, 11):
            assert grid_degrees(charpoly_bivariate(n)) == (n + 1, (n + 1) // 2, n + 1)

    def test_recurrence_equals_cofactor_oracle(self):
        # spectral_polynomial is det(M - x I) times q^floor((n+1)/2), a = u/q
        rng = random.Random(41)
        for _ in range(12):
            n = rng.randint(1, 9)
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            scale = a.denominator ** ((n + 1) // 2)
            assert spectral_polynomial(n, a).coeffs == \
                tuple(scale * c for c in charpoly_cofactor(n, a))

    @pytest.mark.parametrize("a", [0, 1, -2, 7, Fraction(3, 7), Fraction(-5, 3),
                                   Fraction(1, 2), Fraction(40, 11), 3 / 8 - 5j / 4,
                                   -2j, (0.5 - 0.5j) * 84 ** (2 / 3)])
    def test_fixed_a_recurrence_equals_bivariate_grid(self, a):
        # the univariate route at a rational a is what criterion 2 checks
        # against the cofactor oracle; this keeps sigma's bivariate grid
        # checked against it.  A complex double is the Gaussian rational
        # (u + iv)/q, q = 2^e, and the spectra's pairs are the grid's values
        # there times q^floor((n+1)/2)
        for n in range(1, 31):
            grid = charpoly_bivariate(n)
            if not isinstance(a, complex):
                scale = Fraction(a).denominator ** ((n + 1) // 2)
                assert list(spectral_polynomial(n, a).coeffs) == [
                    scale * c for c in bivariate_at(grid, a)]
                continue
            re, im = Fraction(a.real), Fraction(a.imag)
            scale = max(re.denominator, im.denominator) ** ((n + 1) // 2)
            assert spectral.charpoly_coeffs_mp(n, a) == [
                (scale * x, scale * y) for x, y in gaussian_at(grid, re, im)]


class TestEigenvalues:
    def test_n1(self):
        ev = eigenvalues(1, 4.0).points
        assert multiset_dev(ev, [-2, 2]) < 1e-12

    def test_n2_cube_roots(self):
        ev = eigenvalues(2, 0.0).points
        w = np.exp(2j * np.pi / 3)
        r = 4 ** (1 / 3)
        assert multiset_dev(ev, [r, r * w, r * w**2]) < 1e-10

    def test_rotation_symmetry_dense(self):
        ev = eigenvalues(60, 0.0).points
        w = np.exp(2j * np.pi / 3)
        assert multiset_dev(ev, w * ev) < 1e-8

    def test_rotation_symmetry_large(self, tmp_cache):
        ev = eigenvalues(200, 0.0, cache_dir=tmp_cache).points
        w = np.exp(2j * np.pi / 3)
        assert multiset_dev(ev, w * ev) < 1e-8 * 200 ** (4 / 3)

    def test_conjugation_closure(self):
        for n, a in ((12, 1.5), (40, 0.3)):
            ev = eigenvalues(n, a).points
            assert multiset_dev(ev, np.conj(ev)) < 1e-8

    def test_trace_and_determinant(self):
        for n in (6, 25, 60):
            a = Fraction(7, 3)
            ev = eigenvalues(n, float(a)).points
            assert abs(ev.sum()) < 1e-8 * np.abs(ev).max() * (n + 1)
            det = spectral_polynomial(n, a).coeffs[0] / a.denominator ** ((n + 1) // 2)
            prod = complex(np.prod(ev))
            assert abs(prod - det) < 1e-8 * abs(det)

    def test_cap(self):
        with pytest.raises(ValueError):
            eigenvalues(401, 0.0)

    @pytest.mark.parametrize("n, a", [(10, float("nan")),
                                      (84, complex(0.5, float("inf")))])
    def test_non_finite_a_refused(self, tmp_cache, n, a):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(n, a, cache_dir=tmp_cache)
        assert list(Path(tmp_cache).iterdir()) == []

    # one n of each route: the dense eigensolve and the polynomial route
    @pytest.mark.parametrize("n", [10, DENSE_EIG_MAX_N + 1])
    def test_damaged_cache_entry_is_recomputed(self, tmp_cache, n):
        a = 0.5 - 0.5j
        first = eigenvalues(n, a, cache_dir=tmp_cache).points
        (path,) = Path(tmp_cache).glob(f"eigs-*-{n}.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        again = eigenvalues(n, a, cache_dir=tmp_cache).points
        assert np.array_equal(first, again)
        assert path.read_text() == text

    @pytest.mark.parametrize("n", [10, DENSE_EIG_MAX_N])
    def test_warm_dense_call_runs_no_eigensolve(self, tmp_cache, monkeypatch, n):
        a = 0.5 - 0.5j
        first = eigenvalues(n, a, cache_dir=tmp_cache).points

        def refused(M):
            raise AssertionError("a warm call ran the dense eigensolve")

        monkeypatch.setattr(spectral.np.linalg, "eig", refused)
        again = eigenvalues(n, a, cache_dir=tmp_cache).points
        assert first.tobytes() == again.tobytes()

    def test_close_parameters_get_distinct_entries(self, tmp_cache):
        # 0.3 and 0.1 + 0.2 differ in the last bit only
        eigenvalues(81, 0.3, cache_dir=tmp_cache)
        eigenvalues(81, 0.1 + 0.2, cache_dir=tmp_cache)
        names = sorted(p.name for p in Path(tmp_cache).glob("eigs-*-81.json"))
        assert names == ["eigs-0p30000000000000004_0-81.json", "eigs-0p3_0-81.json"]

    @pytest.mark.parametrize("n", [10, DENSE_EIG_MAX_N + 1])
    def test_signed_zero_shares_one_entry(self, tmp_cache, n):
        # -2j is complex(-0.0, -2.0)
        first = eigenvalues(n, -2j, cache_dir=tmp_cache).points
        again = eigenvalues(n, complex(0, -2), cache_dir=tmp_cache).points
        names = [p.name for p in Path(tmp_cache).glob("eigs-*.json")]
        assert names == [f"eigs-0_m2-{n}.json"]
        assert np.array_equal(first, again)


N_SEED = DENSE_EIG_MAX_N + 4     # the smallest n above the threshold


class TestDenseSeed:
    # the criterion-11 parameters a0 n^(2/3), balanced at t = |a|; a small
    # and a unit |a|, balanced at t = (n/2)^(2/3); and a tiny |a|, where
    # balancing at t = |a| would not converge
    @pytest.mark.parametrize("a", [
        *(pytest.param(a0 * N_SEED ** (2 / 3), id=str(a0))
          for a0 in ((1 - 1j) / 2, 2 / 3 - 1j, 4 / 5 - 2j / 3)),
        0.05j, (1 + 1j) / 2 ** 0.5, 1e-200j])
    def test_seeded_roots_equal_unseeded(self, a):
        n = N_SEED
        got = np.sort_complex(spectral._eigs_poly_general(n, a))
        ref = np.sort_complex(eigs_poly_unseeded(n, a))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_no_bivariate_grid(self, tmp_cache, monkeypatch):
        # the spectra run the recurrence at the given a; only the branching
        # points need the (x, a) grid
        calls = []
        grid = spectral.charpoly_bivariate
        monkeypatch.setattr(spectral, "charpoly_bivariate",
                            lambda n: calls.append(n) or grid(n))
        eigenvalues(N_SEED, 0.5 - 0.5j, cache_dir=tmp_cache)
        assert len(list(Path(tmp_cache).glob("eigs-*.json"))) == 1
        assert calls == []

    @pytest.mark.parametrize("eigvals", ["raises", "nan", "count"])
    def test_failed_eigensolve_falls_back_to_newton_polygon(self, monkeypatch,
                                                           eigvals):
        def broken(M):
            if eigvals == "raises":
                raise np.linalg.LinAlgError("no convergence")
            if eigvals == "nan":
                return np.full(len(M), np.nan, dtype=complex)
            return np.ones(len(M) - 1, dtype=complex)

        seen = []
        aberth = rootfind.aberth_roots

        def spy(coeffs, init=None):
            seen.append(init)
            return aberth(coeffs, init=init)

        # the same exact coefficients from Newton-polygon starts, bit for bit;
        # at a = 0 those of the cubic factor
        n, a = 12, 1.5 - 0.5j
        refs = [rootfind.aberth_roots(spectral.charpoly_coeffs_mp(n, a)),
                rootfind.threefold_roots(list(spectral_polynomial(n, 0).coeffs))]
        monkeypatch.setattr(spectral.np.linalg, "eigvals", broken)
        monkeypatch.setattr(spectral.rootfind, "aberth_roots", spy)
        for at, ref in zip((a, 0), refs):
            got = spectral._eigs_poly_general(n, at)
            assert np.array_equal(np.sort_complex(got), np.sort_complex(ref))
        assert seen == [None, None]

    @pytest.mark.parametrize("n", [81, 120, 200])
    def test_seeded_zero_a_roots_equal_unseeded(self, n):
        got = spectral._eigs_poly_general(n, 0)
        ref = rootfind.threefold_roots(list(spectral_polynomial(n, 0).coeffs))
        assert multiset_dev(got, ref) <= 1e-12 * np.abs(ref).max()

    # multiprecision Horner points: 774 at a = 0 (Newton-polygon starts) and
    # 219/171/194 for criterion 11 when a final pass re-evaluated every root
    # for its inclusion radius
    @pytest.mark.parametrize("n, a", [
        (200, 0), *((N_SEED, a0 * N_SEED ** (2 / 3))
                    for a0 in ((1 - 1j) / 2, 2 / 3 - 1j, 4 / 5 - 2j / 3))],
        ids=["a=0", "crit11-0", "crit11-1", "crit11-2"])
    def test_multiprecision_evaluations(self, horner_points, n, a):
        spectral._eigs_poly_general(n, a)
        assert sum(horner_points) <= (150 if a == 0 else 140)


class TestZeroAStructure:
    # the a = 0 spectral polynomial splits as x^r q(x^3)
    def test_n2(self):
        r, q = factor_structure(2)
        assert (r, list(q.coeffs)) == (0, [-4, 1])

    def test_n1(self):
        r, q = factor_structure(1)
        assert r == 2 and list(q.coeffs) == [1]

    def test_n3(self):
        r, q = factor_structure(3)
        assert r == 1 and len(q.coeffs) - 1 == 1


class TestScaledSpectrum:
    def test_n2_direct_scaling(self):
        # eigenvalues 4^(1/3) w^k divided by n^(4/3) = 2^(4/3)
        ps = scaled_spectrum(2, 0.0)
        expect = 4 ** (1 / 3) / 2 ** (4 / 3)
        assert abs(ps.max_modulus() - expect) < 1e-12

    def test_growth_constant(self, tmp_cache):
        r = scaled_spectrum(200, 0.0, cache_dir=tmp_cache).max_modulus()
        assert abs(r - 0.75) < 0.075

    def test_rules(self):
        p1 = scaled_spectrum(10, 2.0, rule="const")
        p2 = scaled_spectrum(10, 2.0, rule="n23")
        direct = eigenvalues(10, 2.0 * 10 ** (2 / 3)).points / 10 ** (4 / 3)
        assert multiset_dev(p2.points, direct) < 1e-12
        assert multiset_dev(p1.points, p2.points) > 1e-3


class TestEmpiricalCauchy:
    def test_single_point(self):
        from qesquartic.pointset import PointSet

        assert empirical_cauchy(PointSet(np.array([0j])), 2.0) == 0.5

    def test_symmetry(self):
        from qesquartic.pointset import PointSet

        assert empirical_cauchy(PointSet(np.array([-1 + 0j, 1 + 0j])), 0.0) == 0

    def test_too_close(self):
        from qesquartic.pointset import PointSet

        with pytest.raises(TooClose):
            empirical_cauchy(PointSet(np.array([1 + 0j])), 1 + 1e-12j)
