import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesquartic import branching, intpoly, yv
from qesquartic.errors import NonConvergence
from qesquartic.exactpoly import ExactPoly
from qesquartic.pointset import PointSet
from qesquartic.spectral import charpoly_bivariate

from oracles import (assignment_cost_lsa, charpoly_coeffs_grid_mp, grid_derivative_x,
                     sylvester_resultant_poly)


class TestSigmaPolynomial:
    def test_n1(self, tmp_cache):
        p = branching.sigma_polynomial(1, cache_dir=tmp_cache)
        assert p == ExactPoly([0, 1])

    def test_n2(self, tmp_cache):
        # primitive part of the discriminant of -x^3 + 4ax + 4
        p = branching.sigma_polynomial(2, cache_dir=tmp_cache)
        assert p == ExactPoly([-27, 0, 0, 16])

    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_degree(self, n, tmp_cache):
        p = branching.sigma_polynomial(n, cache_dir=tmp_cache)
        assert p.degree == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_exact_sylvester_route(self, n, tmp_cache):
        # full-polynomial comparison against the fraction-free determinant
        grid = charpoly_bivariate(n)
        raw = sylvester_resultant_poly(grid, grid_derivative_x(grid))
        prim, _ = intpoly.primitive(raw)
        got = branching.sigma_polynomial(n, cache_dir=tmp_cache)
        assert tuple(prim) == got.coeffs

    def test_non_generic_nodes_raise(self, monkeypatch):
        # a node that breaks the remainder-degree sequence at every prime
        # must end the prime loop, not spin it forever; the kernel sees a
        # batch of primes as rows, so flag the first node of every row
        real = branching._resultants_vector_mod

        def flag_first_node(F, G, p):
            vals, ok = real(F, G, p)
            ok[:, 0] = False
            return vals, ok

        monkeypatch.setattr(branching, "_resultants_vector_mod", flag_first_node)
        with pytest.raises(NonConvergence):
            branching.discriminant_resultant_exact(3)

    def test_flagged_prime_mid_batch_is_skipped_alone(self, monkeypatch):
        want = branching.discriminant_resultant_exact(6)
        real = branching._resultants_vector_mod
        flagged = 3
        assert 0 < flagged < branching._PRIME_BATCH - 1
        calls = []

        def flag_one_prime(F, G, p):
            vals, ok = real(F, G, p)
            if not calls:
                ok[flagged, -1] = False
            calls.append(p[:, 0].tolist())
            return vals, ok

        monkeypatch.setattr(branching, "_resultants_vector_mod", flag_one_prime)
        first = list(itertools.islice(branching._cube_images(6, charpoly_bivariate(6)),
                                     branching._PRIME_BATCH))
        assert [p for p, _ in first] == calls[0]
        assert [c is None for _, c in first] == [
            k == flagged for k in range(branching._PRIME_BATCH)]
        calls.clear()
        assert branching.discriminant_resultant_exact(6) == want

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_resultant_bound_covers_coefficients(self, n):
        raw = branching.discriminant_resultant_exact(n)
        bound = branching._resultant_bound(charpoly_bivariate(n))
        assert max(abs(c) for c in raw) < bound

    def test_inconsistent_images_raise_past_the_bound(self, monkeypatch):
        # images from no integer polynomial never stabilize; the loop must
        # stop two primes after the modulus passes twice the bound on R / d
        n = 6
        width = n * (n + 1) // 2 // 3 + 1
        bound = branching._resultant_bound(charpoly_bivariate(n))
        bits = (2 * (bound // branching._content_divisor(n) + 1)).bit_length()
        max_primes = bits // 30 + 3          # every prime exceeds 2^30
        rng = np.random.RandomState(0)
        used = []

        def random_images(m, grid):
            for p in branching._primes_2mod3(m):
                used.append(p)
                assert len(used) <= max_primes, "prime loop ran past its bound"
                yield p, rng.randint(0, p, size=width)

        monkeypatch.setattr(branching, "_cube_images", random_images)
        with pytest.raises(NonConvergence):
            branching.discriminant_resultant_exact(n)
        assert len(used) <= max_primes

    def test_content_divisor_divides_the_resultant(self):
        assert branching._content_divisor(3) == (1 * 2 * 6) ** 2
        for n in range(1, 21):
            raw = branching.discriminant_resultant_exact(n)
            assert intpoly.content(raw) % branching._content_divisor(n) == 0

    @pytest.mark.parametrize("n, most", [(16, 24), (25, 56)])
    def test_lift_over_the_divisor_needs_fewer_primes(self, monkeypatch, n, most):
        # lifting all of R took 42 primes at n = 16 and 112 at n = 25
        real = branching._cube_images
        used = []

        def counting(m, grid):
            for p, c in real(m, grid):
                used.append(p)
                yield p, c

        monkeypatch.setattr(branching, "_cube_images", counting)
        branching.discriminant_resultant_exact(n)
        assert 0 < len(used) <= most

    def test_wrong_divisor_raises_and_caches_nothing(self, monkeypatch, tmp_cache):
        # a divisor that does not divide R leaves images of no integer vector
        n, q = 5, 7                          # q prime and above n: q does not divide d
        real = branching._content_divisor
        monkeypatch.setattr(branching, "_content_divisor", lambda m: q * real(m))
        with pytest.raises(NonConvergence):
            branching.sigma_polynomial(n, cache_dir=tmp_cache)
        assert not list(Path(tmp_cache).rglob("sigma-poly*"))

    def test_mod3_support(self, tmp_cache):
        # sigma_n(a) = a^r h(a^3) with r = D mod 3, D = n(n+1)/2
        for n in range(1, 17):
            p = branching.sigma_polynomial(n, cache_dir=tmp_cache)
            nz = [j for j, c in enumerate(p.coeffs) if c != 0]
            r = n * (n + 1) // 2 % 3
            assert {j % 3 for j in nz} == {r}
            assert nz[0] == r

    def test_members_1_to_25_bit_identical(self, tmp_cache):
        # SHA-256 of sigma_1..sigma_25: each poly's ascending primitive
        # integer coefficients joined by ",", the polys joined by ";"
        enc = ";".join(
            ",".join(str(c) for c in branching.sigma_polynomial(
                n, cache_dir=tmp_cache).coeffs)
            for n in range(1, 26))
        assert hashlib.sha256(enc.encode()).hexdigest() == (
            "005ede9ca4e2f2fb030354ff3c9100625c7e36582e1b0371a5507d2ccb803f0f")

    def test_spot_check_rejects_a_bad_sigma(self, monkeypatch, tmp_cache):
        real = branching.discriminant_resultant_exact

        def one_off(n):
            raw = list(real(n))
            raw[n * (n + 1) // 2 % 3] += 1     # lowest coefficient; degree kept
            return raw

        monkeypatch.setattr(branching, "discriminant_resultant_exact", one_off)
        with pytest.raises(NonConvergence, match="spot check"):
            branching.sigma_polynomial(5, cache_dir=tmp_cache)
        assert not list(Path(tmp_cache).rglob("sigma-poly*"))

    def test_spot_point_resultant_matches_oracle(self):
        # the spot check's integer resultant at n = 12 against the Z[a]
        # Bareiss oracle on constant rows
        grid = charpoly_bivariate(12)
        a0 = branching._spot_points(12)[0]
        p, q = ([intpoly.eval_int(row, a0) for row in g]
                for g in (grid, grid_derivative_x(grid)))
        want = sylvester_resultant_poly([[c] if c else [] for c in p],
                                        [[c] if c else [] for c in q])
        assert want and intpoly.sylvester_resultant(p, q) == want[0]

    def test_spot_points_distinct(self):
        for n in range(1, branching.SIGMA_CAP_DEFAULT + 1):
            D = n * (n + 1) // 2
            pts = branching._spot_points(n)
            assert len(set(pts)) == 2
            assert all(D + 2 <= a < D + 50 for a in pts)

    def test_conjugation_symmetry_exact(self, tmp_cache):
        # integer coefficients, sigma_n = a^r h(a^3) with r = D mod 3, and a
        # root set that conjugation maps onto itself
        for n in (3, 6, 9):
            cs = branching.sigma_polynomial(n, cache_dir=tmp_cache).coeffs
            assert all(type(c) is int for c in cs)
            D = n * (n + 1) // 2
            assert {j % 3 for j, c in enumerate(cs) if c} == {D % 3}
            pts = branching.sigma_points(n, cache_dir=tmp_cache).points.points
            gap = np.abs(pts.conj()[:, None] - pts[None, :]).min(axis=1)
            assert gap.max() < 1e-10 * np.abs(pts).max()

    def test_cache_roundtrip(self, tmp_cache):
        a = branching.sigma_polynomial(5, cache_dir=tmp_cache)
        b = branching.sigma_polynomial(5, cache_dir=tmp_cache)
        assert a == b

    @pytest.mark.parametrize("payload", [
        {"n": 3},                              # no coefficients
        {"n": 3, "coeffs": ["5", "1"]},        # degree 1, not 6
    ])
    def test_damaged_cache_entry_is_recomputed(self, tmp_cache, payload):
        from qesquartic import cache

        want = branching.sigma_polynomial(3, cache_dir=tmp_cache)
        path = Path(tmp_cache) / "sigma-poly-3.json"
        good = path.read_text()
        # the payload's coefficients as the body of an otherwise valid entry
        cache.store("sigma-poly", 3, cache._entry({"n": 3}, payload.get("coeffs")),
                    tmp_cache)
        assert branching.sigma_polynomial(3, cache_dir=tmp_cache) == want
        assert path.read_text() == good

    @pytest.mark.parametrize("forge", ["one-coefficient", "scaled-by-2"])
    def test_forged_entry_is_recomputed(self, tmp_cache, forge):
        # a forged entry: the digest matches the changed body, so only the
        # load check can turn it away
        from qesquartic import cache

        want = branching.sigma_polynomial(5, cache_dir=tmp_cache)
        path = Path(tmp_cache) / "sigma-poly-5.json"
        good = path.read_text()
        cs = list(want.coeffs)
        if forge == "one-coefficient":
            k = next(j for j, c in enumerate(cs) if c)
            cs[k] += 1
        else:
            cs = [2 * c for c in cs]
        cache.store("sigma-poly", 5, cache._entry({"n": 5}, [str(c) for c in cs]),
                    tmp_cache)
        assert branching.sigma_polynomial(5, cache_dir=tmp_cache) == want
        assert path.read_text() == good


class TestSigmaPoints:
    def test_n2_values(self, tmp_cache):
        pts = branching.sigma_points(2, cache_dir=tmp_cache).points.points
        m = 3 * 2 ** (-4 / 3)
        w = np.exp(2j * np.pi / 3)
        targets = [m, m * w, m * np.conj(w)]
        dev = max(min(abs(p - t) for t in targets) for p in pts)
        assert dev < 1e-10

    def test_counts_and_columns(self, tmp_cache):
        bs = branching.sigma_points(6, cache_dir=tmp_cache)
        assert len(bs.points.points) == 21
        sizes = {j: bs.cols.count(j) for j in set(bs.cols)}
        assert sizes == {j: j for j in range(1, 7)}

    def test_rows_conjugation(self, tmp_cache):
        bs = branching.sigma_points(5, cache_dir=tmp_cache)
        pts = bs.points.points
        # conjugation closure, exact coefficients => multiset symmetric
        from scipy.optimize import linear_sum_assignment

        D = np.abs(pts[:, None] - np.conj(pts)[None, :])
        ri, ci = linear_sum_assignment(D)
        assert D[ri, ci].max() < 1e-8

    def test_omega_invariance(self, tmp_cache):
        for n in (4, 7):
            pts = branching.sigma_points(n, cache_dir=tmp_cache).points.points
            w = np.exp(2j * np.pi / 3)
            from scipy.optimize import linear_sum_assignment

            D = np.abs(pts[:, None] - (w * pts)[None, :])
            ri, ci = linear_sum_assignment(D)
            assert D[ri, ci].max() < 1e-8

    def test_multiple_root_witness(self, tmp_cache):
        # each branching point forces a near-double eigenvalue
        bs = branching.sigma_points(4, cache_dir=tmp_cache)
        for a0 in bs.points.points[:5]:
            lam = np.roots(
                [complex(c) for c in charpoly_coeffs_grid_mp(4, a0)][::-1]
            )
            D = np.abs(lam[:, None] - lam[None, :]) + np.diag([np.inf] * len(lam))
            assert D.min() < 1e-4

    @pytest.mark.parametrize("n", [6, 10, 16, 20, 25])
    def test_yv_seed_gives_the_same_roots(self, n, tmp_cache):
        zeros = yv.yv_zeros(n, cache_dir=tmp_cache).points
        _, g = intpoly.split_cube(branching.sigma_polynomial(n, cache_dir=tmp_cache).coeffs)
        assert branching._yv_seeds(zeros, len(g) - 1) is not None
        plain = branching.sigma_points(n, cache_dir=tmp_cache).points.points
        seeded = branching.sigma_points(n, cache_dir=tmp_cache, near=zeros).points.points
        dist = np.abs(seeded[:, None] - plain[None, :])
        assert sorted(dist.argmin(axis=1)) == list(range(len(plain)))
        assert dist.min(axis=1).max() < 1e-12 * np.abs(plain).max()

    @pytest.mark.parametrize("bad", ["one short", "nan", "none"])
    def test_unusable_yv_seed_falls_back(self, bad, tmp_cache):
        n = 10
        zeros = yv.yv_zeros(n, cache_dir=tmp_cache).points
        near = {"one short": zeros[:-1],
                "nan": np.where(np.arange(len(zeros)) == 3, np.nan, zeros),
                "none": None}[bad]
        if near is not None:
            assert branching._yv_seeds(near, len(zeros) // 3) is None
        plain = branching.sigma_points(n, cache_dir=tmp_cache).points.points
        got = branching.sigma_points(n, cache_dir=tmp_cache, near=near).points.points
        assert np.array_equal(got, plain)


class TestScaledSigma:
    def test_n2_modulus(self, tmp_cache):
        ps, _ = branching.triangle_sets(2, cache_dir=tmp_cache)
        expect = 3 * 2 ** (-4 / 3) / ((27 / 4) ** (1 / 3) * 2 ** (2 / 3))
        assert abs(ps.max_modulus() - expect) < 1e-10

    def test_growth_trend(self, tmp_cache):
        r5 = branching.triangle_sets(5, cache_dir=tmp_cache)[0].max_modulus()
        r10 = branching.triangle_sets(10, cache_dir=tmp_cache)[0].max_modulus()
        assert r5 < r10 < 1.0


class TestCompareSets:
    def test_identical(self):
        ps = PointSet(np.array([1 + 1j, 2 - 1j, 0j]))
        rep = branching.compare_sets(ps, ps)
        assert rep["hausdorff"] == 0
        assert rep["mean_nn"] == 0
        assert rep["assignment_cost"] == 0

    def test_unit_offset(self):
        rep = branching.compare_sets(
            PointSet(np.array([0j])), PointSet(np.array([1 + 0j]))
        )
        assert rep["hausdorff"] == 1.0
        assert rep["assignment_cost"] == 1.0

    def test_cardinality_mismatch(self):
        rep = branching.compare_sets(
            PointSet(np.array([0j, 1j])), PointSet(np.array([0j]))
        )
        assert rep["card_a"] == 2 and rep["card_b"] == 1
        assert rep["assignment_cost"] is None


class TestCertifiedAssignment:
    def test_near_copy_certified_equals_lsa(self):
        rng = np.random.RandomState(3)
        pb = rng.randn(30) + 1j * rng.randn(30)
        pa = rng.permutation(pb) + 1e-3 * (rng.randn(30) + 1j * rng.randn(30))
        rep = branching.compare_sets(pa, pb)
        assert rep["assignment_certificate"]["certified"]
        assert rep["assignment_cost"] == assignment_cost_lsa(pa, pb)

    def test_shared_neighbour_not_certified(self):
        rep = branching.compare_sets(np.array([0.4 + 0j, 0.45]), np.array([0j, 1]))
        assert rep["assignment_cost"] is None
        assert rep["assignment_certificate"] == {
            "max_nn": 0.45, "half_gap": 0.5, "permutation": False,
            "certified": False}

    def test_far_permutation_not_certified(self):
        rep = branching.compare_sets(np.array([-0.6 + 0j, 1.6]), np.array([0j, 1]))
        cert = rep["assignment_certificate"]
        assert cert["permutation"] and not cert["certified"]
        assert cert["max_nn"] == pytest.approx(0.6) and cert["half_gap"] == 0.5
        assert rep["assignment_cost"] is None

    @settings(max_examples=60)
    @given(data=st.data(), m=st.integers(1, 12), spread=st.floats(1e-3, 2.0))
    def test_cost_is_lsa_when_certified(self, data, m, spread):
        coords = st.floats(-3, 3, allow_nan=False)
        pb = np.array([complex(x, y) for x, y in data.draw(
            st.lists(st.tuples(coords, coords), min_size=m, max_size=m, unique=True))])
        noise = np.array(data.draw(st.lists(
            st.floats(-1, 1), min_size=2 * m, max_size=2 * m)))
        pa = pb[::-1] + spread * (noise[:m] + 1j * noise[m:])
        rep = branching.compare_sets(pa, pb)
        cert = rep["assignment_certificate"]
        assert cert["certified"] == (cert["permutation"]
                                     and cert["max_nn"] < cert["half_gap"])
        if cert["certified"]:
            assert rep["assignment_cost"] == assignment_cost_lsa(pa, pb)
        else:
            assert rep["assignment_cost"] is None


class TestLatticeProbe:
    @staticmethod
    def probe(n, window, cache_dir):
        sets = [branching.sigma_points(m, cache_dir=cache_dir).points.points
                for m in (n, n + 3)]
        return branching.lattice_probe(n, window, sets)

    def test_empty_window(self, tmp_cache):
        rep = self.probe(4, (100, 101, 100, 101), tmp_cache)
        assert rep["count_a"] == 0

    def test_drift_shrinks(self, tmp_cache):
        # stabilization trend: drift near the origin shrinks as n grows
        w = (-1.5, 1.5, -1.5, 1.5)
        r_small = self.probe(5, w, tmp_cache)
        r_big = self.probe(10, w, tmp_cache)
        assert r_small["count_a"] > 0 and r_big["count_a"] > 0
        assert r_big["mean_drift"] < r_small["mean_drift"]


def test_scaling_constants_identity():
    assert (27 / 4) ** (1 / 3) == pytest.approx(3 / 4 ** (1 / 3), rel=1e-15)


class TestGridIndex:
    @pytest.mark.parametrize("n", [12, 31])
    def test_columns_and_rows_form_the_triangle(self, n):
        bs = branching.sigma_points(n)
        pts, rows, cols = bs.points.points, np.array(bs.rows), np.array(bs.cols)
        assert sorted(np.bincount(cols)[1:]) == list(range(1, n + 1))
        for r in set(rows.tolist()):
            assert len(set(cols[rows == r])) == (rows == r).sum(), r
        assert rows.min() >= 1 and rows.max() <= 2 * n - 1
        real = np.abs(pts.imag) < 1e-9 * np.abs(pts)
        assert (rows[real] == n).all()
        partner = np.abs(pts[:, None] - np.conj(pts)[None, :]).argmin(axis=1)
        assert (rows + rows[partner] == 2 * n).all()
        assert (cols == cols[partner]).all()
        assert bs.min_margin >= branching.PEEL_MARGIN_MIN

    def test_peel_refuses_a_tied_candidate(self):
        # from column 1 at 10, the second candidate for column 2 ties with
        # the third at distance 2
        from qesquartic.errors import IndexingAmbiguity

        s = 3 ** 0.5
        pts = np.array([5, 5 + 1j, 9, 9 - s * 1j, 9 + s * 1j, 10])
        with pytest.raises(IndexingAmbiguity, match="margin 1.000"):
            branching._peel_grid(3, pts)
