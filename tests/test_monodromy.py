import numpy as np
import pytest

from qesquartic import monodromy
from qesquartic.branching import sigma_points

from oracles import hook_scalar, track_path_lsa


class TestKacMatrix:
    def test_unit_spectrum_equispaced(self):
        for n in (4, 8, 13):
            ev = np.sort(np.linalg.eigvals(monodromy.kac_matrix(n, 1.0)).real)
            grid = np.array([-1 + 2 * k / n for k in range(n + 1)])
            assert np.abs(ev - grid).max() < 1e-10

    def test_quasihomogeneity(self):
        # rotating a by e^{2 i phi} rotates the spectrum by e^{i phi}
        n = 6
        phi = 0.77
        ev1 = np.sort_complex(np.linalg.eigvals(monodromy.kac_matrix(n, 1.0)))
        ev2 = np.sort_complex(
            np.linalg.eigvals(monodromy.kac_matrix(n, np.exp(2j * phi)))
        )
        from scipy.optimize import linear_sum_assignment

        D = np.abs((np.exp(1j * phi) * ev1)[:, None] - ev2[None, :])
        ri, ci = linear_sum_assignment(D)
        assert D[ri, ci].max() < 1e-10


class TestKacLimit:
    def test_large_modulus_uniform(self):
        for phi in (4 * np.pi / 5, 6 * np.pi / 5):
            rep = monodromy.kac_limit_check(8, 500 * np.exp(1j * phi))
            assert rep["max_deviation"] < 5e-3

    def test_deviation_decreases_with_modulus(self):
        d1 = monodromy.kac_limit_check(8, 50.0)["max_deviation"]
        d2 = monodromy.kac_limit_check(8, 5000.0)["max_deviation"]
        assert d2 < d1

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            monodromy.kac_limit_check(8, 0)


class TestTrackPath:
    def test_constant_path_identity(self):
        res = monodromy.track_path(4, lambda t: 9.0 + 0j, steps=6)
        assert res.permutation == (0, 1, 2, 3, 4)

    def test_big_circle_reversal(self):
        res = monodromy.track_path(8, monodromy.circle_path(0, 500.0))
        assert res.one_line() == tuple(range(9, 0, -1))

    def test_step_doubling_stable(self, tmp_cache):
        bs = sigma_points(3, cache_dir=tmp_cache)
        path = monodromy.path_around_index(3, 0, branch_set=bs)
        r1 = monodromy.track_path(3, path, steps=128)
        r2 = monodromy.track_path(3, path, steps=256)
        assert r1.permutation == r2.permutation

    def test_closure(self):
        res = monodromy.track_path(5, monodromy.circle_path(0, 40.0))
        assert res.min_gap > 0


class TestNearestMatching:
    def test_doubled_eigenvalue_in_tiny_motion_raises(self):
        # both copies of a doubled eigenvalue find the same nearest new one
        cur = np.array([1.0, 1.0, 2.0], dtype=complex)
        new = np.array([1.0, 1.0 + 1e-15, 2.0], dtype=complex)
        ci, gap, accept, collide = monodromy._judge(cur[None], new[None], 0.3)
        assert collide[0] and not accept[0]

    def test_shared_neighbour_halves_the_step(self):
        cur = np.array([0.0, 0.1, 5.0], dtype=complex)
        new = np.array([0.02, 1.0, 5.0], dtype=complex)
        ci, gap, accept, collide = monodromy._judge(cur[None], new[None], 0.3)
        assert not accept[0] and not collide[0]
        assert gap[0] == pytest.approx(0.98)

    def test_small_motion_accepted(self):
        cur = np.array([0.0, 1.0, 2.0], dtype=complex)
        new = np.array([2.01, 0.01j, 1.01], dtype=complex)
        ci, gap, accept, collide = monodromy._judge(cur[None], new[None], 0.3)
        assert accept[0] and ci[0].tolist() == [1, 2, 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_standard_paths_match_assignment_oracle(n, tmp_cache):
    bs = sigma_points(n, cache_dir=tmp_cache)
    for idx in range(len(bs.points.points)):
        path = monodromy.path_around_index(n, idx, branch_set=bs)
        res = monodromy.track_path(n, path)
        assert (res.permutation, res.frames, res.min_gap) == \
            track_path_lsa(n, path), (n, idx)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("bump", [None, 0.17])
def test_array_hook_matches_scalar_hook(n, bump, monkeypatch):
    # bit for bit, signed zeros included, on the segment ends, points just
    # beside them and t outside [0, 1) (the hook takes t mod 1); a scalar t
    # gives the same value as the array
    built = []

    def spy(*args):
        built.append(args)
        return hook(*args)

    hook = monodromy._hook
    monkeypatch.setattr(monodromy, "_hook", spy)
    ends = np.array([0.0, 0.15, 0.45, 0.55, 0.85, 1.0])
    ts = np.concatenate([
        np.linspace(0.0, 1.0, 1201), ends,
        np.nextafter(ends, -1.0), np.nextafter(ends, 2.0),
        [-1e-20, -0.3, -1.0, 1.25, 2.55, 7.0]])
    bs = sigma_points(n)
    for idx in range(len(bs.points.points)):
        path = monodromy.path_around_index(n, idx, bump=bump, branch_set=bs)
        ref = hook_scalar(*built[-1])
        want = np.array([complex(ref(t)) for t in ts])
        got = path(ts)
        assert got.dtype == complex and got.shape == ts.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, idx)
        for t in ends:
            assert np.array_equal(np.array([path(t)]).view(np.int64),
                                  np.array([ref(t)]).view(np.int64))


class TestStandardPaths:
    def test_deformation_invariance(self, tmp_cache):
        bs = sigma_points(3, cache_dir=tmp_cache)
        idx = int(np.argmax(bs.points.points.real))
        p1 = monodromy.path_around_index(3, idx, branch_set=bs)
        p2 = monodromy.path_around_index(3, idx, branch_set=bs, bump=0.2)
        assert monodromy.track_path(3, p1).permutation == \
            monodromy.track_path(3, p2).permutation

    def test_branch_set_of_another_n_refused(self, tmp_cache):
        bs = sigma_points(3, cache_dir=tmp_cache)
        with pytest.raises(ValueError, match="n=3 given for n=4"):
            monodromy.path_around_index(4, 0, branch_set=bs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_paths_give_column_transpositions(self, n, tmp_cache):
        bs = sigma_points(n, cache_dir=tmp_cache)
        for idx in range(len(bs.points.points)):
            path = monodromy.path_around_index(n, idx, branch_set=bs)
            res = monodromy.track_path(n, path, steps=160)
            j = bs.cols[idx]
            assert res.is_transposition() == (j, j + 1), (n, idx)


    def test_peeled_columns_past_n30_give_column_transpositions(self):
        # the hook is an independent check of the peeled columns: one point
        # per column, the one on or just above the real axis
        n = 31
        bs = sigma_points(n)
        rows, cols = np.array(bs.rows), np.array(bs.cols)
        for j in (1, 15, 30, 31):
            (idx,) = np.flatnonzero((cols == j) & (rows == n + 1 - j % 2))
            path = monodromy.path_around_index(n, idx, branch_set=bs)
            assert monodromy.track_path(n, path).is_transposition() == (j, j + 1), j
