import cmath
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qesquartic import bkw, cli, rootfind, spectral
from qesquartic.errors import InsideSupport
from qesquartic.rootfind import threefold_roots

from oracles import (frozen_recurrence_fraction, psi_branches_per_radius,
                     real_support_interval_two_loops, union_support_per_tau)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestCharacteristicRoots:
    def test_large_beta_dominant_balance(self):
        r = bkw.characteristic_roots(1000.0, 1.0, 0.3)
        assert abs(r[0] + 1000.0) < 0.1          # ~ -beta
        assert abs(r[1]) < 0.1 and abs(r[2]) < 0.1

    def test_tau_zero_degenerate(self):
        # the double root at 0 carries the usual sqrt(eps) closed-form noise
        r = bkw.characteristic_roots(5.0, 0.0, 0.0)
        assert abs(r[0] + 5.0) < 1e-12
        assert abs(r[1]) < 1e-7 and abs(r[2]) < 1e-7

    def test_double_root_at_branch_point(self):
        # real branch point at tau=1/2 for the zero-parameter case is 3/4
        r = bkw.characteristic_roots(0.75, 0.0, 0.5)
        assert abs(abs(r[0]) - abs(r[1])) < 1e-9

    def test_roots_satisfy_cubic(self):
        rng = np.random.RandomState(2)
        for _ in range(50):
            beta = complex(*rng.randn(2))
            a = complex(*rng.randn(2))
            tau = rng.rand()
            T = tau * (1 - tau)
            for psi in bkw.characteristic_roots(beta, a, tau):
                val = psi**3 + beta * psi**2 + a * T * psi - T * T
                assert abs(val) < 1e-9 * (1 + abs(psi)) ** 3


class TestSupportMembership:
    def test_on_leg(self):
        assert bkw.support_membership(0.5, 0, 0.5)

    def test_beyond_branch_point(self):
        assert not bkw.support_membership(1.0, 0, 0.5)

    def test_tau_zero_never(self):
        assert not bkw.support_membership(0.7, 0, 0.0)


class TestBranchPoints:
    def test_zero_parameter(self):
        bp = bkw.branch_points(0, 0.5)
        w = np.exp(2j * np.pi / 3)
        targets = [0.75, 0.75 * w, 0.75 * np.conj(w)]
        dev = max(min(abs(b - t) for t in targets) for b in bp)
        assert dev < 1e-12

    def test_degenerate_tau(self):
        for tau in (0.0, 1.0):
            bp = bkw.branch_points(2.0, tau)
            # equation collapses to 4 b^3 + a^2 b^2 = 0: roots 0, 0, -a^2/4
            assert sorted(np.abs(bp)) == pytest.approx([0, 0, 1.0], abs=1e-9)

    def test_a3_all_real(self):
        bp = bkw.branch_points(3.0, 0.5)
        assert np.abs(bp.imag).max() < 1e-10

    def test_roots_kill_cubic_discriminant(self):
        rng = np.random.RandomState(7)
        for _ in range(20):
            a = complex(*rng.randn(2))
            tau = float(rng.uniform(0.05, 0.95))
            T = tau * (1 - tau)
            for b in bkw.branch_points(a, tau):
                # cubic in Psi at this beta must have a double root
                r = bkw.characteristic_roots(b, a, tau)
                gaps = sorted(
                    abs(r[i] - r[j]) for i in range(3) for j in range(i + 1, 3)
                )
                assert gaps[0] < 1e-6 * (1 + max(abs(x) for x in r))


class TestDsc:
    def test_degenerate_tau(self):
        a3 = Fraction(17, 10) ** 3
        assert bkw.dsc_exact(a3, 0) == 0
        assert bkw.dsc_exact(a3, 1) == 0

    def test_threshold_value_exact(self):
        assert bkw.dsc_exact(Fraction(27, 4), Fraction(1, 2)) == 0

    def test_a3_value(self):
        # a = 3: 16 (1/4) (27 - 27/4)^3
        assert bkw.dsc_exact(27, Fraction(1, 2)) == 4 * Fraction(81, 4) ** 3

    def test_matches_resultant_discriminant(self):
        # cross-check: dsc vanishes exactly where the branch cubic has a
        # double root (sampled, the real threshold a^3 = 27/4 at tau = 1/2
        # included)
        for a3 in (Fraction(1), Fraction(11, 5) ** 3, Fraction(27, 4)):
            for tau in (Fraction(3, 10), Fraction(1, 2)):
                d = bkw.dsc_exact(a3, tau)
                bp = bkw.branch_points(float(a3) ** (1 / 3), float(tau))
                gaps = sorted(
                    abs(bp[i] - bp[j]) for i in range(3) for j in range(i + 1, 3)
                )
                if d == 0:
                    assert gaps[0] < 1e-6
                else:
                    assert gaps[0] > 1e-6


class TestSupportEndpoints:
    def test_zero_parameter(self):
        ep = bkw.support_endpoints(0)
        assert np.abs(np.abs(ep) - 0.75).max() < 1e-12

    def test_threshold_double(self):
        a = 3 / 4 ** (1 / 3)
        ep = bkw.support_endpoints(a)
        gaps = sorted(abs(ep[i] - ep[j]) for i in range(3) for j in range(i + 1, 3))
        assert gaps[0] < 1e-6

    def test_identity_with_branch_points_numeric(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            a = complex(*rng.randn(2))
            ep = sorted(bkw.support_endpoints(a), key=lambda z: (z.real, z.imag))
            bp = sorted(bkw.branch_points(a, 0.5), key=lambda z: (z.real, z.imag))
            assert max(abs(x - y) for x, y in zip(ep, bp)) < 1e-9

    def test_identity_exact(self):
        assert bkw.branch_cubic_coeffs_in_a(Fraction(1, 2)) == \
            bkw.endpoint_cubic_coeffs_in_a()


class TestCauchyNu:
    def test_far_field_mass(self):
        for beta in (40.0, 60j, -35 + 20j):
            c = bkw.cauchy_nu(beta, 0)
            assert abs(c - 1 / beta) < 1e-3 / abs(beta)

    def test_real_on_real_axis(self):
        c = bkw.cauchy_nu(2.5, 3.0)
        assert abs(c.imag) < 1e-10

    def test_inside_support_raises(self):
        with pytest.raises(InsideSupport):
            bkw.cauchy_nu(0.4, 0)

    def test_branch_satisfies_cubic(self):
        for tau in (0.21, 0.5, 0.83):
            T = tau * (1 - tau)
            for beta in (2.0 + 0.5j, -1.5 + 1.2j):
                psi = bkw.characteristic_roots(beta, 0.7, tau)[0]
                val = psi**3 + beta * psi**2 + 0.7 * T * psi - T * T
                assert abs(val) < 1e-12

    A = (1 - 1j) / 2

    def test_ray_crossing_a_support_matches_cloud(self, tmp_cache):
        # outside the union support, but the ray from infinity to beta
        # crosses some tau supports: continuing along it lands on a root
        # that is not the dominant one
        beta = -0.28757314599049466 + 0.22181638618662292j
        cloud = spectral.scaled_spectrum(200, self.A, rule="n23",
                                         cache_dir=tmp_cache)
        dev = abs(bkw.cauchy_nu(beta, self.A)
                  - spectral.empirical_cauchy(cloud, beta))
        assert dev < 2e-2

    def test_support_at_any_quadrature_tau_raises(self):
        # on the support of the 6th order-64 node only (gap 1.7e-11 there),
        # which a probe of every 4th node misses
        beta = 0.2333333333333334 - 0.07468762046040262j
        tau = bkw._gauss_rule(64)[0][5]
        with pytest.raises(InsideSupport, match=f"tau={tau:.3f} support"):
            bkw.cauchy_nu(beta, self.A)

    def test_handover_between_quadrature_taus_raises(self):
        # on the support of a tau between the order-64 nodes 0.080 and
        # 0.093: the dominance gap is 6.9e-3 or more at every node, but Psi
        # hands over to another root between those two, so no order would
        # converge
        beta = -0.2501113714997667 + 0.05864502306748931j
        fine = np.linspace(0.0, 1.0, 4001)[1:-1]
        assert bkw._dominance_gap(beta, self.A, fine).min() < bkw.EQUIMODULAR_TOL
        nodes = bkw._gauss_rule(64)[0]
        assert bkw._dominance_gap(beta, self.A, nodes).min() > 6.9e-3
        with pytest.raises(InsideSupport, match="between tau=0.080 and 0.093"):
            bkw.cauchy_nu(beta, self.A)


def _assert_equals_every_edge_oracle(sup, a, taus, tol=bkw.EQUIMODULAR_TOL):
    per_tau, endpoints, union = union_support_per_tau(a, taus, tol)
    assert list(sup.per_tau) == list(per_tau)
    for t in taus:
        assert sup.per_tau[t].tobytes() == per_tau[t].tobytes()
        assert sup.endpoints[t].tobytes() == endpoints[t].tobytes()
    assert sup.union.tobytes() == union.tobytes()


def _count_cubic_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(np.broadcast_shapes(*map(np.shape, args)))
        return rootfind.cubic_roots(*args)

    monkeypatch.setattr(bkw, "cubic_roots", counted)
    return calls


class TestBatchedRadii:
    """cauchy_nu's dominant roots against the per-radius ray continuation,
    and its one batched cubic solve per quadrature order."""

    RAYS = [(0.74 + 0.01j, 0), (0.8 + 0.05j, 0), (0.9 + 0.1j, 0.5 - 0.5j)]
    BENCH = [(2 * cmath.exp(2j * math.pi * (k + 0.35) / 10), 0) for k in range(10)]

    @pytest.mark.parametrize("order", [64, 128, 256])
    @pytest.mark.parametrize("beta, a", RAYS)
    def test_equals_per_radius_oracle(self, beta, a, order):
        # a ray that crosses no tau support continues onto the dominant root
        taus, _ = bkw._gauss_rule(order)
        assert np.array_equal(bkw.characteristic_roots(beta, a, taus)[:, 0],
                              psi_branches_per_radius(beta, a, taus))

    @pytest.mark.parametrize("order", [64, 128, 256])
    def test_bench_points_equal_per_radius_oracle(self, order):
        taus, _ = bkw._gauss_rule(order)
        for beta, a in self.BENCH:
            assert np.array_equal(bkw.characteristic_roots(beta, a, taus)[:, 0],
                                  psi_branches_per_radius(beta, a, taus))

    def test_cubic_solves_per_cauchy_nu(self, monkeypatch):
        # one solve of all taus per quadrature order, orders 64 and 128
        calls = _count_cubic_calls(monkeypatch)
        bkw.cauchy_nu(2 * np.exp(2j * np.pi * 0.35 / 10), 0)
        assert calls == [(64,), (128,)]

    def test_cubic_roots_binding_kept(self):
        # cauchy_nu's batched solves and their bench span both go through
        # this name
        assert bkw.cubic_roots is rootfind.cubic_roots


def test_gauss_rule_cached_read_only():
    taus, ws = bkw._gauss_rule(64)
    assert bkw._gauss_rule(64)[0] is taus and bkw._gauss_rule(64)[1] is ws
    assert not taus.flags.writeable and not ws.flags.writeable
    with pytest.raises(ValueError):
        taus[0] = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(taus, 0.5 * (nodes + 1.0))
    assert np.array_equal(ws, 0.5 * weights)


class TestUnionSupport:
    def test_zero_parameter_legs(self, monkeypatch):
        monkeypatch.setattr(bkw, "SUPPORT_GRID_SIZE", 31)
        sup = bkw.union_support(0, tau_grid=[0.2, 0.35, 0.5])
        pts = sup.union
        assert len(pts) > 30
        args = np.angle(pts[np.abs(pts) > 1e-6])
        k = np.round(args / (2 * np.pi / 3))
        # refined points sit on the three rays, inside the leg length
        assert np.abs(args - k * 2 * np.pi / 3).max() < 1e-6
        assert np.abs(pts).max() < 0.75 + 1e-6

    def test_refined_points_pass_membership(self, monkeypatch):
        a = 1 + 1j
        monkeypatch.setattr(bkw, "SUPPORT_GRID_SIZE", 25)
        sup = bkw.union_support(a, tau_grid=[0.3, 0.5])
        for t, pts in sup.per_tau.items():
            for b in pts[:12]:
                assert bkw.support_membership(b, a, t)

    def test_endpoint_markers(self, monkeypatch):
        monkeypatch.setattr(bkw, "SUPPORT_GRID_SIZE", 21)
        sup = bkw.union_support(0, tau_grid=[0.5])
        ep = sup.endpoints[0.5]
        assert np.abs(np.abs(ep) - 0.75).max() < 1e-9

    @pytest.mark.parametrize("a", [(1 - 1j) / 2, 0.5j, 1 + 1j, 3])
    def test_each_tau_product_solved_once(self, a, monkeypatch):
        # the figure's 31 taus k/32 give 16 distinct tau(1 - tau)
        monkeypatch.setattr(bkw, "SUPPORT_GRID_SIZE", 15)
        taus = cli._tau_grid(32)
        solves = []
        raster = bkw._raster_support
        monkeypatch.setattr(bkw, "_raster_support",
                            lambda *args: solves.append(1) or raster(*args))
        sup = bkw.union_support(a, tau_grid=taus)
        assert len(taus) == 31 and len(solves) == 16
        assert list(sup.per_tau) == taus
        _assert_equals_every_edge_oracle(sup, a, taus)
        assert min(map(len, sup.per_tau.values())) > 0

    @pytest.mark.parametrize("a, taus, tol", [
        ((1 - 1j) / 2, [0.25, 0.5], bkw.EQUIMODULAR_TOL),   # the bench case
        (3, [0.1, 0.5, 0.9], bkw.EQUIMODULAR_TOL),
        ((1 - 1j) / 2, [0.2, 0.5, 0.8], 1e-5),
        (1 + 1j, [0.2, 0.5, 0.8], 1e-3),
    ])
    def test_kept_edges_give_every_point(self, a, taus, tol):
        # the full raster: bisecting only the kept edges loses no point that
        # bisecting every flagged edge finds
        _assert_equals_every_edge_oracle(bkw.union_support(a, taus, tol), a, taus, tol)

    @pytest.mark.parametrize("taus, count", [
        ([], 0),
        ([0.0], 0),                  # T = 0: no edge is kept
        ([1.0], 0),
        ([0, 0.5, 1], 46),
        ([0.5, 0.25, 0.5], 131),     # a repeated tau counts in the union twice
        ([0.25, 0.75], 78),          # one T, shared
        ([0.3, 0.7], 84),            # T differs in its last bit: two rasters
    ])
    def test_lockstep_edge_grids(self, taus, count):
        a = (1 - 1j) / 2
        sup = bkw.union_support(a, taus)
        assert sup.union.dtype == complex and len(sup.union) == count
        _assert_equals_every_edge_oracle(sup, a, taus)

    def test_bench_case_cubic_work(self, monkeypatch):
        # bisecting every jump-flagged edge solves 128,208 cubics here
        calls = _count_cubic_calls(monkeypatch)
        bkw.union_support((1 - 1j) / 2, tau_grid=[0.25, 0.5])
        assert sum(math.prod(shape) for shape in calls) <= 15_000

    @pytest.mark.parametrize("a", [0, 1, 1.88, -3])
    def test_real_interval_below_threshold_refused(self, a):
        # a^3 < 27/4: two branch points are non-real, the support no interval
        with pytest.raises(ValueError, match="27/4"):
            bkw.real_support_interval(a)

    @staticmethod
    def _real_interval_apart(tol):
        # run apart, so that a bisection that never ends fails the test
        code = textwrap.dedent("""
            import sys
            from qesquartic import bkw
            try:
                lo, hi = bkw.real_support_interval(3.0, refine_tol=float(sys.argv[1]))
                print(lo.hex(), hi.hex())
            except ValueError as e:
                print("ValueError", e)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-c", code, repr(tol)],
                              capture_output=True, text=True, env=env,
                              timeout=60, check=True).stdout

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_real_interval_refine_tol_refused(self, tol):
        assert self._real_interval_apart(tol).startswith("ValueError refine_tol")

    def test_real_interval_below_double_spacing_returns(self):
        # no double lies between the two bounds of an end long before they
        # are 1e-17 apart
        lo, hi = map(float.fromhex, self._real_interval_apart(1e-17).split())
        want = bkw.real_support_interval(3.0, refine_tol=1e-15)
        assert abs(lo - want[0]) <= 1e-15 and abs(hi - want[1]) <= 1e-15
        assert lo < hi

    def test_real_interval_a3(self):
        lo, hi = bkw.real_support_interval(3.0, refine_tol=1e-8)
        ep = sorted(bkw.support_endpoints(3.0).real)
        assert abs(lo - ep[1]) < 1e-6
        assert abs(hi - ep[2]) < 1e-6

    @pytest.mark.parametrize("a", [1.9, 2.5, 3.0, 7.25])
    @pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-12])
    def test_real_interval_lockstep_matches_two_loops(self, a, tol):
        # both ends bisected together give the floats of one loop per end
        got = bkw.real_support_interval(a, refine_tol=tol)
        want = real_support_interval_two_loops(a, refine_tol=tol)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


class TestRecurrenceRoots:
    def test_tau_zero(self):
        ps = bkw.recurrence_roots(0.0, 10)
        assert len(ps.points) == 10
        assert np.abs(ps.points).max() == 0

    def test_rays_and_radius(self):
        ps = bkw.recurrence_roots(0.5, 90)
        pts = ps.points
        args = np.angle(pts[np.abs(pts) > 1e-10])
        k = np.round(args / (2 * np.pi / 3))
        assert np.abs(args - k * 2 * np.pi / 3).max() < 1e-6
        assert np.abs(pts).max() < 0.75 + 1e-3

    def test_tau_quarter_radius(self):
        ps = bkw.recurrence_roots(0.25, 120)
        limit = (27 / 4 * (0.25 * 0.75) ** 2) ** (1 / 3)
        assert np.abs(ps.points).max() < limit + 1e-3
        assert np.abs(ps.points).max() > limit - 0.05

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            bkw.recurrence_roots(0.5, 2)

    def test_non_dyadic_float_tau_is_exact(self):
        # a float tau is the binary fraction it stores; its roots are those
        # of the exact polynomial at that rational, not of a float recurrence
        got = bkw.recurrence_roots(0.1, 150).points
        want = threefold_roots(frozen_recurrence_fraction(Fraction(0.1), 150))
        dev = max(np.abs(want - z).min() for z in got)
        assert dev < 1e-12 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(2, 60), data=st.data(), k=st.integers(3, 90))
    def test_integer_recurrence_matches_fraction_oracle(self, q, data, k):
        tau = Fraction(data.draw(st.integers(1, q - 1)), q)
        assert bkw._frozen_recurrence(tau, k) == frozen_recurrence_fraction(tau, k)

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75, 0.1])
    def test_integer_recurrence_at_float_taus(self, tau):
        assert bkw._frozen_recurrence(tau, 150) == frozen_recurrence_fraction(tau, 150)
