"""Export surfaces and auxiliary reports: the support JSON schema, the
distinct-imaginary-part report and conjugation invariance."""

import numpy as np
import pytest

from qesquartic import bkw, branching, quaddiff


class TestSupportSampleExport:
    def test_legs_json(self, monkeypatch):
        monkeypatch.setattr(bkw, "SUPPORT_GRID_SIZE", 31)
        sup = bkw.union_support(0, tau_grid=[0.5])
        d = sup.to_json_dict()
        assert set(d) == {"a", "tau_grid", "legs", "endpoints"}
        legs = d["legs"]["0.500000"]
        assert 1 <= len(legs) <= 3
        # every polyline is connected (no internal jumps) and tracks the rays
        for leg in legs:
            pts = np.array([complex(x, y) for x, y in leg])
            if len(pts) > 2:
                hops = np.abs(np.diff(pts))
                assert hops.max() < 6 * np.median(hops)
            nz = pts[np.abs(pts) > 1e-9]
            args = np.angle(nz)
            k = np.round(args / (2 * np.pi / 3))
            assert np.abs(args - k * 2 * np.pi / 3).max() < 1e-6
        ep = d["endpoints"]["0.500000"]
        assert len(ep) == 3

    def test_shared_tau_sets_chained_once(self, monkeypatch):
        # tau and 1 - tau share one support, chained once for both keys
        monkeypatch.setattr(bkw, "SUPPORT_GRID_SIZE", 31)
        sup = bkw.union_support((1 - 1j) / 2, tau_grid=[0.25, 0.5, 0.75])
        chain = bkw._chain_polylines
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return chain(pts)

        monkeypatch.setattr(bkw, "_chain_polylines", counting)
        legs = sup.to_json_dict()["legs"]
        assert len(calls) == 2
        assert legs["0.250000"] == legs["0.750000"] == \
            [[[z.real, z.imag] for z in leg]
             for leg in chain(sup.per_tau[0.75])]


class TestDistinctImagReport:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_all_distinct(self, n, tmp_cache):
        # the standard paths rely on this observed fact: the imaginary parts
        # of the nonreal branching points are distinct (both to 1e-9)
        pts = branching.sigma_points(n, cache_dir=tmp_cache).points.points
        ims = np.sort(pts.imag[np.abs(pts.imag) > 1e-9])
        assert len(ims) and np.diff(ims).min() >= 1e-9, ims


class TestTopologyConjugationInvariance:
    def test_conjugate_parameter(self):
        a = (1 - 1j) / 2
        v1, _ = quaddiff.support_topology(a, n_probe=60)
        v2, _ = quaddiff.support_topology(np.conj(a), n_probe=60)
        assert v1 == v2 == "three-legs"
