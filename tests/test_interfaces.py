"""Export surfaces and auxiliary reports: the support JSON schema, the
distinct-imaginary-part report and conjugation invariance."""

import numpy as np
import pytest

from qesquartic import bkw, branching, quaddiff


class TestSupportSampleExport:
    def test_legs_json(self, monkeypatch):
        # the support points go to CSV (test_bkw checks they sit on the
        # rays); the JSON holds the parameter, the taus and the branch points
        monkeypatch.setattr(bkw, "SUPPORT_GRID_SIZE", 31)
        sup = bkw.union_support(0, tau_grid=[0.5])
        d = sup.to_json_dict()
        assert set(d) == {"a", "tau_grid", "endpoints"}
        ep = d["endpoints"]["0.500000"]
        assert len(ep) == 3


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
