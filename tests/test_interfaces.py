"""Export surfaces and auxiliary reports: JSON/CSV schemas and the
non-exact fallback route."""

import json

import numpy as np
import pytest

from qesquartic import bkw, branching, monodromy, quaddiff, yv, zerocase


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


class TestTrajectoryCsv:
    def test_polyline_csv(self):
        g = quaddiff.critical_graph(0, 5 + 5j)
        text = g.to_csv(stride=40)
        lines = text.splitlines()
        assert lines[0] == "trajectory,re,im"
        assert len(lines) > 10
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1]), float(first[2])


class TestYvExport:
    def test_decimal_strings(self):
        d = yv.coefficients_json(3)
        assert len(d["members"]) == 4
        m3 = d["members"][3]
        assert m3["degree"] == 6
        assert m3["coeffs"][0] == "-80"
        json.dumps(d)


class TestCertificationReport:
    def test_json_valid(self):
        text = zerocase.certification_report([5, 6])
        data = json.loads(text)
        assert [r["n"] for r in data["records"]] == [5, 6]
        assert all("seconds" in r for r in data["records"])


class TestMonodromyJson:
    def test_result_dict(self):
        res = monodromy.track_path(3, monodromy.circle_path(0, 30.0),
                                   keep_traces=True)
        d = res.to_json_dict(path_id="big-circle", downsample=10)
        assert d["path_id"] == "big-circle"
        assert sorted(d["permutation"]) == [1, 2, 3, 4]
        assert d["min_gap"] > 0
        assert len(d["traces"]) >= 2
        json.dumps(d)


class TestDistinctImagReport:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_all_distinct(self, n, tmp_cache):
        rep = branching.distinct_imag_report(n, cache_dir=tmp_cache)
        assert rep["all_distinct"], rep


class TestTopologyConjugationInvariance:
    def test_conjugate_parameter(self):
        a = (1 - 1j) / 2
        v1, _ = quaddiff.support_topology(a, n_probe=60)
        v2, _ = quaddiff.support_topology(np.conj(a), n_probe=60)
        assert v1 == v2 == "three-legs"
