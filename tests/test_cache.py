import json
from pathlib import Path

import numpy as np
import pytest

from qesquartic import branching, cache, cli, rootfind, spectral, yv

PTS = np.array([1 + 2j, -0.5j])


def _never():
    raise AssertionError("a valid entry was recomputed")


def _body(payload, field):
    # the bad-payload cases below are written in the unversioned layout, with
    # the body under ``field``; a payload without that field is the body
    return payload[field] if isinstance(payload, dict) and field in payload else payload


def _recomputes(entry, codec, value, directory):
    """Write ``entry`` as ("k", 2); True when cache.cached recomputes it,
    returns the computed value and then serves the entry it rewrote."""
    cache.store("k", 2, entry, directory)
    calls = []

    def compute():
        calls.append(1)
        return value

    got = cache.cached("k", 2, {}, compute, codec, directory)
    again = cache.cached("k", 2, {}, _never, codec, directory)
    return calls == [1] and list(got) == list(value) == list(again)


class TestPointCodec:
    def test_roundtrip(self, tmp_cache):
        pts = np.array([1 + 2j, -0.5j, 3.25])
        assert cache.cached("pts", 3, {}, lambda: pts, cache.Points(3), tmp_cache) is pts
        got = cache.cached("pts", 3, {}, _never, cache.Points(3), tmp_cache)
        assert np.array_equal(got, pts)

    @pytest.mark.parametrize("payload", [
        None,
        [],
        {},
        {"points": [[1.0, 2.0]]},                        # wrong cardinality
        {"points": [[1.0, 2.0], [float("nan"), 0.0]]},   # not finite
        {"points": [[1.0, 2.0], [float("inf"), 0.0]]},
        {"points": [[1.0, 2.0], [3.0]]},                 # not a pair
        {"points": [[1.0, 2.0], ["x", 0.0]]},
        {"points": "12"},
    ])
    def test_bad_payload_is_a_miss(self, tmp_cache, payload):
        entry = cache._entry({"n": 2}, _body(payload, "points"))
        assert cache.Points(2).decode(entry["body"]) is None
        assert _recomputes(entry, cache.Points(2), PTS, tmp_cache)

    @pytest.mark.parametrize("data", [b'{"points": [[1.0, 2.', b"\xff\xfe{"])
    def test_unreadable_file_is_a_miss(self, tmp_cache, data):
        cache.artifact_path("pts", 2, tmp_cache).write_bytes(data)
        assert cache.load("pts", 2, tmp_cache) is None
        got = cache.cached("pts", 2, {}, lambda: PTS, cache.Points(2), tmp_cache)
        assert got is PTS


class TestIntPolyCodec:
    def test_roundtrip(self, tmp_cache):
        cs = [-(10 ** 40), 0, 7]
        assert cache.cached("ip", 2, {}, lambda: cs, cache.IntPoly(2), tmp_cache) is cs
        assert cache.cached("ip", 2, {}, _never, cache.IntPoly(2), tmp_cache) == cs

    @pytest.mark.parametrize("payload", [
        None,
        [],
        {},
        {"coeffs": ["1", "2"]},                 # wrong degree
        {"coeffs": ["1", "2", "0"]},            # leading zero: degree 1
        {"coeffs": ["1", "2.5", "3"]},          # not an integer
        {"coeffs": ["1", "x", "3"]},
        {"coeffs": [1, 2, 3]},                  # numbers, not strings
        {"coeffs": "123"},
    ])
    def test_bad_payload_is_a_miss(self, tmp_cache, payload):
        entry = cache._entry({"n": 2}, _body(payload, "coeffs"))
        assert cache.IntPoly(2).decode(entry["body"]) is None
        assert _recomputes(entry, cache.IntPoly(2), [4, 0, 1], tmp_cache)


class TestEntryChecks:
    def test_entry_layout(self, tmp_cache):
        cache.cached("k", 2, {"schedule": ((None, 1), (50, 2))}, lambda: PTS,
                     cache.Points(2), tmp_cache)
        entry = cache.load("k", 2, tmp_cache)
        assert set(entry) == {"version", "key", "body", "sha256"}
        assert entry["version"] == cache.VERSION
        assert entry["key"] == {"n": 2, "schedule": [[None, 1], [50, 2]]}
        # the tuple key matches the list it reads back as
        got = cache.cached("k", 2, {"schedule": ((None, 1), (50, 2))}, _never,
                           cache.Points(2), tmp_cache)
        assert np.array_equal(got, PTS)

    @pytest.mark.parametrize("field, value", [
        pytest.param("version", cache.VERSION - 1, id="version-previous"),
        ("version", None),
        ("key", {"n": 3}),                       # another n
        ("key", {"n": 2, "a": [0.5, 0.0]}),      # another input
        ("sha256", "0" * 64),
    ])
    def test_mismatch_is_a_miss(self, tmp_cache, field, value):
        entry = cache._entry({"n": 2}, cache.Points(2).encode(PTS))
        entry[field] = value
        assert _recomputes(entry, cache.Points(2), PTS, tmp_cache)

    def test_altered_body_is_a_miss(self, tmp_cache):
        entry = cache._entry({"n": 2}, cache.Points(2).encode(PTS))
        entry["body"][1][0] = 0.5                 # well formed, digest stale
        assert _recomputes(entry, cache.Points(2), PTS, tmp_cache)

    def test_load_and_store_reached_through_the_module(self, tmp_cache, monkeypatch):
        # perfbench and the cold-pass test count hits by wrapping cache.load
        seen = []
        load, store = cache.load, cache.store
        monkeypatch.setattr(cache, "load", lambda *a: seen.append("load") or load(*a))
        monkeypatch.setattr(cache, "store", lambda *a: seen.append("store") or store(*a))
        cache.cached("k", 2, {}, lambda: PTS, cache.Points(2), tmp_cache)
        cache.cached("k", 2, {}, _never, cache.Points(2), tmp_cache)
        assert seen == ["load", "store", "load"]


def _altered(entry):
    # one value changed, still well formed; the digest is left stale
    body = entry["body"]
    if isinstance(body[-1], str):
        body[-1] = str(int(body[-1]) + 1)
    else:
        body[0][0] += 0.5
    return entry


def _unversioned(entry):
    # the layout written before entries carried a version, key and digest
    field = "coeffs" if isinstance(entry["body"][-1], str) else "points"
    return {**entry["key"], field: entry["body"]}


def _other_schedule(entry):
    entry["key"]["schedule"] = [[None, 100], [50, 90]]
    return entry


def _seeded_sigma_points(n, d):
    near = yv.yv_zeros(n, cache_dir=d).points
    return branching.sigma_points(n, cache_dir=d, near=near)


ARTIFACTS = {
    "sigma-poly": ("sigma-poly-6.json",
                   lambda d: branching.sigma_polynomial(6, cache_dir=d).coeffs),
    "sigma-points": ("sigma-points-25.json",
                     lambda d: branching.sigma_points(25, cache_dir=d).points.points),
    "sigma-points-yv": ("sigma-points-yv-25.json",
                        lambda d: _seeded_sigma_points(25, d).points.points),
    "yv-zeros": ("yv-zeros-25.json", lambda d: yv.yv_zeros(25, cache_dir=d).points),
    "eigs": ("eigs-0p5_m0p5-81.json",
             lambda d: spectral.eigenvalues(81, 0.5 - 0.5j, cache_dir=d).points),
}


@pytest.mark.parametrize("tamper", [_altered, _unversioned, _other_schedule])
@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_tampered_artifact_is_recomputed(tmp_cache, kind, tamper):
    name, run = ARTIFACTS[kind]
    want = run(tmp_cache)
    path = Path(tmp_cache) / name
    good = path.read_text()
    path.write_text(json.dumps(tamper(json.loads(good))))
    assert list(run(tmp_cache)) == list(want)
    assert path.read_text() == good


def test_missing_directory_is_not_created(tmp_path, capsys):
    d = tmp_path / "absent"
    assert cli.main(["cache", "ls", "--cache-dir", str(d)]) == 0
    assert cli.main(["cache", "clear", "--cache-dir", str(d)]) == 0
    assert "removed 0" in capsys.readouterr().out
    assert cache.load("k", 2, str(d)) is None
    assert not d.exists()
    cache.store("k", 2, {}, str(d / "sub"))
    assert cache.list_entries(str(d / "sub")) == ["k-2.json"]


# SHA-256 of the encoded body (the exact bits) of one cheap output per kind,
# for each cache.VERSION.  A change that moves one of these outputs must
# raise VERSION, so that entries written by the old code are misses, and add
# its row here.  The sigma-points row pins n = 6, below
# yv.POINTS_CACHE_FROM_N, so it is not itself a stored entry: it pins Aberth's
# threefold route on the exact sigma polynomial, which the stored kinds
# sigma-points and sigma-points-yv (n >= 25) also run.  sigma-poly and yv-poly are
# integers and hold anywhere.  The point kinds are the last multiprecision
# iterates rounded to doubles, from seeds that come from numpy's double stage
# and LAPACK; their hashes hold for x86-64 Linux, CPython 3.11, numpy 2.4.6 on
# OpenBLAS 0.3.31, where they were recorded.  On another platform other
# seeds may end a root one rounding away, and a point hash may differ with
# no change to the algorithm.
PINNED_OUTPUTS = {
    2: {"eigs": "d10f211037fa0798f04a40753d3c1105a003f682a934175d8182baa752e99d8d",
        "yv-zeros": "09d8cb5c5fed15722a48ae78ce1a18f95dda6f196be70d482aec4501b8011d8a",
        "sigma-poly": "fec13fb321102a3805e24e6c9f9f003fe811d3cfe334e77c36d651bb83fc9469",
        "sigma-points": "e7c27fa74a8f6874b186aeb326287b390970be3ac3acf8de949f8183808873e6"},
    # spectra from the exact Gaussian-integer charpoly: eigs moves by an ulp
    3: {"eigs": "d94d21b0452a1ffebafabd634d9cc3f0693cf7ea771891dfb06c2e1a440fe320",
        "yv-zeros": "09d8cb5c5fed15722a48ae78ce1a18f95dda6f196be70d482aec4501b8011d8a",
        "sigma-poly": "fec13fb321102a3805e24e6c9f9f003fe811d3cfe334e77c36d651bb83fc9469",
        "sigma-points": "e7c27fa74a8f6874b186aeb326287b390970be3ac3acf8de949f8183808873e6"},
    # the a = 0 spectra start from the cube block of the balanced matrix:
    # eigenvalues(81, 0) moves by an ulp, which eigs-a0 now pins
    4: {"eigs": "d94d21b0452a1ffebafabd634d9cc3f0693cf7ea771891dfb06c2e1a440fe320",
        "eigs-a0": "6dba9a315f7081be1b0efb911579e9527e729c84516b2c8995240532df021eae",
        "yv-poly": "d0172faecf7f73e33a015a72dfae6292369f4af25e63dcede1f9f71f34453315",
        "yv-zeros": "09d8cb5c5fed15722a48ae78ce1a18f95dda6f196be70d482aec4501b8011d8a",
        "sigma-poly": "fec13fb321102a3805e24e6c9f9f003fe811d3cfe334e77c36d651bb83fc9469",
        "sigma-points": "e7c27fa74a8f6874b186aeb326287b390970be3ac3acf8de949f8183808873e6"},
}
PINNED = {
    "eigs": (lambda d: spectral.eigenvalues(81, 0.5 - 0.5j, cache_dir=d).points,
             cache.Points(82)),
    "eigs-a0": (lambda d: spectral.eigenvalues(81, 0, cache_dir=d).points,
                cache.Points(82)),
    "yv-poly": (lambda d: yv.yv_generate(20, cache_dir=d)[20].coeffs,
                cache.IntPoly(210)),
    "yv-zeros": (lambda d: yv.yv_zeros(25, cache_dir=d).points, cache.Points(325)),
    "sigma-poly": (lambda d: branching.sigma_polynomial(6, cache_dir=d).coeffs,
                   cache.IntPoly(21)),
    "sigma-points": (lambda d: branching.sigma_points(6, cache_dir=d).points.points,
                     cache.Points(21)),
}


def test_version_pins_outputs(tmp_cache):
    got = {kind: cache._entry({}, codec.encode(run(tmp_cache)))["sha256"]
           for kind, (run, codec) in PINNED.items()}
    assert got == PINNED_OUTPUTS.get(cache.VERSION)


@pytest.mark.parametrize("name, run", [
    ("sigma-poly-3.json", lambda d: branching.sigma_polynomial(3, cache_dir=d).coeffs),
    ("eigs-0p5_m0p5-81.json",
     lambda d: spectral.eigenvalues(81, 0.5 - 0.5j, cache_dir=d).points),
], ids=["sigma-poly", "eigs"])
def test_directory_at_entry_path_is_a_miss(tmp_cache, name, run):
    # a directory where the entry belongs is neither served nor replaced,
    # and no call crashes on it: store skips the write
    want = run(None)
    (Path(tmp_cache) / name / "inner").mkdir(parents=True)
    for _ in range(2):
        assert list(run(tmp_cache)) == list(want)
    assert (Path(tmp_cache) / name / "inner").is_dir()
    assert [p.name for p in Path(tmp_cache).iterdir()] == [name]
    assert cache.list_entries(tmp_cache) == [] and cache.clear(tmp_cache) == 0


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file-is-dir", "dir-under-file"])
def test_unwritable_cache_dir_returns_the_value(tmp_path, sub):
    # a plain file where the cache directory (or a parent of it) belongs:
    # making the directory fails, every read is a miss, every write is
    # skipped, and the computed value comes back all the same
    (tmp_path / "cache").write_text("not a directory")
    d = str(tmp_path / "cache" / sub)
    assert cache.store("k", 2, {}, d) is None
    want = branching.sigma_polynomial(3, cache_dir=None).coeffs
    for _ in range(2):
        assert branching.sigma_polynomial(3, cache_dir=d).coeffs == want
    assert (tmp_path / "cache").read_text() == "not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]


class TestSigmaPointEntries:
    """sigma_points from yv.POINTS_CACHE_FROM_N on: one kind per route."""

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        aberth = rootfind.aberth_roots

        def counted(*args, **kwargs):
            calls.append(1)
            return aberth(*args, **kwargs)

        monkeypatch.setattr(rootfind, "aberth_roots", counted)
        return calls

    def test_warm_call_repeats_the_cold_one(self, tmp_cache, monkeypatch):
        cold = _seeded_sigma_points(25, tmp_cache)
        calls = self._count_solves(monkeypatch)
        warm = _seeded_sigma_points(25, tmp_cache)
        assert calls == []
        assert warm.points.points.tobytes() == cold.points.points.tobytes()
        assert (warm.rows, warm.cols, warm.min_margin) == \
            (cold.rows, cold.cols, cold.min_margin)

    def test_warm_triangle_runs_no_root_finding(self, tmp_cache, monkeypatch):
        branching.triangle_sets(25, cache_dir=tmp_cache)
        calls = self._count_solves(monkeypatch)
        kinds = []
        load = cache.load
        monkeypatch.setattr(cache, "load", lambda kind, *a: kinds.append(kind)
                            or load(kind, *a))
        branching.triangle_sets(25, cache_dir=tmp_cache)
        assert calls == []
        assert kinds == ["yv-zeros", "sigma-points-yv"]

    def test_routes_keep_their_own_entries(self, tmp_cache, monkeypatch):
        near = yv.yv_zeros(25, cache_dir=tmp_cache).points
        seeded = branching.sigma_points(25, cache_dir=tmp_cache, near=near)
        plain = branching.sigma_points(25, cache_dir=tmp_cache)
        names = [p for p in cache.list_entries(tmp_cache) if "points" in p]
        assert names == ["sigma-points-25.json", "sigma-points-yv-25.json"]
        calls = self._count_solves(monkeypatch)
        again = branching.sigma_points(25, cache_dir=tmp_cache, near=near)
        assert again.points.points.tobytes() == seeded.points.points.tobytes()
        again = branching.sigma_points(25, cache_dir=tmp_cache)
        assert again.points.points.tobytes() == plain.points.points.tobytes()
        assert calls == []

    def test_other_seeds_are_a_miss(self, tmp_cache, monkeypatch):
        near = yv.yv_zeros(25, cache_dir=tmp_cache).points
        want = branching.sigma_points(25, cache_dir=tmp_cache, near=near).points.points
        calls = self._count_solves(monkeypatch)
        moved = near * (1 + 2.0 ** -30)
        assert branching._yv_seeds(moved, 325 // 3) is not None
        got = branching.sigma_points(25, cache_dir=tmp_cache, near=moved).points.points
        assert calls == [1]
        dist = np.abs(got[:, None] - want[None, :])
        assert sorted(dist.argmin(axis=1)) == list(range(len(want)))
        assert dist.min(axis=1).max() < 1e-12 * np.abs(want).max()

    def test_below_the_threshold_nothing_is_stored(self, tmp_cache):
        n = yv.POINTS_CACHE_FROM_N - 1
        branching.sigma_points(n, cache_dir=tmp_cache)
        branching.sigma_points(n, cache_dir=tmp_cache,
                               near=yv.yv_zeros(n, cache_dir=tmp_cache).points)
        assert not [p for p in cache.list_entries(tmp_cache) if "points" in p]
