import json
from pathlib import Path

import numpy as np
import pytest

from qesquartic import branching, cache, cli, spectral, yv

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


ARTIFACTS = {
    "sigma-poly": ("sigma-poly-6.json",
                   lambda d: branching.sigma_polynomial(6, cache_dir=d).num),
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
# its row here.  sigma-points are not stored themselves; they pin Aberth's
# threefold route on the exact sigma polynomial.  sigma-poly is integers and
# holds anywhere.  The three point kinds are the last multiprecision iterates
# rounded to doubles, from seeds that come from numpy's double stage and
# LAPACK; their hashes hold for x86-64 Linux, CPython 3.11, numpy 2.4.6 on
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
}
PINNED = {
    "eigs": (lambda d: spectral.eigenvalues(81, 0.5 - 0.5j, cache_dir=d).points,
             cache.Points(82)),
    "yv-zeros": (lambda d: yv.yv_zeros(25, cache_dir=d).points, cache.Points(325)),
    "sigma-poly": (lambda d: branching.sigma_polynomial(6, cache_dir=d).num,
                   cache.IntPoly(21)),
    "sigma-points": (lambda d: branching.sigma_points(6, cache_dir=d).points.points,
                     cache.Points(21)),
}


def test_version_pins_outputs(tmp_cache):
    got = {kind: cache._entry({}, codec.encode(run(tmp_cache)))["sha256"]
           for kind, (run, codec) in PINNED.items()}
    assert got == PINNED_OUTPUTS.get(cache.VERSION)


@pytest.mark.parametrize("name, run", [
    ("sigma-poly-3.json", lambda d: branching.sigma_polynomial(3, cache_dir=d).num),
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
    want = branching.sigma_polynomial(3, cache_dir=None).num
    for _ in range(2):
        assert branching.sigma_polynomial(3, cache_dir=d).num == want
    assert (tmp_path / "cache").read_text() == "not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
