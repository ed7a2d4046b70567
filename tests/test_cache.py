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
        ("version", cache.VERSION - 1),
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
