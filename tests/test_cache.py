import numpy as np
import pytest

from qesquartic import cache


class TestPointCodec:
    def test_roundtrip(self, tmp_cache):
        pts = np.array([1 + 2j, -0.5j, 3.25])
        cache.store("pts", 3, {"points": cache.encode_points(pts)}, tmp_cache)
        got = cache.decode_points(cache.load("pts", 3, tmp_cache), 3)
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
    def test_bad_payload_is_a_miss(self, payload):
        assert cache.decode_points(payload, 2) is None

    @pytest.mark.parametrize("data", [b'{"points": [[1.0, 2.', b"\xff\xfe{"])
    def test_unreadable_file_is_a_miss(self, tmp_cache, data):
        cache.artifact_path("pts", 2, tmp_cache).write_bytes(data)
        assert cache.load("pts", 2, tmp_cache) is None


class TestIntPolyCodec:
    def test_roundtrip(self, tmp_cache):
        cs = [-(10 ** 40), 0, 7]
        cache.store("ip", 2, {"coeffs": cache.encode_int_poly(cs)}, tmp_cache)
        assert cache.decode_int_poly(cache.load("ip", 2, tmp_cache), 2) == cs

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
    def test_bad_payload_is_a_miss(self, payload):
        assert cache.decode_int_poly(payload, 2) is None
