import hashlib
import json

import numpy as np
import pytest

from qesquartic import branching, cache, verify, yv
from qesquartic.errors import NotDivisible, StructureViolation
from qesquartic.exactpoly import ExactPoly
from qesquartic.pointset import sort_points

from oracles import painleve_residual_mp, recurrence_holds_five_eval, yv_tform


class TestGeneration:
    def test_low_members(self):
        seq = yv.yv_generate(4)
        assert seq[0] == ExactPoly([1])
        assert seq[1] == ExactPoly([0, 1])
        assert seq[2] == ExactPoly([4, 0, 0, 1])
        assert seq[3] == ExactPoly([-80, 0, 0, 20, 0, 0, 1])
        assert seq[4] == ExactPoly([0, 11200, 0, 0, 0, 0, 0, 60, 0, 0, 1])

    def test_degrees_and_divisibility(self):
        # generation itself enforces exact divisibility at every step
        seq = yv.yv_generate(20)
        for n in range(21):
            assert seq[n].degree == n * (n + 1) // 2

    def test_monic_integer(self):
        seq = yv.yv_generate(12)
        for p in seq.polys:
            assert p.coeffs[-1] == 1 and all(type(c) is int for c in p.coeffs)

    @pytest.mark.parametrize("n", [5, 9, 14, 20])
    def test_coefficient_support_mod3(self, n):
        # supp(YV_n) lies in degrees == deg YV_n (mod 3)
        cs = yv._yv_int_coeffs(n)[n]
        d = len(cs) - 1
        assert all(c == 0 or j % 3 == d % 3 for j, c in enumerate(cs))

    def test_members_built_once(self, monkeypatch):
        # later calls load every member from the (session) cache
        first = yv._yv_int_coeffs(30)
        for n in range(1, 11):
            yv.painleve_residual(n, 0.3 + 0.2j)
        built = []
        div_exact = yv.intpoly.div_exact
        monkeypatch.setattr(yv.intpoly, "div_exact",
                            lambda p, q: built.append(q) or div_exact(p, q))
        assert yv._yv_int_coeffs(30) == first
        assert built == []

    def test_matches_t_form_oracle(self):
        assert yv._yv_int_coeffs(15) == tuple(yv_tform(15))

    def test_members_0_to_40_bit_identical(self):
        # SHA-256 of YV_0..YV_40: each poly's ascending decimal coefficients
        # joined by ",", the polys joined by ";"
        enc = ";".join(",".join(str(c) for c in cs)
                       for cs in yv._yv_int_coeffs(40)[:41])
        assert hashlib.sha256(enc.encode()).hexdigest() == (
            "c5b81706ab379aa75137890fe6ef1ec17779c54cc78e08b4207e9f808dc3d655")

    @pytest.mark.parametrize("start, n", [
        ([(1,), (0, 1), (5, 0, 0, 1)], 4),   # t^3 + 5 does not divide numerator 4
        ([(0, 0, 1), (1, 0, 0, 1)], 2),      # t^2 does not: a pole at t = 0
        ([(0, 0, 1), (4, 0, 0, 1)], 2),      # nor with members integral in s
        ([(1,), (0, 1), (2, 0, 0, 1)], 3),   # t^3 + 2: 2 is not a multiple of 4
    ], ids=["g", "power-of-t", "power-of-t-in-s", "s-form"])
    def test_non_exact_step_raises(self, start, n):
        with pytest.raises(NotDivisible):
            _steps(start, n)

    def test_divisor_in_s_form(self, monkeypatch):
        # YV_30's step divides by the s-form g of YV_28, whose coefficient
        # g_k / 4^(d-k) drops 2(d-k) bits (1265 bits at most in t)
        ys = yv._yv_int_coeffs(30)
        divisors = []
        div_exact = yv.intpoly.div_exact
        monkeypatch.setattr(yv.intpoly, "div_exact",
                            lambda p, q: divisors.append(q) or div_exact(p, q))
        assert yv._step(ys[29], ys[28]) == ys[30]
        [q] = divisors
        assert q[-1] == 1
        assert max(map(abs, q)).bit_length() == 997

    def test_mixed_support_refused(self):
        with pytest.raises(StructureViolation):
            _steps([(1,), (0, 1), (5, 1, 0, 1)], 3)


def _steps(start, n):
    """Members start[0], start[1], ... continued by yv._step as far as n."""
    ys = list(start)
    while len(ys) <= n:
        ys.append(yv._step(ys[-1], ys[-2]))
    return ys


N_CACHED = 15


@pytest.fixture()
def members():
    """YV_0..YV_N_CACHED, as the session cache serves them."""
    return yv._yv_int_coeffs(N_CACHED)


def _serve(monkeypatch, ys):
    """Make every recursion step return ys[n] for YV_n: a member of ys that
    breaks the recursion reaches the cache as if a step had built it."""
    index = {len(y): n for n, y in enumerate(ys)}   # degrees are distinct
    monkeypatch.setattr(yv, "_step", lambda y1, y2: ys[index[len(y1)] + 1])


def _no_steps(monkeypatch):
    def no_division(p, q):
        raise AssertionError("a member was recomputed")
    monkeypatch.setattr(yv.intpoly, "div_exact", no_division)


class TestCachedMembers:
    def test_recurrence_holds_matches_five_evaluations(self):
        ys = yv._yv_int_coeffs(30)
        for n in range(2, 31):
            bad = list(ys[n])
            bad[len(bad) // 2] += 1              # one coefficient changed
            for y in (ys[n], bad):
                got = yv.recurrence_holds(y, ys[n - 1], ys[n - 2])
                assert got == recurrence_holds_five_eval(y, ys[n - 1], ys[n - 2])
                assert got == (y is ys[n])

    def test_warm_load_evaluates_each_member_once(self, monkeypatch, tmp_cache):
        ys = yv._yv_int_coeffs(30, tmp_cache)
        evaluated = []
        jet = yv._jet
        monkeypatch.setattr(yv, "_jet", lambda p: evaluated.append(tuple(p)) or jet(p))
        assert yv._yv_int_coeffs(30, tmp_cache) == ys
        assert sorted(evaluated, key=len) == list(ys)

    def test_warm_call_loads_and_does_not_recompute(self, monkeypatch, members,
                                                    tmp_cache):
        assert yv._yv_int_coeffs(N_CACHED, tmp_cache) == members
        _no_steps(monkeypatch)
        assert yv._yv_int_coeffs(N_CACHED, tmp_cache) == members

    @pytest.mark.parametrize("damage", ["wrong-degree", "one-coefficient",
                                        "directory"])
    def test_damaged_entry_is_recomputed(self, monkeypatch, members, tmp_cache,
                                         damage):
        n = 13
        yv._yv_int_coeffs(N_CACHED, tmp_cache)
        path = cache.artifact_path("yv-poly", n, tmp_cache)
        body = json.loads(path.read_text())["body"]
        if damage == "directory":
            path.unlink()
            (path / "inner").mkdir(parents=True)
        else:
            if damage == "wrong-degree":
                body = body[1:]
            else:
                # a forged entry: the digest matches the changed body
                k = next(j for j, c in enumerate(body) if c != "0")
                body[k] = str(int(body[k]) + 1)
            cache.store("yv-poly", n, cache._entry({"n": n}, body), tmp_cache)
        assert yv._yv_int_coeffs(N_CACHED, tmp_cache) == members
        if damage != "directory":
            _no_steps(monkeypatch)
        assert yv._yv_int_coeffs(N_CACHED, tmp_cache) == members
        if damage == "directory":
            assert (path / "inner").is_dir()
        else:
            assert json.loads(path.read_text())["body"] == [str(c) for c in members[n]]

    def test_member_not_integral_in_s_is_refused(self, monkeypatch, members,
                                                 tmp_cache):
        # YV_(n-1) + 1 is integral in t, but its constant term, the g_0 of a
        # g of degree d, is odd where 4^d must divide it
        n = 12
        bad = list(members[n - 1])
        bad[(len(bad) - 1) % 3] += 1
        step = yv._step
        monkeypatch.setattr(yv, "_step", lambda y1, y2: (
            tuple(bad) if len(y1) == len(members[n - 2]) else step(y1, y2)))
        with pytest.raises(NotDivisible):
            yv._yv_int_coeffs(n, tmp_cache)
        assert cache.list_entries(tmp_cache) == sorted(
            f"yv-poly-{k}.json" for k in range(2, n))
        # the stored YV_(n-1) fails recurrence_holds: a later call rebuilds it
        monkeypatch.setattr(yv, "_step", step)
        assert yv._yv_int_coeffs(n, tmp_cache) == members[: n + 1]

    def test_writes_only_cached_members_under_cache_dir(self, monkeypatch,
                                                        tmp_path):
        home, env, target = (tmp_path / d for d in ("home", "env", "target"))
        for d in (home, env):
            d.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv(cache.ENV_VAR, str(env))
        yv.yv_generate(N_CACHED, cache_dir=str(target))
        assert cache.list_entries(str(target)) == sorted(
            f"yv-poly-{n}.json" for n in range(2, N_CACHED + 1))
        assert list(home.rglob("*")) == [] and list(env.rglob("*")) == []

    def test_each_cache_dir_gets_every_member(self, tmp_path):
        # no member is kept in memory between calls: a second directory in
        # the same process receives the whole sequence, not just what is new
        want = sorted(f"yv-poly-{n}.json" for n in range(2, 21))
        for d in ("a", "b"):
            yv.yv_generate(20, cache_dir=str(tmp_path / d))
            assert cache.list_entries(str(tmp_path / d)) == want

    def test_verify_checks_every_member_it_is_given(self, monkeypatch, members,
                                                    tmp_cache):
        # a member that breaks the recursion but has the right degree is
        # caught by verify's identity check, not only by the one on load
        n = 13
        bad = list(members[n])
        bad[n * (n + 1) // 2 % 3] += 7     # the lowest coefficient of the support
        _serve(monkeypatch, members[:n] + (tuple(bad),) + members[n + 1:])
        rec = verify.run_check("yv-exact", N_CACHED, cache_dir=tmp_cache)
        assert not rec["passed"]
        assert rec["detail"] == f"recursion identity fails at n={n}"
        _serve(monkeypatch, members)
        rec = verify.run_check("yv-exact", N_CACHED, cache_dir=tmp_cache)
        assert rec["passed"] and "recursion identity" in rec["detail"]


class TestZeros:
    def test_first(self):
        z = yv.yv_zeros(1)
        assert len(z.points) == 1
        assert abs(z.points[0]) == 0

    def test_second_cube_roots(self):
        z = np.sort_complex(yv.yv_zeros(2).points)
        targets = np.sort_complex(np.roots([1, 0, 0, 4]))
        assert np.abs(z - targets).max() < 1e-10

    def test_negative_n_refused(self):
        with pytest.raises(ValueError):
            yv.yv_zeros(-1)

    def test_count_matches_degree(self):
        for n in (4, 7, 10):
            assert len(yv.yv_zeros(n).points) == n * (n + 1) // 2

    def test_zero_root_multiplicity(self):
        # deg YV_4 = 10 == 1 mod 3: exactly one zero at the origin
        z = yv.yv_zeros(4).points
        assert int((np.abs(z) < 1e-12).sum()) == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            yv.yv_zeros(61)

    def test_cache_roundtrip(self, tmp_cache):
        a = yv.yv_zeros(25, cache_dir=tmp_cache).points
        b = yv.yv_zeros(25, cache_dir=tmp_cache).points
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_sorted_below_and_above_the_cache_threshold(self, n, tmp_cache):
        # (the cache once started at n = 25) the cold call computes, the
        # warm one loads: both sorted, the same points
        z = yv.yv_zeros(n, cache_dir=tmp_cache).points
        assert np.array_equal(z, sort_points(z))
        assert cache.list_entries(tmp_cache)[-1] == f"yv-zeros-{n}.json"
        assert yv.yv_zeros(n, cache_dir=tmp_cache).points.tobytes() == z.tobytes()


class TestScaledZeros:
    def test_n2_value(self):
        _, ps = branching.triangle_sets(2)
        expect = 4 ** (1 / 3) / ((9 / 2) ** (2 / 3) * 2 ** (2 / 3))
        assert abs(ps.max_modulus() - expect) < 1e-12

    def test_growth_trend(self):
        # the scaled max modulus rises from below toward the corner limit
        # (27/2)^(1/3) / (9/2)^(2/3) = (2/3)^(1/3), not toward 1
        r10 = branching.triangle_sets(10)[1].max_modulus()
        r20 = branching.triangle_sets(20)[1].max_modulus()
        assert r10 < r20 < (2 / 3) ** (1 / 3)

    def test_corner_limit_extrapolation(self):
        # c(n) = max|zeros_n|/n^(2/3) approaches its limit like L - A n^(-p);
        # Aitken's delta-squared over n = 6, 12, 24 eliminates A and p.  The
        # limit (27/2)^(1/3) is where 2U^3 + yU + 1 = 0, the leading balance
        # of u'' = 2u^3 + tu + n at t = n^(2/3) y, u = n^(1/3) U, branches.
        c6, c12, c24 = (yv.yv_zeros(n).max_modulus() / n ** (2 / 3)
                        for n in (6, 12, 24))
        d1, d2 = c12 - c6, c24 - c12
        assert 0 < d2 < d1
        limit = c24 + d2 * d2 / (d1 - d2)
        assert abs(limit - (27 / 2) ** (1 / 3)) < 1e-3

    def test_verify_band_reports_corner_ratio(self):
        # n = 16 sits 11.5% short of the corner limit, outside the band
        rec = verify.run_check("yv-scaling-band", 16)
        ratio = yv.yv_zeros(16).max_modulus() / ((27 / 2) ** (1 / 3)
                                                 * 16 ** (2 / 3))
        assert not rec["passed"]
        assert f"= {ratio:.4f}" in rec["detail"]


class TestPainleve:
    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_ode_residual(self, n):
        # samples keep a margin from the poles (zeros of either polynomial),
        # as the operation's precondition requires
        poles = np.concatenate([yv.yv_zeros(n - 1).points if n >= 2 else [],
                                yv.yv_zeros(n).points])
        rng = np.random.RandomState(n)
        done = 0
        while done < 6:
            t = complex(rng.uniform(0.4, 2.2), rng.uniform(-0.6, 0.6))
            if len(poles) and np.abs(t - poles).min() < 0.25:
                continue
            assert yv.painleve_residual(n, t) < 1e-6
            done += 1

    @pytest.mark.parametrize("n", [26, 30])
    def test_ode_residual_past_double_range(self, n):
        # the coefficients of YV_26 on are wider than a double's range; the
        # oracle checks the same identity in mpmath with u'' differentiated
        # numerically
        assert painleve_residual_mp(n, 1.7) < 1e-30
        assert yv.painleve_residual(n, 1.7) < 1e-10

    def test_negative_n_refused(self):
        with pytest.raises(ValueError):
            yv.painleve_residual(-1, 1.7)
