import contextlib
import io
import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesquartic import cache, cli, rootfind
from qesquartic.branching import PEEL_MARGIN_MIN, SIGMA_CAP_DEFAULT
from qesquartic.spectral import EIG_CAP_DEFAULT
from qesquartic.yv import ZERO_CAP_DEFAULT


def refused(capsys, argv):
    """Run ``cli.main(argv)``, check it refused with exit status 2 and one
    ``error:`` line on stderr, and return that line."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("3", 3 + 0j),
        ("-2.5", -2.5 + 0j),
        ("0.5-0.5i", 0.5 - 0.5j),
        ("1+1i", 1 + 1j),
        ("-2i", -2j),
        ("i", 1j),
        ("0.8-0.666666i", 0.8 - 0.666666j),
        ("1+1j", 1 + 1j),
    ])
    def test_values(self, text, value):
        assert cli.parse_complex(text) == value

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_complex("not a number")


class TestFigureCommands:
    def test_figTau_small(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("figTau", out_dir=tmp_path / "ft",
                             cache_dir=tmp_cache, overrides={"k_max": 24})
        files = sorted(p.name for p in out.iterdir())
        assert "manifest.json" in files
        assert sum(f.endswith(".csv") for f in files) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["figure"] == "figTau"
        assert manifest["config"]["k_max"] == 24

    def test_fig1_small(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("fig1", out_dir=tmp_path / "f1",
                             cache_dir=tmp_cache, overrides={"n": 24})
        body = (out / "scaled_spectrum.csv").read_text().splitlines()
        assert body[0] == "re,im"
        assert len(body) == 1 + 25

    def test_triangle10_small(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("triangle10", out_dir=tmp_path / "t10",
                             cache_dir=tmp_cache, overrides={"n": 4})
        grid = json.loads((out / "grid_index.json").read_text())
        assert len(grid["points"]) == 10

    def test_triangle10_indexes_n31(self, tmp_path):
        # past n = 30 neighbouring columns overlap in real part; the peel
        # still gives every point its row and column
        out = cli.cmd_figure("triangle10", out_dir=tmp_path / "t31",
                             overrides={"n": 31})
        grid = json.loads((out / "grid_index.json").read_text())
        assert len(grid["points"]) == 496
        assert sorted(p["col"] for p in grid["points"]) == \
            [j for j in range(1, 32) for _ in range(j)]
        assert grid["min_margin"] >= PEEL_MARGIN_MIN

    def test_triangle_small(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("triangle", out_dir=tmp_path / "tri",
                             cache_dir=tmp_cache, overrides={"n": 6})
        rep = json.loads((out / "comparison.json").read_text())
        assert rep["card_a"] == rep["card_b"] == 21

    def test_triangle_cold_pass_computes_each_set_once(self, tmp_path, tmp_cache,
                                                       monkeypatch):
        # perfbench fails a cold pass that reads the cache: the YV zeros that
        # seed sigma must come from the one yv_zeros call, not a reload
        from qesquartic import verify, yv

        hits, calls = [], []
        load, yv_zeros = cache.load, yv.yv_zeros

        def counting_load(kind, n, directory=None):
            got = load(kind, n, directory)
            if got is not None:
                hits.append((kind, n))
            return got

        def counting_yv_zeros(n, cache_dir=None):
            calls.append(n)
            return yv_zeros(n, cache_dir=cache_dir)

        monkeypatch.setattr(cache, "load", counting_load)
        monkeypatch.setattr(yv, "yv_zeros", counting_yv_zeros)
        cli.cmd_figure("triangle", out_dir=tmp_path / "tri",
                       cache_dir=tmp_cache, overrides={"n": 25})
        assert hits == []
        assert calls == [25]
        calls.clear()
        # each yv_zeros call builds its members anew: n = 20 reads back the
        # members that n = 10 stored, and nothing else
        rep = verify.run_check("fig2-trend", (10, 20),
                               cache_dir=str(tmp_path / "trend"))
        assert rep["passed"], rep["detail"]
        assert hits == [("yv-poly", n) for n in range(2, 11)]
        assert calls == [10, 20]

    def test_figslopes(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("figslopes", out_dir=tmp_path / "fs",
                             cache_dir=tmp_cache)
        rep = json.loads((out / "deviation_phi0.json").read_text())
        assert rep["max_deviation"] < 5e-3

    def test_figAtau_curve(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("figAtau", out_dir=tmp_path / "at",
                             cache_dir=tmp_cache, overrides={"samples": 50})
        rows = (out / "threshold_curve.csv").read_text().splitlines()
        assert rows[0] == "tau,a"
        assert len(rows) == 52
        # the curve tops out at the real threshold value
        tops = max(float(r.split(",")[1]) for r in rows[1:])
        assert tops == pytest.approx(3 / 4 ** (1 / 3), rel=1e-3)

    def test_figA3_interval(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("figA3", out_dir=tmp_path / "a3",
                             cache_dir=tmp_cache, overrides={"tau_count": 6})
        rep = json.loads((out / "interval.json").read_text())
        lo, hi = rep["interval"]
        assert lo == pytest.approx(-1.63859, abs=1e-4)
        assert hi == pytest.approx(1.80861, abs=1e-4)

    def test_figA1_small(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("figA1", out_dir=tmp_path / "a1",
                             cache_dir=tmp_cache,
                             overrides={"n": 20, "tau_count": 5})
        sup = json.loads((out / "support_a0.json").read_text())
        assert set(sup) == {"a", "tau_grid", "endpoints"}

    def test_figA_small(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("figA", out_dir=tmp_path / "fa",
                             cache_dir=tmp_cache, overrides={"n": 20})
        eps = json.loads((out / "endpoints_a1.json").read_text())
        assert len(eps["endpoints"]) == 3

    def test_lattice_small(self, tmp_path, tmp_cache):
        out = cli.cmd_figure("lattice", out_dir=tmp_path / "lat",
                             cache_dir=tmp_cache,
                             overrides={"n": 4, "window": (-3, 3, -3, 3)})
        rep = json.loads((out / "drift.json").read_text())
        assert rep["count_a"] > 0
        assert rep["mean_drift"] < rep["local_spacing"]

    def test_lattice_solves_each_set_once(self, tmp_path, tmp_cache, monkeypatch):
        # the drift probe reuses the two sets the figure emits
        degrees = []
        solve = rootfind.threefold_roots

        def counted(coeffs, init=None):
            degrees.append(len(coeffs) - 1)
            return solve(coeffs, init=init)

        monkeypatch.setattr(rootfind, "threefold_roots", counted)
        out = cli.cmd_figure("lattice", out_dir=tmp_path / "lat",
                             cache_dir=tmp_cache, overrides={"n": 12})
        assert degrees == [78, 120]
        rep = json.loads((out / "drift.json").read_text())
        assert (rep["n"], rep["m"]) == (12, 15)
        assert rep["count_a"] > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cli.cmd_figure("nope")


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path, tmp_cache):
        o1 = cli.cmd_figure("figTau", out_dir=tmp_path / "r1",
                            cache_dir=tmp_cache, overrides={"k_max": 30})
        o2 = cli.cmd_figure("figTau", out_dir=tmp_path / "r2",
                            cache_dir=tmp_cache, overrides={"k_max": 30})
        for name in sorted(p.name for p in o1.iterdir()):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()

    def test_cached_figure_rerun(self, tmp_path, tmp_cache):
        ov = {"n": 10}
        o1 = cli.cmd_figure("triangle10", out_dir=tmp_path / "c1",
                            cache_dir=tmp_cache, overrides=ov)
        o2 = cli.cmd_figure("triangle10", out_dir=tmp_path / "c2",
                            cache_dir=tmp_cache, overrides=ov)
        for name in sorted(p.name for p in o1.iterdir()):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


class TestSweepAndCache:
    def test_sweep_serial(self, tmp_path, tmp_cache):
        out = cli.cmd_sweep("eigenvalues", [3, 5], a="1+1i",
                            out_dir=tmp_path / "sw", cache_dir=tmp_cache)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["eigenvalues_n3.csv", "eigenvalues_n5.csv",
                         "manifest.json"]

    def test_cache_clear_keeps_figure_files(self, tmp_path, capsys):
        d = str(tmp_path / "t10")
        assert cli.main(["figure", "triangle10", "--out", d, "--cache-dir", d]) == 0
        outputs = ["branching_points.csv", "grid_index.json", "manifest.json"]
        capsys.readouterr()
        assert cli.main(["cache", "ls", "--cache-dir", d]) == 0
        assert capsys.readouterr().out.split() == [
            "sigma-points-10.json", "sigma-poly-10.json"]
        assert cli.main(["cache", "clear", "--cache-dir", d]) == 0
        assert "removed 2 cached artifacts" in capsys.readouterr().out
        assert sorted(p.name for p in (tmp_path / "t10").iterdir()) == outputs

    def test_cache_ls_and_clear(self, tmp_cache):
        from qesquartic.branching import sigma_polynomial

        sigma_polynomial(4, cache_dir=tmp_cache)
        entries = cache.list_entries(tmp_cache)
        assert any(e.startswith("sigma-poly-4") for e in entries)
        removed = cache.clear(tmp_cache)
        assert removed >= 1
        assert cache.list_entries(tmp_cache) == []


class TestMainEntry:
    def test_help_runs(self, tmp_path, monkeypatch, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "qesquartic.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "figure" in proc.stdout
        # no defaults file, no worker pool: their flags are gone
        for command in ("figure", "verify", "sweep", "cache"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            assert "--cache-dir" in text
            assert "--config" not in text and "--jobs" not in text
        monkeypatch.chdir(tmp_path)
        for argv in (["sweep", "yv-zeros", "--n", "3", "--jobs", "2"],
                     ["figure", "fig1", "--config", "x.json"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert list(tmp_path.iterdir()) == []

    def test_figure_via_main(self, tmp_path, tmp_cache):
        rc = cli.main(["figure", "figTau", "--grid", "18",
                       "--out", str(tmp_path / "m1"),
                       "--cache-dir", tmp_cache])
        assert rc == 0
        manifest = json.loads((tmp_path / "m1" / "manifest.json").read_text())
        assert manifest["config"] == {"k_max": 18, "taus": [0.25, 0.5, 0.75]}

    def test_cache_cli(self, tmp_path):
        rc = cli.main(["cache", "ls", "--cache-dir", str(tmp_path / "cc")])
        assert rc == 0

    def test_figA3_real_a_via_main(self, tmp_path, tmp_cache):
        # --a is parsed into a complex; a real-valued one is accepted
        rc = cli.main(["figure", "figA3", "--a", "3", "--out",
                       str(tmp_path / "a3"), "--cache-dir", tmp_cache])
        assert rc == 0
        rep = json.loads((tmp_path / "a3" / "interval.json").read_text())
        assert rep["a"] == 3.0
        assert rep["interval"][1] == pytest.approx(1.80861, abs=1e-4)

    @pytest.mark.parametrize("argv, match", [
        (["figA1", "--tol", "0"], "tol must be positive"),
        (["figA1", "--tol", "nan"], "tol must be positive"),
        (["figA3", "--a", "nan"], "a must be finite"),
    ], ids=["figA1-tol-0", "figA1-tol-nan", "figA3-a-nan"])
    def test_bad_support_parameter_refused(self, argv, match, tmp_path, tmp_cache,
                                           capsys):
        # not an empty support file nor "no support found"
        assert match in refused(capsys, ["figure", *argv, "--out",
                                         str(tmp_path / "f"), "--cache-dir", tmp_cache])
        assert not (tmp_path / "f").exists()

    def test_figA3_nonreal_a_refused(self, tmp_path, tmp_cache, capsys):
        # a non-real a, or a real one with a^3 < 27/4 and so non-real
        # branch points: no real support interval
        for a in ("3+1j", "0", "1", "1.88"):
            assert "real" in refused(capsys, ["figure", "figA3", "--a", a, "--out",
                                              str(tmp_path / "a3"),
                                              "--cache-dir", tmp_cache])
            assert not (tmp_path / "a3").exists()


class TestRefusedInputs:
    @pytest.mark.parametrize("argv, match", [
        (["figAtau", "--grid", "0"], "samples must be >= 1"),
        (["figAtau", "--grid", "-1"], "samples must be >= 1"),
        (["figA1", "--grid", "0"], "tau_count must be >= 2"),
        (["figA1", "--grid", "1"], "tau_count must be >= 2"),
        (["figA3", "--grid", "0"], "tau_count must be >= 2"),
        (["figA3", "--grid", "1"], "tau_count must be >= 2"),
        (["figTau", "--grid", "2"], "k_max must be >= 3"),
        (["fig1", "--n", "0"], "n must be >= 1"),
        (["fig1", "--n", "401"], "exceeds the cap"),
        (["triangle", "--n", "41"], "exceeds the cap"),
        (["lattice", "--n", "38"], "lattice needs n + 3 <= 40"),
        (["lattice", "--n", "40"], "lattice needs n + 3 <= 40"),
        (["figA3", "--a", "inf"], "cannot parse"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_refused_with_one_error_line(self, argv, match, tmp_path, tmp_cache,
                                         capsys):
        out = tmp_path / "new" / "f"
        assert match in refused(capsys, ["figure", *argv, "--out", str(out),
                                         "--cache-dir", tmp_cache])
        assert not (tmp_path / "new").exists()

    def test_failing_sweep_removes_created_directories(self, tmp_path, tmp_cache,
                                                      capsys):
        assert "finite" in refused(capsys, ["sweep", "eigenvalues", "--n", "3",
                                            "--a", "nan+1i", "--out",
                                            str(tmp_path / "new" / "sw"),
                                            "--cache-dir", tmp_cache])
        assert not (tmp_path / "new").exists()

    def test_failing_sweep_keeps_existing_directory(self, tmp_path, tmp_cache):
        out = tmp_path / "sw"
        out.mkdir()
        with pytest.raises(ValueError):
            cli.cmd_sweep("eigenvalues", [3, 0], out_dir=out, cache_dir=tmp_cache)
        assert out.is_dir()

    def test_tol_admitting_every_raster_point_finishes(self, tmp_path, tmp_cache):
        # at tol = 1 every raster point is a support point
        start = time.perf_counter()
        rc = cli.main(["figure", "figA1", "--grid", "3", "--tol", "1", "--n", "20",
                       "--out", str(tmp_path / "a1"), "--cache-dir", tmp_cache])
        assert rc == 0
        assert time.perf_counter() - start < 20


# every integer flag of every figure and sweep: (command, flag, least value
# accepted, largest value accepted or None)
INT_FLAGS = [
    (["figure", "fig1"], "--n", 1, EIG_CAP_DEFAULT),
    (["figure", "figA"], "--n", 1, EIG_CAP_DEFAULT),
    (["figure", "figA1"], "--n", 1, EIG_CAP_DEFAULT),
    (["figure", "triangle"], "--n", 1, SIGMA_CAP_DEFAULT),
    (["figure", "triangle10"], "--n", 1, SIGMA_CAP_DEFAULT),
    (["figure", "lattice"], "--n", 1, SIGMA_CAP_DEFAULT - 3),
    (["figure", "figslopes"], "--n", 1, None),
    (["figure", "figTau"], "--grid", 3, None),
    (["figure", "figAtau"], "--grid", 1, None),
    (["figure", "figA1"], "--grid", 2, None),
    (["figure", "figA3"], "--grid", 2, None),
    (["sweep", "eigenvalues"], "--n", 1, EIG_CAP_DEFAULT),
    (["sweep", "scaled-spectrum"], "--n", 1, EIG_CAP_DEFAULT),
    (["sweep", "yv-zeros"], "--n", 0, ZERO_CAP_DEFAULT),
    (["sweep", "sigma-points"], "--n", 1, SIGMA_CAP_DEFAULT),
]

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NON_FINITE_COMPLEX = st.one_of(
    st.builds(complex, NON_FINITE, st.floats()),
    st.builds(complex, st.floats(), NON_FINITE)).map(cli._fmt_complex)
# every float and complex flag: (command, flag, refused values)
FLOAT_FLAGS = [
    (["figure", "figA1"], "--tol", st.one_of(st.floats(max_value=0.0), NON_FINITE)
     .map(repr)),
    (["figure", "figA3"], "--a", NON_FINITE_COMPLEX),
    (["sweep", "eigenvalues"], "--a", NON_FINITE_COMPLEX),
    (["sweep", "scaled-spectrum"], "--a", NON_FINITE_COMPLEX),
]


def _refused_values(least, largest):
    # least - 1, and 0 and -1 where they are refused, then any value below
    below = st.one_of(st.sampled_from(sorted({least - 1, min(0, least - 1), -1})),
                      st.integers(max_value=least - 1))
    return below if largest is None else st.one_of(
        below, st.just(largest + 1), st.integers(min_value=largest + 1))


class TestDrawnRefusals:
    """Each flag's refused values, drawn: every one exits 2 with one
    ``error:`` line and no traceback, and leaves no output directory.  A
    sweep's refused n may follow an n it accepts, whose file it has written
    by then.  Values go as ``--flag=value``: in ``--a -inf`` argparse takes
    ``-inf`` for an option name and prints its usage instead."""

    @staticmethod
    def _check(base, argv):
        # stderr is captured per example: capsys would span all of them
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--out", str(base / "new" / "o"),
                           "--cache-dir", str(base / "cache")])
        lines = err.getvalue().splitlines()
        assert rc == 2 and "Traceback" not in err.getvalue(), err.getvalue()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not (base / "new").exists()

    @pytest.mark.parametrize("command, flag, least, largest", INT_FLAGS,
                             ids=lambda v: "-".join(v) if isinstance(v, list)
                             else None)
    @settings(max_examples=8)
    @given(data=st.data())
    def test_int_flag(self, tmp_path_factory, command, flag, least, largest,
                      data):
        value = data.draw(_refused_values(least, largest))
        accepted = data.draw(st.lists(st.integers(least, least + 2), max_size=1)
                             if command[0] == "sweep" else st.just([]))
        values = ",".join(map(str, [*accepted, value]))
        self._check(tmp_path_factory.mktemp("drawn"),
                    [*command, f"{flag}={values}"])

    @pytest.mark.parametrize("command, flag, values", FLOAT_FLAGS,
                             ids=lambda v: "-".join(v) if isinstance(v, list)
                             else None)
    @settings(max_examples=8)
    @given(data=st.data())
    def test_float_flag(self, tmp_path_factory, command, flag, values, data):
        argv = [*command, f"{flag}={data.draw(values)}"]
        if command[0] == "sweep":
            argv += ["--n", "3"]
        self._check(tmp_path_factory.mktemp("drawn"), argv)


class TestParameterBinding:
    @pytest.mark.parametrize("argv", [
        ["figure", "figTau", "--grid", "18", "--a", "2"],
        ["figure", "fig1", "--grid", "3"],
        ["figure", "fig1", "--n", "10", "--tol", "0.1", "--grid", "3"],
    ], ids=["figTau-a", "fig1-grid", "fig1-tol-grid"])
    def test_stray_flag_refused_before_writing(self, argv, tmp_path, tmp_cache,
                                               capsys):
        out = tmp_path / "out"
        assert argv[1] in refused(capsys, argv + ["--out", str(out),
                                                  "--cache-dir", tmp_cache])
        assert not out.exists()

    def test_stray_override_refused(self, tmp_path, tmp_cache):
        with pytest.raises(ValueError, match="triangle10"):
            cli.cmd_figure("triangle10", out_dir=tmp_path / "t",
                           cache_dir=tmp_cache, overrides={"n": 4, "a": 2})
        assert not (tmp_path / "t").exists()

    def test_failing_figure_removes_created_directories(self, tmp_path, tmp_cache,
                                                       capsys):
        assert "real" in refused(capsys, ["figure", "figA3", "--a", "3+1j", "--out",
                                          str(tmp_path / "new" / "a3"),
                                          "--cache-dir", tmp_cache])
        assert not (tmp_path / "new").exists()

    def test_failing_figure_keeps_existing_directory(self, tmp_path, tmp_cache):
        out = tmp_path / "a3"
        out.mkdir()
        with pytest.raises(ValueError):
            cli.cmd_figure("figA3", out_dir=out, cache_dir=tmp_cache,
                           overrides={"a": 3 + 1j})
        assert out.is_dir()

    def test_grid_sets_figA1_tau_count(self, tmp_path, tmp_cache):
        out = tmp_path / "a1"
        rc = cli.main(["figure", "figA1", "--n", "20", "--grid", "5",
                       "--out", str(out), "--cache-dir", tmp_cache])
        assert rc == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["tau_count"] == 5
        assert isinstance(config["tol"], float) and config["tol"] > 0
        sup = json.loads((out / "support_a0.json").read_text())
        assert sup["tau_grid"] == [0.2, 0.4, 0.5, 0.6, 0.8]

    @pytest.mark.parametrize("op", ["yv-zeros", "sigma-points"])
    def test_sweep_refuses_a(self, op, tmp_path, tmp_cache, capsys):
        out = tmp_path / "sw"
        assert op in refused(capsys, ["sweep", op, "--n", "4", "--a", "2",
                                      "--out", str(out), "--cache-dir", tmp_cache])
        assert not out.exists()

    def test_sweep_manifest_records_a_only_where_taken(self, tmp_path, tmp_cache):
        o1 = cli.cmd_sweep("eigenvalues", [3], out_dir=tmp_path / "e",
                           cache_dir=tmp_cache)
        o2 = cli.cmd_sweep("yv-zeros", [3], out_dir=tmp_path / "y",
                           cache_dir=tmp_cache)
        assert json.loads((o1 / "manifest.json").read_text())["a"] == "0"
        assert "a" not in json.loads((o2 / "manifest.json").read_text())


class TestCacheDirConfinesWrites:
    def test_triangle_writes_only_under_cache_dir(self, tmp_path, monkeypatch):
        home, env_cache, target = (tmp_path / d for d in ("home", "env", "target"))
        for d in (home, env_cache):
            d.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv(cache.ENV_VAR, str(env_cache))
        cli.cmd_figure("triangle", out_dir=tmp_path / "out",
                       cache_dir=str(target), overrides={"n": 25})
        assert list(home.rglob("*")) == []
        assert list(env_cache.rglob("*")) == []
        assert {"yv-zeros-25.json", "sigma-poly-25.json"} <= set(
            cache.list_entries(str(target)))
