import json
import subprocess
import sys

import pytest

from qesquartic import cache, cli, rootfind
from qesquartic.branching import PEEL_MARGIN_MIN


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
        rep = verify.criterion_fig2_trend((10, 20), cache_dir=tmp_cache)
        assert rep["passed"], rep["detail"]
        assert hits == []
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
        assert set(sup) == {"a", "tau_grid", "legs", "endpoints"}

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

    def test_sweep_parallel_matches_serial(self, tmp_path, tmp_cache):
        o1 = cli.cmd_sweep("yv-zeros", [4, 6], out_dir=tmp_path / "s1",
                           cache_dir=tmp_cache, jobs=1)
        o2 = cli.cmd_sweep("yv-zeros", [4, 6], out_dir=tmp_path / "s2",
                           cache_dir=tmp_cache, jobs=2)
        for name in ("yv_zeros_n4.csv", "yv_zeros_n6.csv"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()

    def test_cache_ls_and_clear(self, tmp_cache):
        from qesquartic.branching import sigma_polynomial

        sigma_polynomial(4, cache_dir=tmp_cache)
        entries = cache.list_entries(tmp_cache)
        assert any(e.startswith("sigma-poly-4") for e in entries)
        removed = cache.clear(tmp_cache)
        assert removed >= 1
        assert cache.list_entries(tmp_cache) == []


class TestMainEntry:
    def test_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qesquartic.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "figure" in proc.stdout

    def test_figure_via_main(self, tmp_path, tmp_cache):
        rc = cli.main(["figure", "figTau", "--grid", "18",
                       "--out", str(tmp_path / "m1"),
                       "--cache-dir", tmp_cache])
        assert rc == 0
        manifest = json.loads((tmp_path / "m1" / "manifest.json").read_text())
        assert manifest["config"] == {"k_max": 18, "taus": [0.25, 0.5, 0.75]}

    def test_config_precedence(self, tmp_path, tmp_cache):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"out": str(tmp_path / "from-config")}))
        rc = cli.main(["figure", "figTau", "--grid", "18",
                       "--config", str(conf), "--cache-dir", tmp_cache])
        assert rc == 0
        assert (tmp_path / "from-config" / "manifest.json").exists()

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

    def test_figA3_nonreal_a_refused(self, tmp_path, tmp_cache):
        with pytest.raises(ValueError, match="real"):
            cli.main(["figure", "figA3", "--a", "3+1j", "--out",
                      str(tmp_path / "a3"), "--cache-dir", tmp_cache])


class TestParameterBinding:
    @pytest.mark.parametrize("argv", [
        ["figure", "figTau", "--grid", "18", "--a", "2"],
        ["figure", "fig1", "--grid", "3"],
        ["figure", "fig1", "--n", "10", "--tol", "0.1", "--grid", "3"],
    ], ids=["figTau-a", "fig1-grid", "fig1-tol-grid"])
    def test_stray_flag_refused_before_writing(self, argv, tmp_path, tmp_cache):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=argv[1]):
            cli.main(argv + ["--out", str(out), "--cache-dir", tmp_cache])
        assert not out.exists()

    def test_stray_override_refused(self, tmp_path, tmp_cache):
        with pytest.raises(ValueError, match="triangle10"):
            cli.cmd_figure("triangle10", out_dir=tmp_path / "t",
                           cache_dir=tmp_cache, overrides={"n": 4, "a": 2})
        assert not (tmp_path / "t").exists()

    def test_failing_figure_removes_created_directories(self, tmp_path, tmp_cache):
        with pytest.raises(ValueError, match="real"):
            cli.main(["figure", "figA3", "--a", "3+1j", "--out",
                      str(tmp_path / "new" / "a3"), "--cache-dir", tmp_cache])
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
    def test_sweep_refuses_a(self, op, tmp_path, tmp_cache):
        out = tmp_path / "sw"
        with pytest.raises(ValueError, match=op):
            cli.main(["sweep", op, "--n", "4", "--a", "2", "--out", str(out),
                      "--cache-dir", tmp_cache])
        assert not out.exists()

    def test_sweep_manifest_records_a_only_where_taken(self, tmp_path, tmp_cache):
        o1 = cli.cmd_sweep("eigenvalues", [3], out_dir=tmp_path / "e",
                           cache_dir=tmp_cache)
        o2 = cli.cmd_sweep("yv-zeros", [3], out_dir=tmp_path / "y",
                           cache_dir=tmp_cache)
        assert json.loads((o1 / "manifest.json").read_text())["a"] == "0"
        assert "a" not in json.loads((o2 / "manifest.json").read_text())


class TestConfigFile:
    def _conf(self, tmp_path, values):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(values))
        return str(conf)

    def test_numeric_a_parsed_like_the_flag(self, tmp_path, tmp_cache):
        rc = cli.main(["figure", "figA3", "--config", self._conf(tmp_path, {"a": 3}),
                       "--out", str(tmp_path / "a3"), "--cache-dir", tmp_cache])
        assert rc == 0
        rep = json.loads((tmp_path / "a3" / "interval.json").read_text())
        assert rep["a"] == 3.0

    def test_string_n_reaches_figure_as_int(self, tmp_path, tmp_cache):
        out = tmp_path / "t10"
        rc = cli.main(["figure", "triangle10",
                       "--config", self._conf(tmp_path, {"n": "10"}),
                       "--out", str(out), "--cache-dir", tmp_cache])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == {"n": 10}

    @pytest.mark.parametrize("value", [3.7, "ten", [10]])
    def test_unparsable_value_refused(self, value, tmp_path, tmp_cache):
        out = tmp_path / "t10"
        with pytest.raises(ValueError, match="'n'"):
            cli.main(["figure", "triangle10",
                      "--config", self._conf(tmp_path, {"n": value}),
                      "--out", str(out), "--cache-dir", tmp_cache])
        assert not out.exists()

    def _merged(self, argv):
        parser = cli._build_parser()
        return cli._merge_config(parser.parse_args(argv), parser, argv)

    def test_option_with_default_filled(self, tmp_path):
        conf = self._conf(tmp_path, {"jobs": 2})
        args = self._merged(["sweep", "yv-zeros", "--n", "3", "--config", conf])
        assert args.jobs == 2

    def test_command_line_wins_over_config(self, tmp_path):
        conf = self._conf(tmp_path, {"jobs": 2, "out": "from-config"})
        args = self._merged(["sweep", "yv-zeros", "--n", "3", "--jobs", "1",
                             "--config", conf])
        assert args.jobs == 1
        assert args.out == "from-config"

    @pytest.mark.parametrize("key", ["nn", "op", "help"])
    def test_unknown_key_refused(self, key, tmp_path):
        conf = self._conf(tmp_path, {key: 10})
        with pytest.raises(ValueError, match=repr(key)):
            self._merged(["sweep", "yv-zeros", "--n", "3", "--config", conf])


class TestCacheDirConfinesWrites:
    def test_triangle_writes_only_under_cache_dir(self, tmp_path, monkeypatch):
        home, env_cache, target = (tmp_path / d for d in ("home", "env", "target"))
        for d in (home, env_cache):
            d.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv(cache.ENV_VAR, str(env_cache))
        # YV zeros are disk-cached from n = 25 on
        cli.cmd_figure("triangle", out_dir=tmp_path / "out",
                       cache_dir=str(target), overrides={"n": 25})
        assert list(home.rglob("*")) == []
        assert list(env_cache.rglob("*")) == []
        assert {"yv-zeros-25.json", "sigma-poly-25.json"} <= set(
            cache.list_entries(str(target)))
