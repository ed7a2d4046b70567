"""Command-line surface: figure reproduction, verification, sweeps, cache.

Every figure command writes plain CSV point clouds (header re,im) and JSON
reports into the output directory, plus a manifest.json recording exactly
which operations ran with which parameters.  Outputs are deterministic:
rerunning a command with the same configuration and a warm cache must be
byte-identical (sorted points, sorted JSON keys, no timestamps).

Configuration precedence: command-line flags > --config JSON file >
defaults.  The cache directory alone may also come from the environment
(QESQUARTIC_CACHE).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

FIGURE_NAMES = ("fig1", "figTau", "figA1", "triangle", "figA3", "figAtau",
                "figA", "triangle10", "figslopes", "lattice")


def parse_complex(text: str) -> complex:
    """Parse "re+imi" style values: "3", "0.5-0.5i", "-2i", "1+1j"."""
    s = text.strip().replace(" ", "").replace("j", "i").replace("I", "i")
    if not s:
        raise ValueError("empty complex literal")
    try:
        if "i" not in s:
            return complex(float(s), 0.0)
        if not s.endswith("i"):
            raise ValueError
        body = s[:-1]
        # split at the last sign that is not an exponent sign and not leading
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split is None:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = 1.0
        elif im_part == "-":
            im = -1.0
        else:
            im = float(im_part)
        return complex(float(re_part) if re_part else 0.0, im)
    except ValueError:
        raise ValueError(f"cannot parse complex value {text!r}") from None


def _fmt_complex(z: complex) -> str:
    return f"{float(z.real)!r}{'+' if z.imag >= 0 else '-'}{float(abs(z.imag))!r}i"


def _write_json(path: Path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _manifest(out: Path, name: str, config: dict, operations: list, files: list):
    _write_json(out / "manifest.json", {
        "figure": name,
        "config": config,
        "operations": operations,
        "outputs": sorted(files),
    })


# ---------------------------------------------------------------------------
# figure commands
# ---------------------------------------------------------------------------

def cmd_figure(name: str, out_dir=None, cache_dir=None, overrides=None) -> Path:
    """Produce the data files behind one figure; returns the output directory."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
    ov = dict(overrides or {})
    out = Path(out_dir) if out_dir else Path.cwd() / f"figure-{name}"
    out.mkdir(parents=True, exist_ok=True)
    fn = globals()[f"_figure_{name}"]
    fn(out, cache_dir, ov)
    return out


def _figure_fig1(out, cache_dir, ov):
    from .spectral import scaled_spectrum

    n = int(ov.get("n", 200))
    ps = scaled_spectrum(n, 0, cache_dir=cache_dir)
    ps.write_csv(out / "scaled_spectrum.csv")
    _manifest(out, "fig1", {"n": n, "a": "0"},
              [f"scaled_spectrum({n}, 0)"], ["scaled_spectrum.csv"])


def _figure_figTau(out, cache_dir, ov):
    from .bkw import recurrence_roots

    k_max = int(ov.get("k_max", 150))
    taus = ov.get("taus", (0.25, 0.5, 0.75))
    files = []
    ops = []
    for t in taus:
        ps = recurrence_roots(t, 0, k_max)
        fname = f"recurrence_roots_tau{str(t).replace('.', 'p')}.csv"
        ps.write_csv(out / fname)
        files.append(fname)
        ops.append(f"recurrence_roots({t}, 0, {k_max})")
    _manifest(out, "figTau", {"k_max": k_max, "taus": list(taus)}, ops, files)


def _tau_grid(count):
    taus = [k / count for k in range(1, count)]
    if 0.5 not in taus:
        taus.append(0.5)
    return sorted(taus)


def _figure_figA1(out, cache_dir, ov):
    from .bkw import EQUIMODULAR_TOL, union_support
    from .spectral import scaled_spectrum

    n = int(ov.get("n", 200))
    tol = float(ov.get("tol", EQUIMODULAR_TOL))
    taus = _tau_grid(int(ov.get("tau_count", 32)))
    avals = ov.get("a_values", ((1 - 1j) / 2, 1j / 2, 1 + 1j))
    files, ops = [], []
    for k, a in enumerate(avals):
        tag = f"a{k}"
        sup = union_support(a, tau_grid=taus, tol=tol)
        sup.union_points().write_csv(out / f"support_{tag}.csv")
        _write_json(out / f"support_{tag}.json", sup.to_json_dict())
        cloud = scaled_spectrum(n, a, rule="n23", cache_dir=cache_dir)
        cloud.write_csv(out / f"spectrum_{tag}.csv")
        files += [f"support_{tag}.csv", f"support_{tag}.json",
                  f"spectrum_{tag}.csv"]
        ops += [f"union_support({_fmt_complex(complex(a))})",
                f"scaled_spectrum({n}, {_fmt_complex(complex(a))}, n23)"]
    _manifest(out, "figA1", {"n": n, "tol": tol,
                             "a_values": [_fmt_complex(complex(a)) for a in avals]},
              ops, files)


def _figure_figA3(out, cache_dir, ov):
    from .bkw import real_support_interval, support_endpoints, union_support

    a = complex(ov.get("a", 3.0))
    if a.imag:
        raise ValueError(f"figA3 needs a real parameter a, got {a}")
    a = a.real
    taus = _tau_grid(int(ov.get("tau_count", 32)))
    sup = union_support(a, tau_grid=taus)
    sup.union_points().write_csv(out / "support.csv")
    lo, hi = real_support_interval(a)
    eps = support_endpoints(a)
    _write_json(out / "interval.json", {
        "a": a,
        "interval": [lo, hi],
        "endpoint_roots": sorted([z.real, z.imag] for z in eps),
    })
    _manifest(out, "figA3", {"a": a},
              [f"union_support({a})", f"real_support_interval({a})"],
              ["support.csv", "interval.json"])


def _figure_figAtau(out, cache_dir, ov):
    # the real zero curve of the discriminant factor: a^3 = 27 tau (1 - tau)
    samples = int(ov.get("samples", 400))
    lines = ["tau,a"]
    for k in range(samples + 1):
        t = k / samples
        a = (27 * t * (1 - t)) ** (1 / 3)
        lines.append(f"{t!r},{a!r}")
    (out / "threshold_curve.csv").write_text("\n".join(lines) + "\n")
    _manifest(out, "figAtau", {"samples": samples},
              ["a^3 = 27 tau (1-tau) curve"], ["threshold_curve.csv"])


def _figure_figA(out, cache_dir, ov):
    from .bkw import support_endpoints
    from .spectral import scaled_spectrum

    n = int(ov.get("n", 200))
    avals = ov.get("a_values", ((1 - 1j) / 2, 4 / 5 - 2j / 3, 2 / 3 - 1j))
    files, ops = [], []
    for k, a in enumerate(avals):
        tag = f"a{k}"
        cloud = scaled_spectrum(n, a, rule="n23", cache_dir=cache_dir)
        cloud.write_csv(out / f"spectrum_{tag}.csv")
        eps = support_endpoints(a)
        _write_json(out / f"endpoints_{tag}.json", {
            "a": [complex(a).real, complex(a).imag],
            "endpoints": sorted([z.real, z.imag] for z in eps),
        })
        files += [f"spectrum_{tag}.csv", f"endpoints_{tag}.json"]
        ops.append(f"scaled_spectrum({n}, {_fmt_complex(complex(a))}, n23)")
    _manifest(out, "figA", {"n": n,
                            "a_values": [_fmt_complex(complex(a)) for a in avals]},
              ops, files)


def _figure_triangle(out, cache_dir, ov):
    from .branching import compare_sets, scaled_sigma
    from .yv import scaled_zeros

    n = int(ov.get("n", 40))
    A = scaled_sigma(n, cache_dir=cache_dir)
    B = scaled_zeros(n, cache_dir=cache_dir)
    A.write_csv(out / "scaled_branching.csv")
    B.write_csv(out / "scaled_zeros.csv")
    _write_json(out / "comparison.json", compare_sets(A, B))
    _manifest(out, "triangle", {"n": n},
              [f"scaled_sigma({n})", f"scaled_zeros({n})", "compare_sets"],
              ["scaled_branching.csv", "scaled_zeros.csv", "comparison.json"])


def _figure_triangle10(out, cache_dir, ov):
    from .branching import sigma_points

    n = int(ov.get("n", 10))
    bs = sigma_points(n, cache_dir=cache_dir)
    bs.points.write_csv(out / "branching_points.csv")
    _write_json(out / "grid_index.json", {
        "n": n,
        "points": [
            {"re": z.real, "im": z.imag, "row": r, "col": c}
            for z, r, c in zip(bs.points.points, bs.rows, bs.cols)
        ],
    })
    _manifest(out, "triangle10", {"n": n}, [f"sigma_points({n})"],
              ["branching_points.csv", "grid_index.json"])


def _figure_figslopes(out, cache_dir, ov):
    from .monodromy import kac_limit_check

    n = int(ov.get("n", 8))
    modulus = float(ov.get("modulus", 500.0))
    phis = ov.get("phis", (4 * np.pi / 5, 6 * np.pi / 5))
    files, ops = [], []
    for k, phi in enumerate(phis):
        a = modulus * np.exp(1j * phi)
        rep = kac_limit_check(n, a)
        tag = f"phi{k}"
        lines = ["re,im"]
        for z in rep["gamma"]:
            lines.append(f"{float(z.real)!r},{float(z.imag)!r}")
        (out / f"scaled_roots_{tag}.csv").write_text("\n".join(lines) + "\n")
        _write_json(out / f"deviation_{tag}.json", {
            "n": n, "a": rep["a"], "max_deviation": rep["max_deviation"],
            "mean_deviation": rep["mean_deviation"],
        })
        files += [f"scaled_roots_{tag}.csv", f"deviation_{tag}.json"]
        ops.append(f"kac_limit_check({n}, {modulus}e^({phi:.6f}i))")
    _manifest(out, "figslopes", {"n": n, "modulus": modulus,
                                 "phis": [float(p) for p in phis]}, ops, files)


def _figure_lattice(out, cache_dir, ov):
    from .branching import lattice_probe, sigma_points

    n = int(ov.get("n", 34))
    window = tuple(ov.get("window", (-3.0, 3.0, -3.0, 3.0)))
    for m in (n, n + 3):
        sigma_points(m, cache_dir=cache_dir).points.write_csv(
            out / f"branching_n{m}.csv"
        )
    rep = lattice_probe(n, window, cache_dir=cache_dir)
    _write_json(out / "drift.json", rep)
    _manifest(out, "lattice", {"n": n, "window": list(window)},
              [f"lattice_probe({n}, {window})"],
              [f"branching_n{n}.csv", f"branching_n{n + 3}.csv", "drift.json"])


# ---------------------------------------------------------------------------
# verify / sweep / cache commands
# ---------------------------------------------------------------------------

def cmd_verify(suite: str, fast: bool = False, cache_dir=None, out_path=None) -> int:
    from . import verify

    results = verify.run_suite(suite, fast=fast, cache_dir=cache_dir)
    report = {
        "suite": suite,
        "passed": all(r["passed"] for r in results),
        "checks": results,
    }
    text = json.dumps(report, sort_keys=True, indent=1)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def _sweep_task(args):
    op, n, a_str, out_dir, cache_dir = args
    a = parse_complex(a_str)
    out = Path(out_dir)
    if op == "scaled-spectrum":
        from .spectral import scaled_spectrum

        ps = scaled_spectrum(n, a, cache_dir=cache_dir)
        path = out / f"scaled_spectrum_n{n}.csv"
        ps.write_csv(path)
    elif op == "eigenvalues":
        from .spectral import eigenvalues

        ps = eigenvalues(n, a, cache_dir=cache_dir)
        path = out / f"eigenvalues_n{n}.csv"
        ps.write_csv(path)
    elif op == "yv-zeros":
        from .yv import yv_zeros

        ps = yv_zeros(n, cache_dir=cache_dir)
        path = out / f"yv_zeros_n{n}.csv"
        ps.write_csv(path)
    elif op == "sigma-points":
        from .branching import sigma_points

        bs = sigma_points(n, cache_dir=cache_dir)
        path = out / f"branching_n{n}.csv"
        bs.points.write_csv(path)
    else:
        raise ValueError(f"unknown sweep op {op!r}")
    return str(path)


def cmd_sweep(op: str, ns, a="0", out_dir=None, cache_dir=None, jobs: int = 1):
    out = Path(out_dir) if out_dir else Path.cwd() / f"sweep-{op}"
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(op, n, a, str(out), cache_dir) for n in ns]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            files = sorted(ex.map(_sweep_task, tasks))
    else:
        files = sorted(_sweep_task(t) for t in tasks)
    _write_json(out / "manifest.json", {
        "sweep": op, "ns": list(ns), "a": a, "outputs": [Path(f).name for f in files],
    })
    return out


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default option values")
    common.add_argument("--cache-dir",
                        help="cache directory (or QESQUARTIC_CACHE)")
    ap = argparse.ArgumentParser(
        prog="qesquartic",
        description="Spectral data for the quasi-exactly solvable quartic "
                    "family: figures, verification suites, parameter sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", parents=[common],
                         help="write the data files behind a figure")
    fig.add_argument("name", choices=FIGURE_NAMES)
    fig.add_argument("--n", type=int)
    fig.add_argument("--a", type=str)
    fig.add_argument("--grid", type=int, help="generic grid/sample override")
    fig.add_argument("--tol", type=float)
    fig.add_argument("--out", type=str)

    ver = sub.add_parser("verify", parents=[common],
                         help="run a verification suite")
    ver.add_argument("suite", choices=("exact", "asymptotic", "monodromy", "all"))
    ver.add_argument("--fast", action="store_true",
                     help="reduced ranges for smoke testing")
    ver.add_argument("--out", type=str)

    sw = sub.add_parser("sweep", parents=[common],
                        help="run one operation over many n")
    sw.add_argument("op", choices=("scaled-spectrum", "eigenvalues", "yv-zeros",
                                   "sigma-points"))
    sw.add_argument("--n", type=str, required=True,
                    help="comma-separated n values")
    sw.add_argument("--a", type=str, default="0")
    sw.add_argument("--out", type=str)
    sw.add_argument("--jobs", type=int, default=1)

    ca = sub.add_parser("cache", parents=[common],
                        help="inspect or clear the artifact cache")
    ca.add_argument("action", choices=("ls", "clear"))
    return ap


def _merge_config(args):
    if not args.config:
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) in (None, False):
            setattr(args, attr, val)
    return args


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args = _merge_config(args)
    if args.command == "figure":
        overrides = {}
        if args.n is not None:
            overrides["n"] = args.n
        if args.a is not None:
            overrides["a"] = parse_complex(args.a)
        if args.grid is not None:
            overrides["samples"] = args.grid
            overrides["k_max"] = args.grid
        if args.tol is not None:
            overrides["tol"] = args.tol
        out = cmd_figure(args.name, out_dir=args.out, cache_dir=args.cache_dir,
                         overrides=overrides)
        print(f"wrote {out}")
        return 0
    if args.command == "verify":
        return cmd_verify(args.suite, fast=args.fast, cache_dir=args.cache_dir,
                          out_path=args.out)
    if args.command == "sweep":
        ns = [int(x) for x in args.n.split(",") if x]
        out = cmd_sweep(args.op, ns, a=args.a, out_dir=args.out,
                        cache_dir=args.cache_dir, jobs=args.jobs)
        print(f"wrote {out}")
        return 0
    if args.command == "cache":
        from . import cache

        if args.action == "ls":
            for name in cache.list_entries(args.cache_dir):
                print(name)
        else:
            count = cache.clear(args.cache_dir)
            print(f"removed {count} cached artifacts")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
