"""Command-line surface: figure reproduction, verification, sweeps, cache.

Every figure command writes plain CSV point clouds (header re,im) and JSON
reports into the output directory, plus a manifest.json recording exactly
which operations ran with which parameters.  Outputs are deterministic:
rerunning a command with the same configuration and a warm cache must be
byte-identical (sorted points, sorted JSON keys, no timestamps).

A figure is a function ``_figure_<name>(emit, cache_dir, **params)`` whose
keyword signature is the one declaration of its parameters and defaults.
``cmd_figure`` binds the overrides to it before touching the disk (a
parameter the figure does not take raises ``ValueError``), removes the output
directory again if it created it and the figure fails, and writes the
manifest: ``config`` is every parameter with the value used, ``operations``
what the figure returns, ``outputs`` the files it passed to ``emit``.  On the
command line ``--n``, ``--a`` and ``--tol`` pass through under their own
names, and ``--grid`` sets the figure's sampling parameter
(``GRID_PARAMETER``).  Sweep ops declare their parameters the same way, so
``--a`` is refused by the ops that take none.

Configuration precedence: command-line flags > --config JSON file >
defaults.  The cache directory alone may also come from the environment
(QESQUARTIC_CACHE).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .bkw import EQUIMODULAR_TOL
from .pointset import PointSet

FIGURE_NAMES = ("fig1", "figTau", "figA1", "triangle", "figA3", "figAtau",
                "figA", "triangle10", "figslopes", "lattice")


def parse_complex(text: str) -> complex:
    """Parse "re+imi" style values: "3", "0.5-0.5i", "-2i", "1+1j"."""
    try:
        return complex(text.replace(" ", "").replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex value {text!r}") from None


def _fmt_complex(z: complex) -> str:
    return f"{float(z.real)!r}{'+' if z.imag >= 0 else '-'}{float(abs(z.imag))!r}i"


def _write_json(path: Path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return _fmt_complex(value)
    return value


# ---------------------------------------------------------------------------
# figure commands
# ---------------------------------------------------------------------------

def cmd_figure(name: str, out_dir=None, cache_dir=None, overrides=None) -> Path:
    """Produce the data files behind one figure; returns the output directory."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
    fn = globals()[f"_figure_{name}"]
    out = Path(out_dir) if out_dir else Path.cwd() / f"figure-{name}"
    files = []

    def emit(fname, data):
        path = out / fname
        if isinstance(data, PointSet):
            data.write_csv(path)
        elif isinstance(data, str):
            path.write_text(data)
        else:
            _write_json(path, data)
        files.append(fname)

    try:
        bound = inspect.signature(fn).bind(emit, cache_dir, **(overrides or {}))
    except TypeError as exc:
        raise ValueError(f"figure {name}: {exc}") from None
    bound.apply_defaults()
    created = next((p for p in reversed((out, *out.parents)) if not p.exists()),
                   None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        operations = fn(*bound.args, **bound.kwargs)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    config = {k: _jsonable(v) for k, v in bound.arguments.items()
              if k not in ("emit", "cache_dir")}
    _write_json(out / "manifest.json", {"figure": name, "config": config,
                                        "operations": operations,
                                        "outputs": sorted(files)})
    return out


def _figure_fig1(emit, cache_dir, n=200):
    from .spectral import scaled_spectrum

    emit("scaled_spectrum.csv", scaled_spectrum(n, 0, cache_dir=cache_dir))
    return [f"scaled_spectrum({n}, 0)"]


def _figure_figTau(emit, cache_dir, k_max=150, taus=(0.25, 0.5, 0.75)):
    from .bkw import recurrence_roots

    for t in taus:
        emit(f"recurrence_roots_tau{str(t).replace('.', 'p')}.csv",
             recurrence_roots(t, k_max))
    return [f"recurrence_roots({t}, {k_max})" for t in taus]


def _tau_grid(count):
    taus = [k / count for k in range(1, count)]
    if 0.5 not in taus:
        taus.append(0.5)
    return sorted(taus)


def _figure_figA1(emit, cache_dir, n=200, tol=EQUIMODULAR_TOL, tau_count=32,
                  a_values=((1 - 1j) / 2, 1j / 2, 1 + 1j)):
    from .bkw import union_support
    from .spectral import scaled_spectrum

    ops = []
    for k, a in enumerate(a_values):
        sup = union_support(a, tau_grid=_tau_grid(tau_count), tol=tol)
        emit(f"support_a{k}.csv", sup.union_points())
        emit(f"support_a{k}.json", sup.to_json_dict())
        emit(f"spectrum_a{k}.csv",
             scaled_spectrum(n, a, rule="n23", cache_dir=cache_dir))
        ops += [f"union_support({_fmt_complex(complex(a))})",
                f"scaled_spectrum({n}, {_fmt_complex(complex(a))}, n23)"]
    return ops


def _figure_figA3(emit, cache_dir, a=3.0, tau_count=32):
    from .bkw import real_support_interval, support_endpoints, union_support

    a = complex(a)
    if a.imag:
        raise ValueError(f"figA3 needs a real parameter a, got {a}")
    a = a.real
    emit("support.csv", union_support(a, tau_grid=_tau_grid(tau_count)).union_points())
    lo, hi = real_support_interval(a)
    emit("interval.json", {
        "a": a,
        "interval": [lo, hi],
        "endpoint_roots": sorted([z.real, z.imag] for z in support_endpoints(a)),
    })
    return [f"union_support({a})", f"real_support_interval({a})"]


def _figure_figAtau(emit, cache_dir, samples=400):
    # the real zero curve of the discriminant factor: a^3 = 27 tau (1 - tau)
    lines = ["tau,a"]
    for k in range(samples + 1):
        t = k / samples
        a = (27 * t * (1 - t)) ** (1 / 3)
        lines.append(f"{t!r},{a!r}")
    emit("threshold_curve.csv", "\n".join(lines) + "\n")
    return ["a^3 = 27 tau (1-tau) curve"]


def _figure_figA(emit, cache_dir, n=200,
                 a_values=((1 - 1j) / 2, 4 / 5 - 2j / 3, 2 / 3 - 1j)):
    from .bkw import support_endpoints
    from .spectral import scaled_spectrum

    for k, a in enumerate(a_values):
        emit(f"spectrum_a{k}.csv",
             scaled_spectrum(n, a, rule="n23", cache_dir=cache_dir))
        emit(f"endpoints_a{k}.json", {
            "a": [complex(a).real, complex(a).imag],
            "endpoints": sorted([z.real, z.imag] for z in support_endpoints(a)),
        })
    return [f"scaled_spectrum({n}, {_fmt_complex(complex(a))}, n23)"
            for a in a_values]


def _figure_triangle(emit, cache_dir, n=40):
    from .branching import compare_sets, scaled_sigma
    from .yv import scaled_zeros

    B = scaled_zeros(n, cache_dir=cache_dir)
    # the unscaled zeros, up to rounding, seed sigma's Aberth
    A = scaled_sigma(n, cache_dir=cache_dir, near=B.points * B.scale)
    emit("scaled_branching.csv", A)
    emit("scaled_zeros.csv", B)
    emit("comparison.json", compare_sets(A, B))
    return [f"scaled_sigma({n})", f"scaled_zeros({n})", "compare_sets"]


def _figure_triangle10(emit, cache_dir, n=10):
    from .branching import sigma_points

    bs = sigma_points(n, cache_dir=cache_dir)
    emit("branching_points.csv", bs.points)
    emit("grid_index.json", {
        "n": n,
        "min_margin": bs.min_margin,
        "points": [
            {"re": z.real, "im": z.imag, "row": r, "col": c}
            for z, r, c in zip(bs.points.points, bs.rows, bs.cols)
        ],
    })
    return [f"sigma_points({n})"]


def _figure_figslopes(emit, cache_dir, n=8, modulus=500.0,
                      phis=(4 * np.pi / 5, 6 * np.pi / 5)):
    from .monodromy import kac_limit_check

    for k, phi in enumerate(phis):
        rep = kac_limit_check(n, modulus * np.exp(1j * phi))
        emit(f"scaled_roots_phi{k}.csv", PointSet(rep["gamma"]))
        emit(f"deviation_phi{k}.json", {
            "n": n, "a": rep["a"], "max_deviation": rep["max_deviation"],
            "mean_deviation": rep["mean_deviation"],
        })
    return [f"kac_limit_check({n}, {modulus}e^({phi:.6f}i))" for phi in phis]


def _figure_lattice(emit, cache_dir, n=34, window=(-3.0, 3.0, -3.0, 3.0)):
    from .branching import lattice_probe, sigma_points

    sets = []
    for m in (n, n + 3):
        ps = sigma_points(m, cache_dir=cache_dir).points
        emit(f"branching_n{m}.csv", ps)
        sets.append(ps.points)
    emit("drift.json", lattice_probe(n, window, sets))
    return [f"lattice_probe({n}, {window})"]


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


def _pkg(module):
    return importlib.import_module(f"{__package__}.{module}")


# sweep op -> (output file stem, point set at one n); as for the figures, the
# signature declares the op's parameters (only the spectra take a)
SWEEP_OPS = {
    "scaled-spectrum": ("scaled_spectrum", lambda n, c, a="0":
                        _pkg("spectral").scaled_spectrum(n, parse_complex(a), cache_dir=c)),
    "eigenvalues": ("eigenvalues", lambda n, c, a="0":
                    _pkg("spectral").eigenvalues(n, parse_complex(a), cache_dir=c)),
    "yv-zeros": ("yv_zeros", lambda n, c: _pkg("yv").yv_zeros(n, cache_dir=c)),
    "sigma-points": ("branching", lambda n, c:
                     _pkg("branching").sigma_points(n, cache_dir=c).points),
}


def _sweep_task(args):
    op, n, params, out_dir, cache_dir = args
    stem, run = SWEEP_OPS[op]
    path = Path(out_dir) / f"{stem}_n{n}.csv"
    run(n, cache_dir, **params).write_csv(path)
    return str(path)


def cmd_sweep(op: str, ns, a=None, out_dir=None, cache_dir=None, jobs: int = 1):
    """Run one op over many n; ``a`` is refused by the ops that take none."""
    if op not in SWEEP_OPS:
        raise ValueError(f"unknown sweep op {op!r}; choose from {tuple(SWEEP_OPS)}")
    try:
        bound = inspect.signature(SWEEP_OPS[op][1]).bind(
            0, cache_dir, **({} if a is None else {"a": a}))
    except TypeError as exc:
        raise ValueError(f"sweep {op}: {exc}") from None
    bound.apply_defaults()
    params = {k: v for k, v in bound.arguments.items() if k not in ("n", "c")}
    out = Path(out_dir) if out_dir else Path.cwd() / f"sweep-{op}"
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(op, n, params, str(out), cache_dir) for n in ns]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            files = sorted(ex.map(_sweep_task, tasks))
    else:
        files = sorted(_sweep_task(t) for t in tasks)
    _write_json(out / "manifest.json", {
        "sweep": op, "ns": list(ns), **params,
        "outputs": [Path(f).name for f in files],
    })
    return out


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# the parameter --grid sets; the other figures take no grid and refuse it
GRID_PARAMETER = {"figTau": "k_max", "figAtau": "samples",
                  "figA1": "tau_count", "figA3": "tau_count"}


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
    fig.add_argument("--grid", type=int,
                     help="the sampling parameter: figTau k_max, figAtau samples, "
                          "figA1 and figA3 tau_count")
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
    sw.add_argument("op", choices=tuple(SWEEP_OPS))
    sw.add_argument("--n", type=str, required=True,
                    help="comma-separated n values")
    sw.add_argument("--a", type=str,
                    help="parameter of scaled-spectrum and eigenvalues (default 0)")
    sw.add_argument("--out", type=str)
    sw.add_argument("--jobs", type=int, default=1)

    ca = sub.add_parser("cache", parents=[common],
                        help="inspect or clear the artifact cache")
    ca.add_argument("action", choices=("ls", "clear"))
    return ap


def _merge_config(args, parser, argv):
    """Fill every option not given on the command line from ``--config``.

    The JSON values become the command's defaults and the command line
    ``argv`` is parsed again, so an option given there still wins.  Each value goes
    through its option's argparse ``type`` as ``str(value)``, as if it had
    been given on the command line; a value that type refuses, or a key
    that names no option of the command, is a ValueError naming the key.
    """
    if not args.config:
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    sub = next(act for act in parser._actions
               if isinstance(act, argparse._SubParsersAction))
    command = sub.choices[args.command]
    options = {act.dest: act for act in command._actions
               if act.option_strings and act.dest not in ("help", "config")}
    defaults = {}
    for key, val in conf.items():
        act = options.get(key.replace("-", "_"))
        if act is None:
            raise ValueError(f"--config {args.config}: {key!r} is not an option "
                             f"of {args.command}")
        if act.type is not None:
            try:
                val = act.type(str(val))
            except ValueError:
                raise ValueError(f"--config {args.config}: {key!r} = {val!r} "
                                 f"does not parse as {act.type.__name__}") from None
        defaults[act.dest] = val
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = _build_parser()
    args = _merge_config(parser.parse_args(argv), parser, argv)
    if args.command == "figure":
        overrides = {key: getattr(args, key) for key in ("n", "a", "tol")
                     if getattr(args, key) is not None}
        if "a" in overrides:
            overrides["a"] = parse_complex(overrides["a"])
        if args.grid is not None:
            overrides[GRID_PARAMETER.get(args.name, "grid")] = args.grid
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
