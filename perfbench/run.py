"""Cold/warm benchmark of qesquartic: one closed-loop client, one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --record    # rewrite references

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Every pass runs in a fresh
interpreter (no in-process memoization survives: ``charpoly_bivariate`` and
``_yv_int_coeffs`` carry lru caches) with ``HOME``, ``TMPDIR`` and
``QESQUARTIC_CACHE`` inside the run's own directory under ``.perfbench/``,
and every call that takes ``cache_dir`` gets the same directory explicitly.

``--trace 0`` runs cold/warm pairs until the next pair would overrun
``--seconds`` (at least one).  A cold pass starts from an empty cache; the
warm pass makes the same calls in a new process against the cache the cold
pass filled.  It prints the end-to-end metrics, each the median over the
run's passes:

* ``wall_s``, ``cpu_s``, ``peak_rss_mb``: the cold pass (process CPU time,
  peak resident set of the pass's process);
* ``warm_wall_s``: the warm pass, repeated on the same cache (at most 9
  times) until 1 s of warm time is measured;
* ``setup_s``: from before the pass directories are made to the first timed
  call (interpreter start, ``import qesquartic``, seeded inputs), taken over
  every cold and warm pass and three set-up-only processes.

Every time is given at a reference machine speed (``speed.py``): the
machine's speed is sampled by a calibration slice every 0.3 s of each pass
and the work between two samples is divided by the local slowdown.  The
detail file also keeps the raw wall times (``wall_raw_s``, ``setup_raw_s``)
and each pass's factor (``scale``).

``--trace 1`` runs one untraced cold pass, then a traced cold and a traced
warm pass, and prints the per-layer metrics of ``spans.py`` plus
``trace.overhead_s`` (traced minus untraced cold wall time).

An op fails when it raises, fails its reference-free check, or mismatches
its stored reference; a cold pass that reads anything from the cache, or a
pass that leaves a file in its ``HOME``, fails as well.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the machine facts, and the full record (per-op times, problems,
facts) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
PASS_TIMEOUT_S = 150
WARM_MIN_S = 1.0
WARM_MAX_REPEATS = 9
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _blas_threads() -> dict:
    """BLAS/OpenMP thread settings for the passes: as inherited, capped at
    nproc, and 1 where unset (one client, single-threaded passes)."""
    out = {}
    for var in BLAS_THREAD_VARS:
        try:
            v = int(os.environ.get(var, "1"))
        except ValueError:
            v = 1
        out[var] = str(max(1, min(v, _nproc())))
    return out


class Run:
    """The directory tree and passes of one benchmark run."""

    def __init__(self, workload, seed, record=False):
        self.workload, self.seed, self.record = workload, seed, record
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=WORK))
        self.count = 0
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.passes = []

    def env(self, home, cache_dir):
        env = dict(os.environ)
        for var in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP"):
            env.pop(var, None)
        env.update(_blas_threads())
        env.update(HOME=str(home), QESQUARTIC_CACHE=str(cache_dir),
                   TMPDIR=str(self.dir / "tmp"))
        return env

    def new_cache(self):
        self.count += 1
        return self.dir / f"cache-{self.count}"

    def run_pass(self, mode, cache_dir, traced=False):
        """One worker process; returns its result dict."""
        self.count += 1
        slowdown = speed.slowdown()
        t_spawn = time.monotonic()
        pdir = self.dir / f"pass-{self.count}-{mode}"
        home = pdir / "home"
        for d in (home, pdir / "out", self.dir / "tmp", cache_dir):
            d.mkdir(parents=True, exist_ok=True)
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "traced": traced, "t_spawn": t_spawn, "slowdown": slowdown,
                "src": str(SRC),
                "cache_dir": str(cache_dir), "out_dir": str(pdir / "out"),
                "result": str(pdir / "result.json"),
                "references": str(REFERENCES), "record": self.record}
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=pdir, env=self.env(home, cache_dir), capture_output=True,
            text=True, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} pass exited {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        with open(spec["result"]) as fh:
            res = json.load(fh)
        res["mode"], res["traced"] = mode, traced
        if traced:
            with open(spec["result"] + ".spans") as fh:
                res["summary"] = spans.summarize(json.load(fh), res["scale"])
        self._account(res, home)
        self.passes.append(res)
        return res

    def _account(self, res, home):
        """Count the pass's ops, plus its isolation check, as operations."""
        if res["mode"] == "setup":
            return
        stray = [str(p.relative_to(home)) for p in home.rglob("*") if p.is_file()]
        if res["mode"] == "cold" and res["cache_hits"]:
            stray.append(f"{res['cache_hits']} cache hits in a cold pass")
        for label, problems in [(op["label"], op["problems"]) for op in res["ops"]] \
                + [("isolation", stray)]:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append({"pass": res["mode"], "op": label,
                                      "problems": problems})

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(run: Run, seconds: float) -> dict:
    """Cold/warm pairs within the time budget; end-to-end medians."""
    start = time.monotonic()
    cold, warm = [], []
    while True:
        t0 = time.monotonic()
        cache_dir = run.new_cache()
        cold.append(run.run_pass("cold", cache_dir))
        warm.append(run.run_pass("warm", cache_dir))
        # a warm pass that mostly reads the cache lasts milliseconds: repeat
        # it on the same cache until WARM_MIN_S is measured, for a steady median
        measured = warm[-1]["wall_s"]
        for _ in range(WARM_MAX_REPEATS - 1):
            if measured >= WARM_MIN_S:
                break
            warm.append(run.run_pass("warm", cache_dir))
            measured += warm[-1]["wall_s"]
        shutil.rmtree(cache_dir, ignore_errors=True)
        pair_s = time.monotonic() - t0
        if time.monotonic() - start + pair_s > seconds:
            break
    probes = [run.run_pass("setup", run.new_cache()) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in cold + warm + probes]
    med = statistics.median
    return {
        "wall_s": (med(p["wall_s"] for p in cold), "s"),
        "cpu_s": (med(p["cpu_s"] for p in cold), "s"),
        "warm_wall_s": (med(p["wall_s"] for p in warm), "s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in cold), "MB"),
    }


def measure_traced(run: Run) -> dict:
    """Untraced cold, traced cold, traced warm; per-layer metrics."""
    base = run.run_pass("cold", run.new_cache())
    cache_dir = run.new_cache()
    cold = run.run_pass("cold", cache_dir, traced=True)
    warm = run.run_pass("warm", cache_dir, traced=True)
    layers = spans.layer_metrics(cold["summary"], warm["summary"])
    layers["trace.overhead_s"] = cold["wall_s"] - base["wall_s"]
    return {k: (v, spans.unit_of(k)) for k, v in layers.items()}


def record(run: Run):
    """Store the default seed's outputs as the workload's references."""
    res = run.run_pass("cold", run.new_cache())
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    refs[run.workload] = res["outputs"]
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return res


def _versions() -> dict:
    """Library versions, read from package metadata without importing them."""
    from importlib import metadata

    out = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_facts(args, run) -> dict:
    return {"nproc": _nproc(), "python": platform.python_version(),
            **_versions(), "mpmath_backend": run.passes[0]["mpmath_backend"],
            "blas_threads": _blas_threads(), "git_commit": _git_commit(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's references from the default seed")
    args = ap.parse_args(argv)
    if not (SRC / "qesquartic" / "__init__.py").is_file():
        print(f"error: no qesquartic package under {SRC}", file=sys.stderr)
        return 2
    if args.record and args.seed != workloads.DEFAULT_SEED:
        print("error: --record takes the default seed only", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, record=args.record)
    try:
        if args.record:
            record(run)
            metrics = {}
        elif args.trace:
            metrics = measure_traced(run)
        else:
            metrics = measure(run, args.seconds)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    facts = machine_facts(args, run)
    detail = {"facts": facts, "problems": run.problems,
              "passes": [{k: v for k, v in p.items() if k not in ("summary", "outputs")}
                         for p in run.passes]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n")
    for p in run.problems:
        print(f"FAILED {p['pass']} {p['op']}: {p['problems']}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
