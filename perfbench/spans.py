"""Spans and counters for the traced pass, installed from outside the package.

``install`` replaces each traced function by a wrapper, in its own module
and under every name another qesquartic module bound with ``from ... import``
(``branching.charpoly_bivariate``, ``monodromy.sigma_points``,
``monodromy.build_matrix``, ``zerocase.spectral_polynomial``,
``bkw.cubic_roots`` and so on).  A span wrapper records (name, parent, start,
end, attrs) in memory; a tally wrapper only counts calls and attrs, so its
time stays with the caller.  Nothing is written until ``Recorder.dump``.

``layer_metrics`` turns the spans into the per-layer metrics: every ``_s``
metric is self time, the span's duration minus that of its child spans.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("bkw", "branching", "cache", "cli", "exactpoly", "intpoly",
           "monodromy", "pointset", "quaddiff", "rootfind", "spectral", "yv",
           "zerocase")


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _mul_attrs(args, kwargs, result):
    from qesquartic import intpoly

    p, q = args[0], args[1]
    return {"kron": int(min(len(p), len(q)) >= intpoly.KRONECKER_MIN_LEN),
            "bits": sum(abs(c).bit_length() for c in result)}


def _load_attrs(args, kwargs, result):
    if result is None:
        return {"hit": 0, "miss": 1}
    from qesquartic import cache

    kind, n = args[0], args[1]
    directory = args[2] if len(args) > 2 else kwargs.get("directory")
    return {"hit": 1, "miss": 0,
            "bytes": _file_size(cache.artifact_path(kind, n, directory))}


# (module, attribute, span name or None for a tally, attrs from (args, kwargs, result))
TRACED = (
    ("rootfind", "aberth_roots", "rootfind.aberth", lambda a, k, r: {"roots": len(a[0]) - 1}),
    ("rootfind", "newton_polish", "rootfind.polish", None),
    ("rootfind", "residual_scale_aware", "rootfind.residual", None),
    ("rootfind", "cubic_roots", "rootfind.cubic", None),
    ("spectral", "charpoly_bivariate", "spectral.charpoly", None),
    ("spectral", "spectral_polynomial", "spectral.charpoly", None),
    ("spectral", "charpoly_coeffs_mp", "spectral.coeffs_mp", None),
    ("spectral", "_eigs_dense", "spectral.dense_eig", None),
    ("spectral", "eigenvalues", "spectral.eigenvalues", None),
    ("spectral", "build_matrix", None, None),
    ("intpoly", "mul", "intpoly.mul", _mul_attrs),
    ("intpoly", "div_exact", "intpoly.div_exact", None),
    ("intpoly", "sturm_sequence", "intpoly.sturm_seq", None),
    ("intpoly", "sturm_count", "intpoly.sturm_count", None),
    ("intpoly", "isolate_real_roots", "intpoly.isolate", None),
    ("intpoly", "gcd", "intpoly.gcd", None),
    ("intpoly", "sylvester_resultant", "intpoly.sylvester", None),
    ("zerocase", "certify_all", "zerocase.certify", None),
    ("zerocase", "certify_interlacing", "zerocase.interlacing", None),
    ("zerocase", "factor_structure", "zerocase.structure", None),
    ("zerocase", "pqr_matches_factor", "zerocase.structure", None),
    ("zerocase", "pqr_sequences", "zerocase.structure", None),
    ("yv", "yv_generate", "yv.generate", None),
    ("yv", "yv_zeros", "yv.zeros", None),
    ("branching", "sigma_polynomial", "branching.sigma_poly",
     lambda a, k, r: {"degree": r.degree}),
    ("branching", "discriminant_resultant_exact", "branching.resultant", None),
    ("branching", "sigma_points", "branching.sigma_points", None),
    ("branching", "compare_sets", "branching.compare", None),
    ("bkw", "union_support", "bkw.union_support",
     lambda a, k, r: {"points": len(r.union)}),
    ("bkw", "cauchy_nu", "bkw.cauchy_nu", None),
    ("bkw", "real_support_interval", "bkw.real_interval", None),
    ("bkw", "support_membership", None, None),
    ("quaddiff", "critical_graph", "quaddiff.critical_graph", None),
    ("quaddiff", "classify_cloud", "quaddiff.classify", None),
    ("monodromy", "track_path", "monodromy.track", lambda a, k, r: {"frames": r.frames}),
    ("cache", "load", "cache.load", _load_attrs),
    ("cache", "store", "cache.store", lambda a, k, r: {"bytes": _file_size(r)}),
    ("cli", "cmd_figure", "cli.figure", None),
    ("cli", "_write_json", None, lambda a, k, r: {"bytes_out": _file_size(a[0])}),
    ("pointset", "PointSet.write_csv", "pointset.write_csv",
     lambda a, k, r: {"bytes_out": _file_size(a[1])}),
)


class Recorder:
    """In-memory spans (name, parent index, start, end, attrs) and tallies."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tallies = defaultdict(lambda: defaultdict(int))

    def span(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result
        return traced

    def tally(self, name, fn, attrs=None):
        counts = self.tallies[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["calls"] += 1
            if attrs is not None:
                for key, v in attrs(args, kwargs, result).items():
                    counts[key] += v
            return result
        return counted

    def dump(self, path, slices):
        """Write the spans, the tallies and the pass's calibration slices."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "tallies": self.tallies,
                       "slices": slices}, fh)


def install(recorder: Recorder):
    """Wrap every function in TRACED, under all names bound to it."""
    mods = {m: importlib.import_module(f"qesquartic.{m}") for m in MODULES}
    loaded = [m for name, m in sys.modules.items()
              if name == "qesquartic" or name.startswith("qesquartic.")]
    for mod_name, attr, span_name, attrs in TRACED:
        owner = mods[mod_name]
        if "." in attr:                     # a method: patch the class only
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            orig = getattr(owner, meth)
            setattr(owner, meth, recorder.span(span_name, orig, attrs))
            continue
        orig = getattr(owner, attr)
        key = span_name or f"{mod_name}.{attr}"
        wrapped = (recorder.span(key, orig, attrs) if span_name
                   else recorder.tally(key, orig, attrs))
        for m in loaded:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "rootfind.aberth_s": ("rootfind.aberth",),
    "rootfind.polish_s": ("rootfind.polish",),
    "rootfind.residual_s": ("rootfind.residual",),
    "rootfind.cubic_s": ("rootfind.cubic",),
    "spectral.charpoly_s": ("spectral.charpoly",),
    "spectral.coeffs_mp_s": ("spectral.coeffs_mp",),
    "spectral.dense_eig_s": ("spectral.dense_eig",),
    "spectral.eigenvalues_s": ("spectral.eigenvalues",),
    "intpoly.mul_s": ("intpoly.mul",),
    "intpoly.div_exact_s": ("intpoly.div_exact",),
    "intpoly.sturm_seq_s": ("intpoly.sturm_seq",),
    "intpoly.sturm_count_s": ("intpoly.sturm_count",),
    "intpoly.isolate_s": ("intpoly.isolate",),
    "intpoly.gcd_s": ("intpoly.gcd",),
    "intpoly.sylvester_s": ("intpoly.sylvester",),
    "zerocase.certify_s": ("zerocase.certify",),
    "zerocase.interlacing_s": ("zerocase.interlacing",),
    "zerocase.structure_s": ("zerocase.structure",),
    "yv.generate_s": ("yv.generate",),
    "yv.zeros_s": ("yv.zeros",),
    "branching.sigma_poly_s": ("branching.sigma_poly", "branching.resultant"),
    "branching.sigma_points_s": ("branching.sigma_points",),
    "branching.compare_s": ("branching.compare",),
    "bkw.union_support_s": ("bkw.union_support",),
    "bkw.cauchy_nu_s": ("bkw.cauchy_nu",),
    "bkw.real_interval_s": ("bkw.real_interval",),
    "quaddiff.critical_graph_s": ("quaddiff.critical_graph",),
    "quaddiff.classify_s": ("quaddiff.classify",),
    "monodromy.track_s": ("monodromy.track",),
    "cache.load_s": ("cache.load",),
    "cache.store_s": ("cache.store",),
    "cli.figure_s": ("cli.figure",),
    "pointset.write_csv_s": ("pointset.write_csv",),
}

# per-layer metric -> (span or tally name, key) pairs whose values it sums;
# "calls" counts the calls
SUMS = {
    "rootfind.aberth_calls": (("rootfind.aberth", "calls"),),
    "rootfind.aberth_roots": (("rootfind.aberth", "roots"),),
    "rootfind.residual_calls": (("rootfind.residual", "calls"),),
    "spectral.charpoly_calls": (("spectral.charpoly", "calls"),),
    "spectral.dense_eig_calls": (("spectral.dense_eig", "calls"),),
    "spectral.eigenvalues_calls": (("spectral.eigenvalues", "calls"),),
    "spectral.build_matrix_calls": (("spectral.build_matrix", "calls"),),
    "intpoly.mul_calls": (("intpoly.mul", "calls"),),
    "intpoly.mul_kron_calls": (("intpoly.mul", "kron"),),
    "intpoly.mul_bits": (("intpoly.mul", "bits"),),
    "intpoly.sturm_count_calls": (("intpoly.sturm_count", "calls"),),
    "zerocase.interlacing_calls": (("zerocase.interlacing", "calls"),),
    "yv.zeros_calls": (("yv.zeros", "calls"),),
    "branching.sigma_poly_calls": (("branching.sigma_poly", "calls"),),
    "branching.sigma_degree": (("branching.sigma_poly", "degree"),),
    "bkw.support_points": (("bkw.union_support", "points"),),
    "bkw.membership_calls": (("bkw.support_membership", "calls"),),
    "monodromy.track_calls": (("monodromy.track", "calls"),),
    "monodromy.frames": (("monodromy.track", "frames"),),
    "cache.load_calls": (("cache.load", "calls"),),
    "cache.hits": (("cache.load", "hit"),),
    "cache.misses": (("cache.load", "miss"),),
    "cache.bytes_read": (("cache.load", "bytes"),),
    "cache.store_calls": (("cache.store", "calls"),),
    "cache.bytes_written": (("cache.store", "bytes"),),
    "cli.bytes_out": (("pointset.write_csv", "bytes_out"),
                      ("cli._write_json", "bytes_out")),
}


def unit_of(metric: str) -> str:
    for suffix, unit in (("_per_root", "s/root"), ("_per_frame", "s/frame"),
                         ("_s", "s"), ("_ratio", "ratio"), ("_bits", "bits"),
                         ("bytes_read", "bytes"), ("bytes_written", "bytes"),
                         ("bytes_out", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def summarize(trace: dict, scale: float) -> dict:
    """Self time (times ``scale``, the pass's reference-speed factor), calls
    and attr sums per span name, plus tallies.  A calibration slice counts
    as a child of the innermost span it ran in."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    starts = [sp[2] for sp in spans]
    for s0, s1, _ in trace["slices"]:
        k = bisect.bisect_right(starts, s0) - 1
        while k >= 0 and spans[k][3] < s1:
            k = spans[k][1]
        if k >= 0:
            child[k] += s1 - s0
    out = defaultdict(lambda: defaultdict(float))
    for k, (name, _, t0, t1, attrs) in enumerate(spans):
        s = out[name]
        s["self_s"] += ((t1 - t0) - child[k]) * scale
        s["calls"] += 1
        for key, v in (attrs or {}).items():
            s[key] += v
    for name, counts in trace["tallies"].items():
        for key, v in counts.items():
            out[name][key] += v
    return out


def layer_metrics(cold: dict, warm: dict) -> dict:
    """Per-layer metrics of the cold traced pass; ``cache.*`` counts the cold
    and the warm traced pass together (the warm pass is where the cache is
    read)."""
    def value(summary, metric):
        if metric in SELF_TIME:
            return sum(summary[n]["self_s"] for n in SELF_TIME[metric])
        return sum(summary[n][key] for n, key in SUMS[metric])

    out = {}
    for metric in list(SELF_TIME) + list(SUMS):
        out[metric] = value(cold, metric)
        if metric.startswith("cache."):
            out[metric] += value(warm, metric)
    roots, frames = out["rootfind.aberth_roots"], out["monodromy.frames"]
    loads = out["cache.load_calls"]
    out["rootfind.aberth_s_per_root"] = out["rootfind.aberth_s"] / roots if roots else 0.0
    out["monodromy.s_per_frame"] = out["monodromy.track_s"] / frames if frames else 0.0
    out["cache.hit_ratio"] = out["cache.hits"] / loads if loads else 0.0
    mapped = {n for names in SELF_TIME.values() for n in names}
    out["trace.other_s"] = sum(s["self_s"] for n, s in cold.items() if n not in mapped)
    return out


def count_cache_hits() -> dict:
    """Count cache.load hits and misses; the only probe of an untraced pass."""
    from qesquartic import cache

    counts = {"hits": 0, "misses": 0}
    load = cache.load

    @functools.wraps(load)
    def counted(*args, **kwargs):
        result = load(*args, **kwargs)
        counts["misses" if result is None else "hits"] += 1
        return result

    cache.load = counted
    return counts
