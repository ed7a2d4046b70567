"""One pass of one workload, in a fresh interpreter.

Usage (from run.py): worker.py <json spec>, with spec keys
``workload, seed, mode ("cold", "warm" or "setup"), traced, t_spawn,
slowdown, src, cache_dir, out_dir, result, references, record``.

``t_spawn`` is the parent's ``time.monotonic()`` taken before it made the
pass's directories, so the measured set-up covers directory creation,
interpreter start, ``import qesquartic`` and seeded input generation, up to
the first timed call.  It is scaled to the reference speed by the mean of
the parent's ``slowdown`` just before and the pass's own just after.  The
pass writes one JSON result file and exits 0; a failing op is recorded in
the result, not raised.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback


def main(spec: dict) -> int:
    sys.path.insert(0, spec["src"])
    import qesquartic

    if not qesquartic.__file__.startswith(spec["src"]):
        raise ImportError(f"qesquartic resolved to {qesquartic.__file__}, "
                          f"not under {spec['src']}")
    import spans
    import speed
    import workloads

    for name in spans.MODULES:                 # the whole package is set-up
        importlib.import_module(f"qesquartic.{name}")

    ops = workloads.build(spec["workload"], spec["seed"])
    ctx = workloads.Context(spec["cache_dir"], spec["out_dir"])
    recorder = spans.Recorder() if spec["traced"] else None
    if recorder:
        spans.install(recorder)
        run_op = recorder.span("bench.op", lambda op: op.run(ctx))
    else:
        run_op = lambda op: op.run(ctx)        # noqa: E731
    hits = spans.count_cache_hits()
    setup_raw = time.monotonic() - spec["t_spawn"]
    slowdown = (spec["slowdown"] + speed.slowdown()) / 2
    result = {"setup_raw_s": setup_raw, "setup_s": setup_raw / slowdown, "ops": [],
              "mpmath_backend": sys.modules["mpmath"].libmp.BACKEND}
    if spec["mode"] == "setup":
        _write(spec["result"], result)
        return 0

    values, op_times = [], []
    probe = speed.SpeedProbe()
    probe.start()
    cpu0 = time.process_time()
    for op in ops:
        t0 = time.perf_counter()
        try:
            values.append((run_op(op), None))
        except Exception:
            values.append((None, traceback.format_exc(limit=4)))
        op_times.append((t0, time.perf_counter()))
    cpu = time.process_time() - cpu0
    probe.stop()
    work = probe.t1 - probe.t0 - probe.slice_time(probe.t0, probe.t1)
    # every time below is scaled to the reference speed by this pass's factor
    scale = probe.reference_time() / work
    for op, (a, b) in zip(ops, op_times):
        result["ops"].append({"label": op.label,
                              "wall_s": (b - a - probe.slice_time(a, b)) * scale})
    result.update(wall_raw_s=work, wall_s=work * scale, scale=scale,
                  cpu_s=(cpu - probe.slice_cpu()) * scale,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["cache_hits"] = hits["hits"]
    if recorder:
        recorder.dump(spec["result"] + ".spans", probe.samples)

    refs = _load_refs(spec["references"]).get(spec["workload"], {})
    outputs = {}
    for op, (value, error), rec in zip(ops, values, result["ops"]):
        problems = [error] if error else []
        if not problems:
            try:
                out = op.outputs(ctx, value)
                problems = list(op.check(out))
                outputs[op.label] = workloads.encode(out)
                if op.label in refs:
                    problems += workloads.compare(outputs[op.label], refs[op.label])
                elif spec["seed"] == workloads.DEFAULT_SEED and not spec["record"]:
                    problems.append("no stored reference at the default seed")
            except Exception:
                problems.append(traceback.format_exc(limit=4))
        rec["problems"] = problems
    if spec["record"]:
        result["outputs"] = outputs
    _write(spec["result"], result)
    return 0


def _load_refs(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
