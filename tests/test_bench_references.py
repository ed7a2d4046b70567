"""The benchmark's exact objects come through the result type unchanged:
three of the ``exact_cert`` workload's ops, run in-process, encode to the
hashes stored in perfbench/references.json."""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("label", ["zerocase.factor_structure(40)",
                                   "branching.sigma_polynomial(12)",
                                   "yv.yv_generate(30)"])
def test_exact_outputs_match_references(label, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    refs = json.loads((PERFBENCH / "references.json").read_text())["exact_cert"]
    op = next(op for op in workloads.build("exact_cert", workloads.DEFAULT_SEED)
              if op.label == label)
    ctx = workloads.Context(cache_dir=str(tmp_path / "cache"),
                            out_dir=str(tmp_path / "out"))
    out = op.outputs(ctx, op.run(ctx))
    assert op.check(out) == []
    assert workloads.compare(workloads.encode(out), refs[label], label) == []
