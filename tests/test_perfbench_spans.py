"""The benchmark's traced pass wraps qesquartic functions by name: every
name it lists must still exist, or a ``--trace 1`` run crashes."""

import functools
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = []
    for mod_name, attr, _, _ in spans.TRACED:
        module = importlib.import_module(f"qesquartic.{mod_name}")
        try:
            target = functools.reduce(getattr, attr.split("."), module)
        except AttributeError:
            target = None
        if not callable(target):
            missing.append(f"{mod_name}.{attr}")
    assert spans.TRACED
    assert not missing
