"""Only cache.py reads, writes, encodes or decodes cache entries: every other
module goes through cache.cached, so the entry layout is known in one place."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "qesquartic"


def _entry_access(path):
    """(line, what) for each place in ``path`` that handles an entry itself."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("cache"):
            yield node.lineno, f"from {node.module} import ..."
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cache"
              and (node.attr in ("load", "store", "_entry")
                   or node.attr.startswith(("encode", "decode")))):
            yield node.lineno, f"cache.{node.attr}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("encode", "decode")):
            yield node.lineno, f".{node.func.attr}(...)"


def test_only_cache_py_handles_entries():
    found = [(p.name, line, what) for p in sorted(PKG.glob("*.py"))
             if p.name != "cache.py" for line, what in _entry_access(p)]
    assert found == []


def test_each_cached_artifact_uses_the_one_call():
    for name in ("branching", "spectral", "yv"):
        assert "cache.cached(" in (PKG / f"{name}.py").read_text(), name
