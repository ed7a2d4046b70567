"""The library surface is what the package, the bench or README reaches:
every public top-level function or class in src/qesquartic is used by code
under src/ outside its own definition, named by perfbench/*.py, or named
in a code span of README.  Anything else is reached only by tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "qesquartic"


def _names(node):
    """Identifiers that ``node`` uses: names, attributes, identifier strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from (p for p in sub.value.split(".") if p.isidentifier())


def _public_defs():
    """(module, name) of each public top-level function and class."""
    for path in sorted(PKG.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _src_uses():
    """(module, owner, name): ``name`` used in ``module`` inside the top-level
    definition ``owner`` (None outside any definition)."""
    uses = set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     else None)
            uses.update((path.stem, owner, name) for name in _names(node))
    return uses


def _readme_names():
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {w for s in spans for w in re.findall(r"[A-Za-z_]\w*", s)}


def _perfbench_names():
    return {name for path in sorted((ROOT / "perfbench").glob("*.py"))
            for name in _names(ast.parse(path.read_text()))}


def test_every_public_definition_is_reached():
    uses = _src_uses()
    outside = {}
    for module, owner, name in uses:
        outside.setdefault(name, set()).add((module, owner))
    named = _readme_names() | _perfbench_names()
    unreached = [f"{module}.{name}" for module, name in _public_defs()
                 if name not in named
                 and not outside.get(name, set()) - {(module, name)}]
    assert not unreached, "reached only by tests: " + ", ".join(unreached)
