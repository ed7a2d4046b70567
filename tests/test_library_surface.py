"""The library surface is what the package, the bench or README reaches:
every public top-level function or class in src/qesquartic is used by code
under src/ outside its own definition, named by perfbench/*.py, or named
in a code span of README.  Anything else is reached only by tests.

The same holds one level down: every defaulted parameter of a public
function or method is passed by some call under src/ or perfbench/ (by
keyword, by position or through *args/**kwargs; calls are matched by the
callee's name), unless README names the function."""

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


def _defaulted_params(fn, bound):
    """(name, position or None) of each defaulted parameter of ``fn``; the
    position counts call arguments, so a bound first parameter is skipped."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    for i in range(first, len(pos)):
        yield pos[i].arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _public_functions():
    """(qualified name, def node, whether its first parameter is bound) of
    each public top-level function and public method of a public class."""
    for path in sorted(PKG.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        static = any(isinstance(d, ast.Name)
                                     and d.id == "staticmethod"
                                     for d in sub.decorator_list)
                        yield (f"{path.stem}.{node.name}.{sub.name}", sub,
                               0 if static else 1)


def _calls_by_callee():
    """Every call under src/ and perfbench/, keyed by the callee's name."""
    calls = {}
    paths = sorted(PKG.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Call):
                f = sub.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(sub)
    return calls


def _passes(call, name, position):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a parameter no caller in the package or the bench sets is a knob with
    # one setting: its value belongs in the code
    calls = _calls_by_callee()
    exempt = _readme_names()
    unset = [f"{qual}({name})"
             for qual, fn, bound in _public_functions()
             if fn.name not in exempt
             for name, position in _defaulted_params(fn, bound)
             if not any(_passes(c, name, position)
                        for c in calls.get(fn.name, ()))]
    assert not unset, "defaulted parameters no caller sets: " + ", ".join(unset)
