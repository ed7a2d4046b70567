"""The library surface is what the package, the bench or README reaches:
every public top-level function or class in src/qesquartic is used by code
under src/ outside its own definition, named by perfbench/*.py, or named
in a code span of README.  Anything else is reached only by tests.

The same holds one level down: every defaulted parameter of a public
function or method is passed by some call under src/ or perfbench/ (by
keyword, by position or through *args/**kwargs; calls are matched by the
callee's name), unless README names the function.

And no function changes module state: no ``global`` statement, and no
mutating method call or item assignment on a name assigned at module level
that the function (or one enclosing it) does not bind itself.  What a call
keeps between calls goes through the disk cache."""

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


MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear",
            "update", "setdefault", "add", "discard", "sort", "reverse"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(scope):
    """The nodes of ``scope``'s body, nested scopes yielded but not entered."""
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _bound(fn):
    """Names that the function ``fn`` binds in its own scope."""
    a = fn.args
    names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                             *filter(None, (a.vararg, a.kwarg)))}
    for node in _scope_nodes(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, SCOPES) and not isinstance(node, ast.Lambda):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((x.asname or x.name).split(".")[0] for x in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _module_state_changes(source):
    """``line: code`` of each place where a function changes module state."""
    tree = ast.parse(source)
    state = {n.id for n in _scope_nodes(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    found = []

    def visit(scope, local, in_function):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            local, in_function = local | _bound(scope), True
        shared = state - local
        for node in _scope_nodes(scope):
            if isinstance(node, SCOPES):
                visit(node, local, in_function)
            elif not in_function:
                continue
            elif (isinstance(node, ast.Global)
                  or isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in shared
                  or isinstance(node, ast.Subscript)
                  and not isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in shared):
                found.append((node.lineno, ast.unparse(node)))

    visit(tree, set(), False)
    return [f"{line}: {code}" for line, code in sorted(found)]


def test_no_function_changes_module_state():
    changes = [f"{path.stem}:{line}" for path in sorted(PKG.glob("*.py"))
               for line in _module_state_changes(path.read_text())]
    assert not changes, "module state changed in " + ", ".join(changes)


def test_module_state_rule_flags_each_form():
    source = """
CACHE = []
TABLE = {}
COUNT = 0


def grow(x):
    CACHE.append(x)


def put(k, v):
    TABLE[k] = v


def bump():
    global COUNT
    COUNT += 1


def own(x, TABLE=None):
    CACHE = [x]
    CACHE.append(x)
    TABLE = {}
    TABLE[x] = x
    return [CACHE.pop() for _ in CACHE]


def outer():
    CACHE = []

    def inner(x):
        CACHE.append(x)
    return inner


def read(k):
    return TABLE.get(k, CACHE[0])
"""
    assert _module_state_changes(source) == [
        "8: CACHE.append(x)", "12: TABLE[k]", "16: global COUNT"]
