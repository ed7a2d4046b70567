"""Only branching.py holds the divisors of the conjecture's point pair, the
(27/4)^(1/3) and (9/2)^(2/3) of ``branching.triangle_sets``: every other
module takes the scaled sets from there, so the normalisation is decided in
one place."""

import ast
import math
from pathlib import Path

from qesquartic import branching

PKG = Path(__file__).resolve().parents[1] / "src" / "qesquartic"
NAMES = ("SCALE_CONSTANT", "YV_SCALE_CONSTANT")
VALUES = tuple(getattr(branching, name) for name in NAMES)


def _constant_value(node):
    """The value of an arithmetic expression of number literals, else None."""
    if not all(isinstance(n, (ast.BinOp, ast.UnaryOp, ast.Constant, ast.operator,
                              ast.unaryop))
               for n in ast.walk(node)):
        return None
    try:
        value = eval(compile(ast.Expression(node), "<constant>", "eval"), {})
    except (ArithmeticError, TypeError, ValueError):
        return None
    return value if isinstance(value, (int, float)) else None


def _divisor_uses(path):
    """(line, what) for each place in ``path`` that names a scale divisor."""
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in NAMES:
            yield node.lineno, name
        elif isinstance(node, ast.BinOp):
            value = _constant_value(node)
            if value is not None and any(math.isclose(value, v, rel_tol=1e-12)
                                         for v in VALUES):
                yield node.lineno, ast.unparse(node)


def test_branching_holds_the_divisors():
    assert VALUES == ((27 / 4) ** (1 / 3), (9 / 2) ** (2 / 3))
    assert {what for _, what in _divisor_uses(PKG / "branching.py")} >= set(NAMES)


def test_no_other_module_names_a_divisor():
    found = [(p.name, line, what) for p in sorted(PKG.glob("*.py"))
             if p.name != "branching.py" for line, what in _divisor_uses(p)]
    assert found == []
