import ast
import pathlib

from asw_slopes import gf

SRC = pathlib.Path(gf.__file__).parent
# 2^62 and 2^63 as magnitudes, 62 and 63 as bit lengths
LIMITS = {2**62, 2**63, 62, 63}


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exp = _literal(node.left), _literal(node.right)
            if isinstance(base, int) and isinstance(exp, int):
                return base**exp
    return None


def _overflow_tests() -> list:
    """(file, function) of every comparison against an int64 limit."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and any(
                    _literal(side) in LIMITS for side in (node.left, *node.comparators)
                ):
                    found.append((path.name, fn.name))
    return found


def test_the_int64_rule_lives_in_one_function():
    # every numpy kernel asks gf.int_dtype with its own proven bound; an
    # inline comparison would be a second overflow policy
    assert _overflow_tests() == [("gf.py", "int_dtype")]
