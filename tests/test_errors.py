import ast
import pathlib

from asw_slopes import errors

SRC = pathlib.Path(errors.__file__).parent


def _raised_names() -> set:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_leaf_error_is_raised_somewhere():
    # a leaf class nothing raises is a documented failure that cannot happen;
    # base classes are caught by family and need no raise site of their own
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, Exception) and c.__module__ == errors.__name__
    ]
    leaves = {
        c.__name__ for c in classes if not any(o is not c and issubclass(o, c) for o in classes)
    }
    assert "NoGapAtVertex" in leaves and "ConfigError" not in leaves
    assert leaves - _raised_names() == set()
