import ast
import pathlib

from asw_slopes import errors

SRC = pathlib.Path(errors.__file__).parent
ROOT = SRC.parent.parent


def _defined() -> dict:
    """Every function, method and class of the package, dunders excluded."""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.setdefault(node.name, f"{path.name}:{node.lineno}")
    return names


def _used() -> set:
    """Names read, attributes taken and whole-string constants (bench/tracing.py
    resolves functions by name) across the package, tests and bench."""
    names = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_is_used_somewhere():
    # a definition only its own def names is dead weight: it is neither
    # called, nor tested, nor traced
    defined, used = _defined(), _used()
    assert "character_sum" in defined and "CycInt" in defined
    unused = {name: where for name, where in defined.items() if name not in used}
    assert unused == {}


def test_the_package_root_binds_no_name_from_a_submodule():
    # the modules are the API: __init__.py only loads them
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module is not None or alias.name not in modules
    ]
    assert bound == []
