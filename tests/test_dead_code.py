import ast
import pathlib

from asw_slopes import errors

SRC = pathlib.Path(errors.__file__).parent
ROOT = SRC.parent.parent


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _defined(modules: dict) -> list:
    """(module, node) of every function, method and class, dunders excluded."""
    return [
        (module, node)
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _dunder(node.name)
    ]


def _entry_points(modules: dict) -> list:
    """The console script cli.main, which reaches every subcommand handler
    through build_parser, tower.cross_check_counts, which the benchmark
    calls, and each function bench/tracing.py's TRACED names."""
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (traced,) = [
        node.value
        for node in tracing.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    wanted = [("cli", "main"), ("tower", "cross_check_counts")]
    wanted += [ast.literal_eval(value) for value in traced.values]
    tops = {
        (module, node.name): node
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    return [tops[key] for key in wanted]


def _reached(modules: dict) -> set:
    """The ids of the definitions an AST walk reaches from the entry points
    and the module-level statements.  A bare name reaches each function or
    class of that name, an attribute also each method.  A reached class
    reaches its dunders, which Python calls, and, if a base lies outside
    the package, every method, which that base may call."""
    classes = [
        node
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    funcs, methods = {}, {}
    for cls in classes:
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                methods.setdefault(item.name, []).append(item)
    is_method = {id(item) for found in methods.values() for item in found}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and id(node) not in is_method:
                funcs.setdefault(node.name, []).append(node)
    in_package = {cls.name for cls in classes}
    todo = _entry_points(modules) + [
        node
        for tree in modules.values()
        for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    reached = set()
    while todo:
        node = todo.pop()
        if id(node) in reached:
            continue
        reached.add(id(node))
        if isinstance(node, ast.ClassDef):
            library_base = any(
                not (isinstance(b, ast.Name) and b.id in in_package) for b in node.bases
            )
            todo += node.bases
            todo += [
                item
                for item in node.body
                if not isinstance(item, ast.FunctionDef) or library_base or _dunder(item.name)
            ]
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                todo += funcs.get(sub.id, [])
            elif isinstance(sub, ast.Attribute):
                todo += funcs.get(sub.attr, []) + methods.get(sub.attr, [])
    return reached


def test_every_definition_is_reached_from_an_entry_point():
    # a definition no command, benchmark call or traced function reaches is
    # dead weight in the package, even if a test calls it: it belongs with
    # the tests
    modules = _modules()
    defined, reached = _defined(modules), _reached(modules)
    names = {node.name for _, node in defined if id(node) in reached}
    assert {"character_sum", "CycInt", "_cmd_eigencurve", "flush", "error"} <= names
    unreached = [
        f"{module}.py:{node.lineno} {node.name}"
        for module, node in defined
        if id(node) not in reached
    ]
    assert unreached == []


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
