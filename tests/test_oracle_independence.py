"""The independent oracles share no code with what they check, read with
ast as test_dead_code does: the brute-force Witt count none with the trace
histograms and Teichmuller lifts, the operator pathway none with the point
side, and the test oracles none with the operator's packed lanes."""

import ast
import pathlib

from asw_slopes import errors

SRC = pathlib.Path(errors.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _imported(tree: ast.Module) -> dict:
    """Local name -> package module it comes from, for every import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                source = node.module or alias.name  # `from . import m` binds m
                out[alias.asname or alias.name] = source
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("asw_slopes."):
                    out[alias.asname or alias.name] = alias.name.split(".")[1]
    return out


def _reached(tree: ast.Module, start: str) -> set:
    """Every name read in `start` and in the module's functions it reaches."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names, todo, seen = set(), [start], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if node.id in defs:
                    todo.append(node.id)
    return names


def test_the_witt_count_reaches_no_histogram_or_lift_code():
    tree = _tree("tower")
    imported = _imported(tree)
    reached = _reached(tree, "count_points_witt")
    # the walk sees the array kernel
    assert {"witt_sub", "witt_add", "_carry", "_mul", "_pow", "_fold", "gf"} <= reached
    sources = {name: imported[name] for name in reached if name in imported}
    assert not [n for n, m in sources.items() if m == "padic"]
    assert [n for n, m in sources.items() if m == "expsum"] == ["TowerSpec"]


def test_the_operator_pathway_imports_no_point_side_module():
    assert not {"expsum", "tower"} & set(_imported(_tree("dwork")).values())


def test_the_test_oracles_import_nothing_from_the_operator_pathway():
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert "asw_slopes" in {m.split(".")[0] for m in modules}
    assert "asw_slopes.dwork" not in modules
