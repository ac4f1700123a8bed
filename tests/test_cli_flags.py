"""Every option a subcommand defines is read by that subcommand.

An option its handler never reads is a dead knob: it is accepted, it is
shown in --help, and it changes nothing.  The reads are found in cli.py's
source: `args.X` or `getattr(args, "X")` in the handler, or in a cli.py
function that the handler passes its `args` to (followed transitively).
"""

import argparse
import ast
import inspect

from asw_slopes import cli


def _functions() -> dict:
    tree = ast.parse(inspect.getsource(cli))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _reads(fn: ast.FunctionDef, param: str, functions: dict, seen: set) -> set:
    """Option names read from `param` in fn and in the cli.py functions it
    hands `param` to."""
    if (fn.name, param) in seen:
        return set()
    seen.add((fn.name, param))
    out = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            out.add(node.attr)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        args = node.args
        if (node.func.id == "getattr" and len(args) >= 2 and isinstance(args[0], ast.Name)
                and args[0].id == param and isinstance(args[1], ast.Constant)):
            out.add(args[1].value)
        callee = functions.get(node.func.id)
        if callee is None:
            continue
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Name) and arg.id == param and i < len(callee.args.args):
                out |= _reads(callee, callee.args.args[i].arg, functions, seen)
    return out


def _subcommands() -> dict:
    top = cli.build_parser()
    (subs,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def test_every_subcommand_option_is_read_by_its_handler():
    functions = _functions()
    unread = {}
    for name, sub in _subcommands().items():
        handler = sub.get_default("func")
        fn = functions[handler.__name__]
        read = _reads(fn, fn.args.args[0].arg, functions, set())
        options = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        if options - read:
            unread[name] = sorted(options - read)
    assert unread == {}


def test_the_reader_sees_attribute_getattr_and_helper_reads():
    # the tower options are read only through the _spec helper, and --out
    # only through getattr in _emit, two calls below the handler
    functions = _functions()
    fn = functions["_cmd_zeta"]
    read = _reads(fn, "args", functions, set())
    assert {"p", "a", "f", "h", "out", "m"} <= read
    assert "digits" not in read
