"""No recursion by construction: the package's functions that call
themselves are exactly the ones listed here, each with the reason it may.

A function calls itself when a call in its body names it, directly or
through a local alias (`ids = self.payloads`); a method names itself
through its first parameter (`self.payloads(...)`). A call through another
object's attribute, such as `object.__new__` inside `__new__`, is not
one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathrw"

ALLOWED = {
    # the live one: `equal --oracle --space circle "a^1000" "a^1001"` dies
    # with a RecursionError here until `rewrites` keeps its own stack
    "oracle._Search.rewrites": "one level per level of a search state's nesting",
    # the rest recurse once per node or letter of a small enumerated size
    "oracle.enumerate_terms": "one level per node of the terms it enumerates",
    "oracle._loops_of_length.go": "one level per letter of the loops it lists",
    "oracle._Search.payloads": "one level per node of a cancellation payload",
}


def _names_itself(node, fn, is_method, aliases):
    if isinstance(node, ast.Name):
        return node.id in aliases or (not is_method and node.id == fn.name)
    if isinstance(node, ast.Attribute) and is_method and fn.args.args:
        owner = fn.args.args[0].arg
        return (isinstance(node.value, ast.Name) and node.value.id == owner
                and node.attr == fn.name)
    return False


def _calls_itself(fn, is_method):
    nodes = list(ast.walk(fn))
    aliases = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and _names_itself(node.value, fn, is_method, ()):
            aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return any(isinstance(node, ast.Call) and _names_itself(node.func, fn, is_method, aliases)
               for node in nodes)


def _self_callers(paths):
    """The dotted names (module, classes, enclosing functions) of every
    function in `paths` that calls itself."""
    found = set()
    for path in paths:
        todo = [(ast.parse(path.read_text()), path.stem, False)]
        while todo:
            node, scope, in_class = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    todo.append((child, f"{scope}.{child.name}", True))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{scope}.{child.name}"
                    if _calls_itself(child, in_class):
                        found.add(name)
                    todo.append((child, name, False))
                else:
                    todo.append((child, scope, in_class))
    return found


def test_only_the_listed_functions_call_themselves():
    assert _self_callers(sorted(SRC.glob("*.py"))) == set(ALLOWED)


def test_the_scan_sees_each_way_of_calling_oneself(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def direct(n):\n"
        "    return direct(n - 1)\n"
        "def outer():\n"
        "    def inner(n):\n"
        "        return inner(n - 1)\n"
        "    return inner(3)\n"
        "class K:\n"
        "    def method(self, n):\n"
        "        return self.method(n - 1)\n"
        "    def aliased(self, n):\n"
        "        again = self.aliased\n"
        "        return again(n - 1)\n"
        "    def __new__(cls):\n"
        "        return object.__new__(cls)\n"
        "    def direct(self):\n"
        "        return direct(0)\n"
        "def loop(todo):\n"
        "    while todo:\n"
        "        todo.pop()\n"
    )
    assert _self_callers([source]) == {
        "sample.direct", "sample.outer.inner", "sample.K.method", "sample.K.aliased",
    }
