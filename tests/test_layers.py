"""The package's modules form layers: each imports only modules below it.

The layers run from terms up to loop groups, the search oracle and the
command line, in the order `ORDER` lists. An import inside an
`if TYPE_CHECKING:` block is for type checkers only and is not counted.
Only the command line imports package modules inside functions, so that a
command loads only what it calls."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathrw"

# lowest first; `__main__` runs the command line, and `__init__` loads the
# others by name on first use
ORDER = [
    "errors", "terms", "spaces", "syntax", "rewrite", "groupoid", "pi1", "oracle",
    "checks", "cli", "__main__", "__init__",
]
LOADS_ON_CALL = {"cli"}


def _imports(paths):
    """(module, imported module, line, whether inside a function) for every
    relative import in `paths` outside an `if TYPE_CHECKING:` block."""
    found = []
    for path in paths:
        todo = [(node, False) for node in ast.parse(path.read_text()).body]
        while todo:
            node, in_function = todo.pop()
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                todo += [(kid, in_function) for kid in node.orelse]
            elif isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                found += [(path.stem, target, node.lineno, in_function) for target in targets]
            else:
                is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                todo += [(kid, in_function or is_function) for kid in ast.iter_child_nodes(node)]
    return sorted(found)


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(ORDER)


def test_every_import_points_down():
    upward = [(module, target, line) for module, target, line, _ in _imports(SRC.glob("*.py"))
              if ORDER.index(target) >= ORDER.index(module)]
    assert upward == []


def test_only_the_command_line_imports_on_call():
    on_call = [(module, target, line) for module, target, line, in_function
               in _imports(SRC.glob("*.py"))
               if in_function and module not in LOADS_ON_CALL]
    assert on_call == []


def test_the_scan_sees_each_way_of_importing(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import json\n"
        "from . import low, lower\n"
        "from .high import thing\n"
        "TYPE_CHECKING = False\n"
        "if TYPE_CHECKING:\n"
        "    from .typed import Name\n"
        "else:\n"
        "    from .fallback import Name\n"
        "def f():\n"
        "    from .late import g\n"
        "    return g\n"
        "class K:\n"
        "    def method(self):\n"
        "        if True:\n"
        "            from .deep import h\n"
        "from collections import deque\n"
    )
    assert _imports([source]) == [
        ("sample", "deep", 15, True),
        ("sample", "fallback", 8, False),
        ("sample", "high", 3, False),
        ("sample", "late", 10, True),
        ("sample", "low", 2, False),
        ("sample", "lower", 2, False),
    ]
