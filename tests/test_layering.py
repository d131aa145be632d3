"""The package's modules import one another without a cycle, and none
imports a way to start threads or processes.

Both are read from the source with ``ast``; nothing is imported. An import
inside a function body runs when the function is called, not when the
module loads, so it is not an edge of the graph; it does count as a
threading import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "igokit"


def _module_level_imports(tree):
    """The sibling modules a module's load imports: relative imports in its
    top-level statements and class bodies, not in function bodies."""
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:  # from .a import x
                found.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


def import_graph():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    return {
        name: _module_level_imports(ast.parse(path.read_text(encoding="utf-8"))) & set(modules)
        for name, path in modules.items()
    }


def _find_cycle(graph):
    """One cycle as a list of modules, first repeated last, or None."""
    state = {}  # 1: on the current path, 2: finished

    def visit(node, path):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [])
            if cycle:
                return cycle
    return None


def test_module_level_import_graph_is_acyclic():
    graph = import_graph()
    # the reader sees the package's real edges, so an empty graph cannot pass
    assert "updates" in graph["algorithms"] and "updates" in graph["oracle"]
    # diagnostics imports algorithms.run inside a function only
    assert "algorithms" not in graph["diagnostics"]
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_find_cycle_reports_a_cycle():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b"}, "b": set()}) is None


# Standard-library packages that start threads or processes.
THREADING = {"threading", "_thread", "concurrent", "multiprocessing"}


def _absolute_imports(tree):
    """The top-level packages of every absolute import anywhere in a module,
    function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_threading():
    imports = {path.name: _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
               for path in PACKAGE.glob("*.py")}
    # the reader sees the package's real imports, so an empty read cannot pass
    assert "numpy" in imports["models.py"]
    offending = {name: sorted(found & THREADING) for name, found in imports.items()
                 if found & THREADING}
    assert not offending, f"igokit starts no threads of its own: {offending}"


def test_threading_imports_are_found_in_function_bodies():
    source = ("def f():\n    import threading\n"
              "class A:\n    def g(self):\n        from concurrent.futures import Executor\n"
              "import multiprocessing.pool\nfrom _thread import start_new_thread\n")
    assert _absolute_imports(ast.parse(source)) >= THREADING
