"""The package's modules import one another without a cycle.

The graph is read from the source with ``ast``; nothing is imported. An
import inside a function body runs when the function is called, not when
the module loads, so it is not an edge here.
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
