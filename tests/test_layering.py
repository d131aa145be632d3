"""The package's modules import one another without a cycle, none imports
a way to start threads or processes, and the module state they hold (a
``global`` statement, a memo decorator) is the census's and no more.

All three are read from the source with ``ast``; nothing is imported. An import
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


# Module state the package may hold, each with its owner. A memo outside this
# list keeps arrays alive past their last reader; a new one must say why here.
ALLOWED_GLOBALS = {"selection._last_pass"}
ALLOWED_MEMOS = {
    "lru_cache": {"oracle._support"},
    "cache": set(),
    "cached_property": {"models.BernoulliParams.support_probs",
                        "objectives.Objective.support_values"},
}


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def module_state(module, tree):
    """``(globals, memos)``: each ``module.name`` a ``global`` statement
    names, and each ``module.qualname`` of a function under a memo
    decorator, as ``{decorator: {qualname}}``."""
    names, memos = set(), {name: set() for name in ALLOWED_MEMOS}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                names.update(f"{module}.{name}" for name in child.names)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                for decorator in child.decorator_list:
                    found = _decorator_name(decorator)
                    if found in memos:
                        memos[found].add(qualname)
                visit(child, qualname)
            else:
                visit(child, prefix)

    visit(tree, module)
    return names, memos


def test_module_state_is_the_census():
    names, memos = set(), {name: set() for name in ALLOWED_MEMOS}
    for path in PACKAGE.glob("*.py"):
        found_names, found_memos = module_state(path.stem, ast.parse(path.read_text("utf-8")))
        names |= found_names
        for name, owners in found_memos.items():
            memos[name] |= owners
    extra = sorted(names - ALLOWED_GLOBALS)
    assert not extra, f"global module state outside the census: {extra}"
    for name, owners in memos.items():
        extra = sorted(owners - ALLOWED_MEMOS[name])
        assert not extra, f"@{name} outside the census: {extra}"
    # the reader sees the package's real state, so an empty read cannot pass
    assert names == ALLOWED_GLOBALS
    assert memos == ALLOWED_MEMOS


def test_module_state_finds_a_planted_memo():
    source = ("import functools\n_seen = {}\n"
              "def f():\n    global _seen, _other\n"
              "class A:\n    @functools.lru_cache(maxsize=4)\n    def g(self):\n        pass\n"
              "    class B:\n        @cached_property\n        def h(self):\n            pass\n"
              "@cache\ndef k():\n    pass\n")
    names, memos = module_state("m", ast.parse(source))
    assert names == {"m._seen", "m._other"}
    assert memos == {"lru_cache": {"m.A.g"}, "cache": {"m.k"},
                     "cached_property": {"m.A.B.h"}}
