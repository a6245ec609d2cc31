"""The modules of the package import one another without a cycle.

Every relative import counts, at module level or inside a function, in both
forms: `from .x import name` and `from . import x`.  A function-level import
still ties the two modules together, so it may not close a cycle either.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hornvol"


def relative_imports(path: Path) -> set[str]:
    """The package modules the file imports by a relative import."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def import_graph() -> dict[str, set[str]]:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    return {p.stem: relative_imports(p) & modules for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle of the graph as its module names, first repeated last; None when it is acyclic."""
    state: dict[str, str] = {}  # "open" while on the current path, "done" after
    path: list[str] = []

    def visit(m: str) -> list[str] | None:
        state[m] = "open"
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if state.get(n) == "open":
                return path[path.index(n):] + [n]
            if n not in state and (cycle := visit(n)):
                return cycle
        path.pop()
        state[m] = "done"
        return None

    for m in sorted(graph):
        if m not in state and (cycle := visit(m)):
            return cycle
    return None


def test_the_reader_sees_both_import_forms_and_the_finder_names_a_cycle(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import os\nfrom .a import f\nfrom . import b, c\n\ndef g():\n    from .d.e import h\n")
    assert relative_imports(f) == {"a", "b", "c", "d"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_the_package_import_graph_is_acyclic():
    graph = import_graph()
    assert "multiplicity" in graph["ehrhart"]  # `from . import multiplicity` is seen
    assert "sampler" in graph["cli"]  # so is the CLI's function-level import
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
