"""AST guards over the package sources.

Every name a package module imports at module level is used in it, and
every function or method the package defines is read by other package
code, apart from the paper entry points still waiting for a registry
group or a move into tests/.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "spinsearch").glob("*.py")
    if p.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return names


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


# Paper closed forms that only tests exercise so far; each is to become the
# subject of a selftest group or move into tests/ as a reference.
UNREFERENCED_ENTRY_POINTS = {
    "order_intensities",
    "interaction_frame",
    "spin_echo_hamiltonian",
}


def defined_members(tree: ast.Module) -> set[str]:
    """Module-level functions and the methods of module-level classes,
    without dunder methods, which Python calls implicitly."""
    names = set()
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        names |= {f.name for f in body if isinstance(f, ast.FunctionDef)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name and attribute name the module's code reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_member_has_a_caller_in_the_package():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    defined = set().union(*(defined_members(tree) for tree in trees.values()))
    assert defined - referenced == UNREFERENCED_ENTRY_POINTS
