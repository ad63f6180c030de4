"""AST guards over the package sources and the tests.

Every name a package module imports at module level is used in it, and
every function or method the package defines is read by other package
code, apart from the paper entry points still waiting for a registry
group or a move into tests/.  No test module patches a package module or
numpy.linalg by hand: counting and forbidding go through reference.py's
helpers, which patch every binding of a name.  The test helpers import
in either order: reference.py does not import conftest.py.  No matrix
product in the package takes a strided .real or .imag view as an operand.
"""

import ast
import os
import subprocess
import sys
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


def test_reference_imports_first_in_a_fresh_interpreter():
    tests = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import reference, conftest"],
        cwd=tests, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_every_traced_layer():
    # bench/tracer.py patched() reads sys.modules for each of its LAYERS and
    # raises KeyError for one that `import spinsearch.cli` did not load, so
    # a lazy import of a layer makes `bench/run.py --trace 1` exit 1.
    # Retire this guard when the tracer imports the layers itself (ROADMAP
    # item 1, "Tracer import").
    tracer = ast.parse((Path(__file__).parent.parent / "bench" / "tracer.py").read_text())
    (layers,) = [
        ast.literal_eval(node.value) for node in tracer.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    path = os.pathsep.join(filter(None, [str(SOURCES[0].parent.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, spinsearch.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    missing = [layer for layer in layers if f"spinsearch.{layer}" not in loaded]
    assert layers and missing == [], f"import spinsearch.cli does not load {missing}"


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


# patches that substitute a function or a constant rather than count or
# forbid calls
SUBSTITUTIONS = {
    ("test_config.py", "run_selftest"): "the fuzzer's stand-in selftest; cmd_selftest reads cli's binding",
    ("test_cli.py", "INVARIANT_GROUPS"): "the registry plus a failing group, which selftest must report",
    ("test_cli.py", "iz_diagonals"): "a readout row flipped or scaled, which search's checks must catch",
    ("test_cli.py", "grover_coefficients"): "a perturbed gamma_1, which grover-scan's check must catch",
    ("test_cli.py", "measured_conversion_coefficients"): "a NaN measured entry, which grover-scan's check must catch",
    ("test_cli.py", "spectrum"): "a DFT normalized by 1/sqrt(T), which spectrum's parseval check must catch",
    ("test_cli.py", "_sandwich"): "an uneven sandwich, whose cross composition compose-bench's check must catch",
    ("test_sequences.py", "product_rotation"): "a phased pulse, which simple_search must refuse",
    ("test_sequences.py", "initial_state"): "a work state with a real part, which the explicit oracle must refuse",
    ("test_sequences.py", "aux_pure_state"): "a phased auxiliary state, which the explicit oracle must refuse",
    ("test_sequences.py", "EXPLICIT_SLAB_ROWS"): "another slab height, which must not change a byte",
    ("test_scripts.py", "readout_with_extras"): "a readout off its prediction, which the demo must refuse",
}


def hand_patches(source: str) -> list[tuple[int, str]]:
    """(line, target) of every monkeypatch.setattr or mock.patch.object call
    whose target is a spinsearch module, numpy.linalg or a local name, which
    could hold either."""
    tree = ast.parse(source)
    aliases = {}  # local name -> dotted module path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]  # what `import a.b` binds
                aliases[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases |= {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}

    def dotted(expr) -> str:
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id, f"<local {expr.id}>")
        if isinstance(expr, ast.Attribute):
            return f"{dotted(expr.value)}.{expr.attr}"
        return expr.value if isinstance(expr, ast.Constant) and isinstance(expr.value, str) else ""

    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "setattr" or dotted(node.func) == "unittest.mock.patch.object":
            target = dotted(node.args[0])
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                target += f".{node.args[1].value}"
            if (target + ".").startswith(("spinsearch.", "numpy.linalg.", "<local")):
                found.append((node.lineno, target))
    return found


def test_no_test_patches_a_package_binding_by_hand():
    hits = [
        f"{path.name}:{line} patches {target}"
        for path in sorted(Path(__file__).parent.glob("test_*.py"))
        for line, target in hand_patches(path.read_text())
        if (path.name, target.rpartition(".")[2]) not in SUBSTITUTIONS
    ]
    assert hits == [], "use reference.patch_counted or patch_forbidden:\n" + "\n".join(hits)


def test_hand_patches_are_found():
    source = """
import numpy as np
from unittest import mock
from spinsearch import cli, oracle
monkeypatch.setattr(oracle, "oracle_uf", forbidden)
monkeypatch.setattr(np.linalg, "eigh", forbidden)
monkeypatch.setattr("spinsearch.linalg.total_op", forbidden)
mock.patch.object(cli, "run_selftest", fake)
for owner in (np.linalg, oracle):
    monkeypatch.setattr(owner, name, counted)
"""
    assert hand_patches(source) == [
        (5, "spinsearch.oracle.oracle_uf"),
        (6, "numpy.linalg.eigh"),
        (7, "spinsearch.linalg.total_op"),
        (8, "spinsearch.cli.run_selftest"),
        (10, "<local owner>"),
    ]


def strided_products(source: str) -> list[int]:
    """Lines of every @, @=, np.matmul, np.dot or .dot product with an
    operand that is a .real or .imag view, or a transpose or slice of one:
    numpy runs such a strided operand outside BLAS, many times slower than
    a contiguous copy."""

    def strided(expr) -> bool:
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            if isinstance(expr, ast.Attribute) and expr.attr in ("real", "imag"):
                return True
            expr = expr.value
        return False

    found = []
    for node in ast.walk(ast.parse(source)):
        operands = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            operands = [node.target, node.value]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            numpy_call = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
            if numpy_call and func.attr in ("matmul", "dot"):
                operands = node.args[:2]
            elif func.attr == "dot":
                operands = [func.value, *node.args[:1]]
        if any(map(strided, operands)):
            found.append(node.lineno)
    return sorted(found)


def test_no_blas_product_on_a_strided_part():
    hits = [
        f"{path.name}:{line}" for path in SOURCES for line in strided_products(path.read_text())
    ]
    assert hits == [], "copy the .real or .imag part before the product:\n" + "\n".join(hits)


def test_strided_products_are_found():
    source = """
import numpy as np
populations = pulse.real @ rho
np.matmul(a, b.imag, out=c)
np.dot(x.real.T, y)
rho @= u.imag[:, :4]
u.real.dot(v)
fine = np.ascontiguousarray(pulse.real) @ rho + pulse.real.copy() @ rho
np.dot(a, b).real
"""
    assert strided_products(source) == [3, 4, 5, 6, 7]
