"""AST guards over the package sources and the tests.

Every name a package module imports at module level is used in it.  One
rule separates the routes from the references that check them: a route
module (every package module but selftest and references) defines only
functions a command reaches, only selftest imports references, only cli
imports selftest, and references takes from the route modules only the
input builders INPUT_BUILDERS names, never a kernel.  Every references
function is reached from selftest or tests/, so no function in the
package is left without a caller.  No test module patches a package
module or numpy.linalg by hand: counting and forbidding go through
reference.py's helpers, which patch every binding of a name.  The test
helpers import in either order: reference.py does not import conftest.py.
No matrix product in the package takes a strided .real or .imag view as
an operand.
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
REGISTRY = ("selftest", "references")  # every other package module is a route module


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
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def referenced_names(*nodes) -> set[str]:
    """Every bare name and attribute name the code of the nodes reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def unreached(trees, roots=()) -> set[str]:
    """The functions and methods the modules define that neither their
    top-level code nor a name in roots reaches, through the bodies of the
    functions reached.  Top-level code is what runs on import or is called
    implicitly: statements outside function bodies, decorators, signatures
    and dunder methods.  By name: a body that reads a name, bare or as an
    attribute, reaches every function of that name."""
    todo, bodies = list(roots), {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                todo += referenced_names(*node.decorator_list, *node.bases)
            for f in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(f, ast.FunctionDef) and not f.name[:2] == f.name[-2:] == "__":
                    todo += referenced_names(*f.decorator_list, f.args)
                    bodies.setdefault(f.name, set()).update(referenced_names(*f.body))
                else:
                    todo += referenced_names(f)
    reached = set()
    while todo:
        name = todo.pop()
        if name in bodies and name not in reached:
            reached.add(name)
            todo += bodies[name]
    return set(bodies) - reached


# what references may take from a route module: the inputs of a check
# (states, projectors, rotations and the closed-form tables a reference
# reads), never a route's kernel
INPUT_BUILDERS = {
    "MarkedState", "SpinHamiltonian", "aux_phase_vector", "auto_m_max", "diag_projector",
    "expm_unitary", "grover_coefficients", "magnetic_quantum_numbers", "n_qubits",
    "product_rotation", "projector_x_basis", "spin_op", "uf_permutation", "x_basis_state",
}


def package_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every import from a package module anywhere in the
    tree, as `from .m import name` or `from spinsearch.m import name` make
    it; an import of a whole module, as `from . import m` or
    `import spinsearch.m`, gives (m, "*")."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "spinsearch":
                    continue
                module = module.partition(".")[2]
            found |= {(module, a.name) if module else (a.name, "*") for a in node.names}
        elif isinstance(node, ast.Import):
            whole = [a.name for a in node.names if a.name.startswith("spinsearch.")]
            found |= {(name.split(".")[1], "*") for name in whole}
    return found


def boundary_crossings(trees: dict[str, ast.Module]) -> list[str]:
    """Every import, in the modules given by name, that crosses the line
    between routes and references: of references outside selftest, of
    selftest outside cli, and of a route module's name by references
    that INPUT_BUILDERS does not hold."""
    return [
        f"{importer} imports {module}.{name}"
        for importer, tree in sorted(trees.items())
        for module, name in sorted(package_imports(tree))
        if (module == "references" and importer != "selftest")
        or (module == "selftest" and importer != "cli")
        or (importer == "references" and module not in REGISTRY and name not in INPUT_BUILDERS)
    ]


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in SOURCES}


def test_routes_import_no_reference():
    trees = package_trees()
    assert boundary_crossings(trees) == []
    # no stale entry: every input builder allowed is one references takes
    assert {name for _, name in package_imports(trees["references"])} == INPUT_BUILDERS


def test_every_function_has_a_caller():
    trees = package_trees()
    routes = [tree for name, tree in trees.items() if name not in REGISTRY]
    # a route function that only selftest or tests/ reach belongs in references
    assert unreached(routes) == set()
    assert unreached(routes + [trees["selftest"]]) == set()  # the registry, from its table
    tests = [ast.parse(path.read_text()) for path in sorted(Path(__file__).parent.glob("*.py"))]
    assert unreached([trees["references"]], referenced_names(trees["selftest"], *tests)) == set()


def test_boundary_crossings_are_found():
    planted = {
        "sequences": "from .references import grover_propagator\n",
        "spectroscopy": "import spinsearch.references\nfrom . import mqalgebra, selftest\n",
        "composition": "def kernel():\n    from spinsearch.references import grover_core\n",
        "references": (
            "from .linalg import expm_unitary\nfrom . import oracle\nfrom .spectroscopy import run_pipeline\n"
            "from .sequences import _explicit_oracle_slabs, conjugate_multi_selective\n"
            "from .sequences import grover_conjugate, x_basis_state\n"
        ),
        "selftest": "from . import references, sequences\n",
        "cli": "from .selftest import run_selftest\n",
    }
    assert boundary_crossings({name: ast.parse(source) for name, source in planted.items()}) == [
        "composition imports references.grover_core",
        "references imports oracle.*",
        "references imports sequences._explicit_oracle_slabs",
        "references imports sequences.conjugate_multi_selective",
        "references imports sequences.grover_conjugate",
        "references imports spectroscopy.run_pipeline",
        "sequences imports references.grover_propagator",
        "spectroscopy imports references.*",
        "spectroscopy imports selftest.*",
    ]


def test_unreached_functions_are_found():
    route = ast.parse("""
COMMANDS = {"run": lambda cfg: command(cfg)}
def command(cfg):
    return kernel(cfg)
def kernel(cfg):
    return cfg.scale
class Config:
    @property
    def scale(self):
        return 2
    def reference(self):
        return kernel(self)
def check():
    return Config().reference()
""")
    assert unreached([route]) == {"reference", "check"}
    assert unreached([route], {"check"}) == set()


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
    ("test_linalg.py", "SLAB_BYTES"): "another slab budget, which slabs must read at each call",
    ("test_sequences.py", "SLAB_BYTES"): "another slab budget, which must not change a byte",
    ("test_spectroscopy.py", "SLAB_BYTES"): "another slab budget, which must not change a bit",
    ("test_cli.py", "SLAB_BYTES"): "another slab budget, which must not change a byte",
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
