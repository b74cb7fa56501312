"""Source hygiene checks that need only the standard library."""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cpspectra"
README = SRC.parent.parent / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads and does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = declared_all(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read | exported]


def declared_all(tree: ast.Module) -> set[str]:
    """The names listed in a module's ``__all__``; empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_modules_are_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def package_exports() -> set[str]:
    """The names that ``cpspectra/__init__.py`` imports from its modules."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_reach_the_package(path):
    # a name a module declares public is importable from cpspectra, or it is not public
    declared = declared_all(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(declared - package_exports()) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that a module imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "cpspectra"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    found.append(f"{alias.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    # a helper another module needs belongs on the public surface or on the object it serves
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_private_import():
    source = (
        "from .cpmap import CpMap, _kraus_step\n"
        "from cpspectra.spectra import _action\n"
        "from . import __version__\n"
        "from numpy.linalg import _umath_linalg\n"
    )
    assert private_imports(source) == ["_kraus_step (line 1)", "_action (line 2)"]


def unit_floors(source: str) -> list[str]:
    """``function: call`` for each ``max(1, x)``-style threshold of a module: a two-argument
    ``max`` or ``np.maximum`` with the constant 1 as an argument, which makes a gate
    absolute below unit scale."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and len(child.args) == 2:
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in ("max", "maximum") and any(
                    isinstance(a, ast.Constant) and a.value == 1 for a in child.args
                ):
                    found.append(f"{where}: {ast.unparse(child)}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return found


# The unit floors left: the gates that scale-free certification has not reached yet, and
# two that are not scale gates.  A gate made relative leaves this list.
UNIT_FLOORS = {
    "perron.py": [
        "_cesaro_limit: max(1.0, size)",  # the Cesaro stop rule
        "_maximal_part: max(1.0, size)",  # the route gap
        "_perron_of: max(1.0, norm)",  # the PSD tolerance of L
        "maximal_factorization: max(1.0, float(np.linalg.norm(raw_state)))",  # the Hermitian gap of R
        "resolvent_gamma: max(1.0, r)",  # the default b, not a gate
    ],
    "spectra.py": [
        "neumann_witness: max(s, 1.0)",  # the near-singular guard
        "balance_similarity: max(early, 1.0)",  # norms of powers of a / r, at least 1: no scale
    ],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_unit_floors_are_listed(path):
    # an input verdict compares its residual with its tolerance times the norm of what it checks
    assert unit_floors(path.read_text(encoding="utf-8")) == UNIT_FLOORS.get(path.name, [])


def test_detects_a_unit_floor():
    source = (
        "def gate(x, y):\n"
        "    a = max(1, x) + max(1.0, x) + max(x, 1.0)\n"
        "    def inner(z):\n"
        "        return np.maximum(1.0, z)\n"
        "    return max(0.0, x) + max(x, y) + max(1.0, x, y) + a\n"
    )
    assert unit_floors(source) == [
        "gate: max(1, x)",
        "gate: max(1.0, x)",
        "gate: max(x, 1.0)",
        "inner: np.maximum(1.0, z)",
    ]


def test_cli_import_leaves_scipy_out():
    # scipy is most of the import time; the package imports it where it is used
    probe = "import sys, cpspectra.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


# The tuning thresholds are module constants; each entry point takes only its
# inputs and the --tol-* tolerances, so a re-added knob changes this table.
ENTRY_POINTS = {
    "spectral_structure": ["op", "rank_tol"],
    "maximal_part": ["phi", "rank_tol"],
    "perron_vector": ["phi", "psd_tol", "rank_tol"],
    "maximal_factorization": ["tau", "rank_tol", "psd_tol"],
    "maximal_ideal_check": ["tau", "rank_tol"],
    "irreducible_cp": ["tau", "rank_tol", "psd_tol", "rng"],
    "membership": ["a", "tau", "rank_tol"],
    "preserves_algebra": ["tau"],
    "jsr_tensor_approx": ["mats_list", "k"],
    "norm_achieving_check": ["phi", "w", "psd_tol"],
    "balance_similarity": ["a", "epsilon"],
}


def test_entry_point_signatures():
    import cpspectra

    got = {name: list(inspect.signature(getattr(cpspectra, name)).parameters) for name in ENTRY_POINTS}
    assert got == ENTRY_POINTS


def module_constants(module: str) -> dict[str, float]:
    """The number-valued constants a module assigns at its top level (UPPER_CASE names)."""
    mod = importlib.import_module(f"cpspectra.{module}")
    names = [
        target.id
        for node in ast.parse(inspect.getsource(mod)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    ]
    values = {name: getattr(mod, name) for name in names}
    return {name: v for name, v in values.items() if isinstance(v, (int, float)) and not isinstance(v, bool)}


def readme_thresholds() -> dict[str, float]:
    """The ``module.NAME = value`` entries of README "Fixed thresholds", evaluated."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Fixed thresholds") :]
    section = section[: section.index("\n## ")]
    found = re.findall(r"`(\w+\.\w+) = ([^`]+)`", section)
    return {name: eval(value, {"__builtins__": {}}) for name, value in found}  # noqa: S307 - README literals


@pytest.mark.parametrize("module", ["mats", "cpmap", "spectra", "perron"])
def test_constants_are_listed_in_the_readme(module):
    # every fixed threshold is documented with its value, so no constant changes unseen
    listed = readme_thresholds()
    constants = module_constants(module)
    assert constants, module
    assert {f"{module}.{name}": listed.get(f"{module}.{name}") for name in constants} == {
        f"{module}.{name}": value for name, value in constants.items()
    }
