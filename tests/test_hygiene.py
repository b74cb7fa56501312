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


def cluster_tol_readers(source: str) -> list[str]:
    """The lines of a module that import or read ``CLUSTER_TOL``."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and node.id == "CLUSTER_TOL")
            or (isinstance(node, ast.Attribute) and node.attr == "CLUSTER_TOL")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "CLUSTER_TOL" for a in node.names))
        }
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "mats.py"], ids=lambda p: p.name)
def test_one_module_knows_the_peripheral_window(path):
    # the peripheral clusters are mats.peripheral's alone: no other module reads the window
    assert cluster_tol_readers(path.read_text(encoding="utf-8")) == []


def test_detects_a_cluster_tol_reader():
    source = (
        "from .mats import CLUSTER_TOL, RANK_TOL\n"
        "import cpspectra.mats as mats\n"
        "def window(r):\n"
        "    return r * (1 - mats.CLUSTER_TOL), RANK_TOL\n"
    )
    assert cluster_tol_readers(source) == [1, 4]


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


# The unit floor left is not a scale gate; every gate compares with its tolerance times the
# scale of what it checks.  A new floor changes this list.
UNIT_FLOORS = {
    "perron.py": [
        "resolvent_gamma: max(1.0, r)",  # the default b, not a gate
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


def psd_tol_gates(source: str) -> list[str]:
    """``function: comparison`` for each comparison of a module that reads ``psd_tol``,
    outside ``psd_report``, the one positivity rule, and ``_psd_verdicts``, the private function
    that writes it once for ``psd_report``, ``psd_sqrt`` and ``gram_difference_is_psd``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and where not in ("psd_report", "_psd_verdicts") and any(
                isinstance(n, ast.Name) and n.id == "psd_tol" for n in ast.walk(child)
            ):
                found.append(f"{where}: {ast.unparse(child)}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return found


# PSD and strict-positivity verdicts read psd_report, which decides them at the matrix's own
# scale.  The gates below compare with psd_tol themselves, each for the reason given; a
# verdict that re-derives its own floor after psd_report changes this table.
PSD_TOL_GATES = {
    "algebra.py": [
        # a relative membership gap, not a positivity verdict
        "in_algebra: frobenius_norm(x - compress(x, shape)) <= psd_tol * frobenius_norm(x)",
    ],
    "cpmap.py": [
        # psd_report's own Hermitian gate and PSD rule, on the eigenpairs kraus_of_choi keeps
        "kraus_of_choi: frobenius_norm(c - c.conj().T) > psd_tol * frobenius_norm(c)",
        "kraus_of_choi: float(w.min(initial=0.0)) < -psd_tol * top",
    ],
    "perron.py": [
        # a zero gate on L or R, relative to the scale ||hat|| ||x|| of its input's image; not a
        # PSD verdict
        "_perron: norm <= psd_tol * frobenius_norm(hat) * scale",
        # psd_report's strict rule lambda_min > psd_tol lambda_max, on the probe eigenvalues
        "irreducible_cp: _probe_ratios(superop_matrix(ext), rng) > psd_tol",
    ],
    "spectra.py": [
        # w >= 1 compares w with 1, so its scale is 1, not that of the difference
        "neumann_witness: low < -psd_tol",
        # phi(w) <= r w compares two matrices at the scale r ||w|| of the operands
        "norm_achieving_check: frobenius_norm(slack - slack.conj().T) > psd_tol * scale",
        "norm_achieving_check: low < -psd_tol * scale",
    ],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_psd_tol_gates_are_listed(path):
    assert psd_tol_gates(path.read_text(encoding="utf-8")) == PSD_TOL_GATES.get(path.name, [])


def test_detects_a_psd_tol_gate():
    source = (
        "def psd_report(m, psd_tol):\n"
        "    return m >= -psd_tol\n"
        "def is_cp(c, psd_tol):\n"
        "    rep = psd_report(c, psd_tol)\n"
        "    return rep.is_psd and rep.min_eigenvalue >= -psd_tol * norm(c) or psd_tol < 1\n"
    )
    assert psd_tol_gates(source) == [
        "is_cp: rep.min_eigenvalue >= -psd_tol * norm(c)",
        "is_cp: psd_tol < 1",
    ]


MAP_TYPES = ("CpMap", "SuperOperator", "AlgebraMap")


def map_type_tests(source: str) -> list[str]:
    """``function: Type`` for each ``isinstance`` call of a module on one of the map types."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
                kinds = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else [child.args[1]]
                found.extend(f"{where}: {k.id}" for k in kinds if getattr(k, "id", None) in MAP_TYPES)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return found


# map_matrix is the one reader of a map's type and algebra_map the one builder of a map
# object on top of it; spectra forks only to choose the Kraus route.  A second reader or
# a fork on the map type elsewhere changes this table.
MAP_TYPE_TESTS = {
    "cpmap.py": [
        "algebra_map: AlgebraMap",
        "algebra_map: CpMap",
        "map_matrix: AlgebraMap",
        "map_matrix: CpMap",
        "map_matrix: SuperOperator",
    ],
    "spectra.py": [
        "_action: CpMap",
        "spectral_radius_bounds: CpMap",
        "_bracket_midpoint: CpMap",
    ],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_reader_of_the_map_type(path):
    assert map_type_tests(path.read_text(encoding="utf-8")) == MAP_TYPE_TESTS.get(path.name, [])


def test_detects_a_map_type_test():
    source = (
        "def norm(op):\n"
        "    if isinstance(op, (CpMap, SuperOperator)):\n"
        "        return isinstance(op.shape, AlgebraShape) or isinstance(op, dict)\n"
        "    return isinstance(op, AlgebraMap)\n"
    )
    assert map_type_tests(source) == ["norm: CpMap", "norm: SuperOperator", "norm: AlgebraMap"]


def choi_of_callers(source: str) -> list[str]:
    """``function: call`` for each call of ``choi_of`` in a module, by name or as an attribute."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = getattr(child.func, "id", getattr(child.func, "attr", None)) if isinstance(child, ast.Call) else None
            if name == "choi_of":
                found.append(f"{where}: {ast.unparse(child)}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return found


# The m^2 x m^2 Choi matrix of a Kraus list is built for the superoperator and for the two
# CLI commands that print or rebuild one; every verdict on a CpMap decides from its Kraus
# stack (dominates from the span of two).  A new caller changes this table.
CHOI_OF_CALLERS = {
    "cli.py": [
        "_choi: choi_of(args.map)",
        "_kraus: choi_of(CpMap(tuple(ops), AlgebraShape.full(ops[0].shape[0])))",
    ],
    "cpmap.py": [
        "superop_of: choi_of(tau)",
    ],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_choi_of_callers_are_listed(path):
    assert choi_of_callers(path.read_text(encoding="utf-8")) == CHOI_OF_CALLERS.get(path.name, [])


def test_detects_a_choi_of_caller():
    source = (
        "from .cpmap import choi_of, choi_of_superop\n"
        "def dominates(tau, eta):\n"
        "    return psd_report(choi_of(tau) - cpmap.choi_of(eta))\n"
        "def is_cp(s):\n"
        "    return choi_of_superop(s), choi_of\n"
    )
    assert choi_of_callers(source) == ["dominates: choi_of(tau)", "dominates: cpmap.choi_of(eta)"]


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


@pytest.mark.skipif(
    importlib.import_module("cpspectra.mats")._LAPACK is None,
    reason="numpy's build exports no scipy_<name>_64_ LAPACK symbols, so the Schur kernel uses scipy",
)
@pytest.mark.parametrize(
    "argv",
    [
        ["perron", "--map", "demos/data/golden_ratio_map.json"],
        ["balance", "--matrix", "demos/data/interior_jordan.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_schur_commands_leave_scipy_out(argv):
    # the Schur kernel runs on the LAPACK that numpy bundles, so a command that reaches it
    # imports no scipy module either
    probe = (
        "import contextlib, io, sys\n"
        "from cpspectra.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=SRC.parent.parent,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "0 []"


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
    "balance_similarity": ["a"],
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
