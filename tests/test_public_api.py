"""Every public name of a hypzeta module has a caller in the program.

The program is the package itself and the benchmark harness; tests do not
count. A name only `__init__.py` re-exports, or only its own definition
mentions, is dead API. The sources are parsed, never imported, but for
the last tests: the package namespace is the union of its library
modules' `__all__` lists, and importing it loads neither front end.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypzeta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROGRAM = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _definitions(tree: ast.Module, name: str) -> set[int]:
    """ids of every node inside a top-level definition of `name`."""
    inside = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            inside.update(id(child) for child in ast.walk(node))
    return inside


def _mentions(tree: ast.Module, name: str, skip: set[int]) -> int:
    return sum(
        1 for node in ast.walk(tree)
        if id(node) not in skip and isinstance(getattr(node, "ctx", None), ast.Load)
        and ((isinstance(node, ast.Name) and node.id == name)
             or (isinstance(node, ast.Attribute) and node.attr == name))
    )


@pytest.fixture(scope="module")
def trees():
    return {path: _tree(path) for path in PROGRAM}


def test_scan_sees_the_package_and_the_harness(trees):
    assert any(p.name == "special_functions.py" for p in trees)
    assert any(p.parent.name == "perfbench" for p in trees)
    assert sum(len(_public_names(trees[p])) for p in MODULES) > 30


def test_every_public_name_is_used_beyond_its_definition(trees):
    unused = []
    for module in MODULES:
        for name in _public_names(trees[module]):
            count = sum(
                _mentions(tree, name, _definitions(tree, name) if path == module else set())
                for path, tree in trees.items()
            )
            if count == 0:
                unused.append(f"{module.stem}.{name}")
    assert unused == []


# the namespace before it was built from the modules' lists; none may go
PINNED_EXPORTS = {
    "CapacityError", "DomainError", "DomainWarning", "EmptySpectrumError", "FitError",
    "HypzetaError", "MismatchError", "PoleError", "SingularFactorError",
    "TruncatedValue", "ruelle_R", "selberg_Z",
    "LengthSpectrum", "TraceShell", "enumerate_spectrum", "read_cache", "write_cache",
    "ScatteringModel", "builtin_model", "modular_model", "modular_phi",
    "phi_leading_at_zero", "trivial_model",
    "log_barnes_gamma2", "log_gamma", "riemann_zeta",
    "Signature", "SurfaceConstants", "area", "constants", "geometric_constants",
    "order_R", "order_Z", "parse_signature",
    "FactorValue", "c0", "c1", "det_laplacian", "kappa", "ruelle_fe_rhs",
    "ruelle_leading_at_zero", "z_ell", "z_infty",
    "__version__",
}
LIBRARY = ("errors", "euler_product", "length_spectrum", "scattering", "special_functions",
           "surface", "zeta_factors")


def test_namespace_is_the_modules_lists():
    import importlib

    import hypzeta

    declared = [name for module in LIBRARY
                for name in importlib.import_module(f"hypzeta.{module}").__all__]
    assert sorted(hypzeta.__all__) == sorted(declared + ["__version__"])
    assert len(set(hypzeta.__all__)) == len(hypzeta.__all__)
    assert [name for name in hypzeta.__all__ if not hasattr(hypzeta, name)] == []
    assert len(PINNED_EXPORTS) == 44 and PINNED_EXPORTS <= set(hypzeta.__all__)


def test_library_modules_are_the_package_less_the_front_ends():
    assert sorted(p.stem for p in MODULES) == sorted(LIBRARY + ("cli", "verify"))


def test_import_loads_no_front_end():
    script = "import sys, hypzeta; print(sorted(m for m in sys.modules if m.startswith('hypzeta')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert ast.literal_eval(out) == sorted(["hypzeta"] + [f"hypzeta.{m}" for m in LIBRARY])
