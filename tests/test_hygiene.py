"""Static checks on the package source.

No module keeps an import it never uses or a private module-level name
that nothing in the package loads, and no module states an invariant as an
`assert`, which `python -O` strips: invariants are explicit checks.  The
rule of which blocks a search tests as lanes is stated in `sampler._scan`
alone.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

import polyrealize

MODULES = sorted(
    p for p in Path(polyrealize.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module):
    """Names bound by the module-level imports (the __future__ import binds none)."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unused = [name for name in _imported_names(tree) if name not in loaded]
    assert unused == [], f"{path.name} never uses its imports {unused}"


@lru_cache(maxsize=1)
def _loaded_anywhere() -> set[str]:
    """Every name the package loads: bare names, attributes and imported names."""
    names = set()
    for path in Path(polyrealize.__file__).parent.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                names.update(alias.name for alias in n.names)
    return names


def _private_definitions(tree: ast.Module):
    """Module-level functions, classes and assigned names that start with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_names_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = _loaded_anywhere()
    unused = [name for name in _private_definitions(tree) if name not in loaded]
    assert unused == [], f"{path.name} defines private names nothing loads: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


LANE_THRESHOLDS = {"_LANE_MIN", "_SHARED_LANE_MIN"}


def _reads(tree: ast.AST, names: set[str]):
    """(line, name) of every load of one of `names`, as a bare name or an attribute."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names:
            yield n.lineno, n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr in names:
            yield n.lineno, n.attr


def test_lane_thresholds_are_read_only_in_scan():
    scan_names = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        if path.stem == "sampler":
            (scan,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_scan"]
            inside = set(_reads(scan, LANE_THRESHOLDS))
            scan_names |= {name for _, name in inside}
        outside = sorted(set(_reads(tree, LANE_THRESHOLDS)) - inside)
        assert outside == [], f"{path.name} reads a lane threshold outside sampler._scan: {outside}"
    assert scan_names == LANE_THRESHOLDS
