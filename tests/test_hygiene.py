"""Static checks on the package source.

No module keeps an import it never uses or a private module-level name
that nothing in the package loads (in its files or in the source of the
match and sign kernels it generates), and no module states an invariant as
an `assert`, which `python -O` strips: invariants are explicit checks.
Only `sampler._scan` builds a `SearchOutcome`.  `code_lines.py`, the
package's code-line count, skips docstrings, comments and blank lines.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest
from code_lines import code_lines

import polyrealize
from polyrealize import criticalgaps, sampler

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


def _generated_sources():
    """The source of the generated match kernels at a few degrees, for each target, and
    of the sign kernels: a pair kernel with its word test and a draw kernel for each
    strategy, the moduli kernel, which reads root columns, and the gap kernel for each
    strategy a gap search draws under (MultiplicityBias draws as Uniform)."""
    for d in (3, 16, 17):
        for target in criticalgaps.GAP_CLASSES:
            yield criticalgaps._kernel_source(d, target)
    for kind in (sampler.Uniform, sampler.Mixture, sampler.MultiplicityBias):
        for tail in ("word", None):
            yield sampler._sign_kernel_source(2, 1, 1, kind, tail)[1]
    yield sampler._sign_kernel_source(7, 0, 0, None, "word")[1]
    for kind in (sampler.Uniform, sampler.Mixture):
        yield sampler._sign_kernel_source(0, 0, 5, kind, "gap")[1]


@lru_cache(maxsize=1)
def _loaded_anywhere() -> set[str]:
    """Every name the package loads, in its files or in the code it generates.

    Bare names, attributes and imported names all count.
    """
    sources = [path.read_text() for path in Path(polyrealize.__file__).parent.glob("*.py")]
    names = set()
    for source in sources + list(_generated_sources()):
        for n in ast.walk(ast.parse(source)):
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


def _scan_def(tree: ast.Module) -> ast.FunctionDef:
    (scan,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_scan"]
    return scan


def _calls(tree: ast.AST, name: str):
    """Line of every call of `name`, as a bare name or an attribute."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            f = n.func
            if (isinstance(f, ast.Name) and f.id == name
                    or isinstance(f, ast.Attribute) and f.attr == name):
                yield n.lineno


def test_search_outcomes_are_built_only_in_scan():
    in_scan = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        if path.stem == "sampler":
            inside = set(_calls(_scan_def(tree), "SearchOutcome"))
            in_scan |= inside
        outside = sorted(set(_calls(tree, "SearchOutcome")) - inside)
        assert outside == [], f"{path.name} builds a SearchOutcome outside sampler._scan: {outside}"
    assert in_scan


CODE_LINES_SAMPLE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        s = """a string,
not a docstring"""
        return s
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of the string, return
    assert code_lines(CODE_LINES_SAMPLE) == 6
