"""No module imports a name it never reads, and src/kpzlab defines nothing
that only tests read.

The repo runs no linter, so this parses every module of src/kpzlab (but
the package __init__, whose imports are its exports), tests/ and scripts/.
An `import x as x` alias is PEP 484's explicit re-export, and is exempt.
A module-level function or class of src/kpzlab must be read, by name, in
src/kpzlab, scripts/ or perfbench/; an import or an __all__ entry is not a
read. Code that only tests read belongs in tests/oracles.py.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = [p for d in ("src/kpzlab", "tests", "scripts")
           for p in sorted((ROOT / d).glob("*.py")) if p.name != "__init__.py"]
PACKAGE = sorted((ROOT / "src/kpzlab").glob("*.py"))
READERS = [p for d in ("src/kpzlab", "scripts", "perfbench")
           for p in sorted((ROOT / d).glob("*.py"))]


def _unused_imports(source: str) -> list:
    """'line N: name' for each imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for a in node.names:
                if a.asname != a.name:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_scanner_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os.path\n"
           "import sys\nfrom a import b as c, d\nsys.exit(d)\n")
    assert _unused_imports(src) == ["line 2: os", "line 4: c"]


def test_scanner_exempts_only_explicit_reexports():
    src = "from a import b as b\nfrom a import e\nimport f as f\n"
    assert _unused_imports(src) == ["line 2: e"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _top_level_defs(source: str) -> list:
    """Names of the module-level functions and classes of the source."""
    return [n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))]


def _reads(source: str) -> set:
    """Every name the source reads: loaded names and loaded attributes."""
    names = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def test_def_scanner_counts_only_reads():
    src = ("import m\nfrom a import b\n__all__ = ['c']\ndef c(): pass\n"
           "class D(m.E): pass\nm.f = D\nb.g()\n")
    assert _top_level_defs(src) == ["c", "D"]
    assert _reads(src) == {"m", "E", "D", "b", "g"}


def test_package_defines_nothing_only_tests_read():
    read = set().union(*(_reads(p.read_text()) for p in READERS))
    unread = [f"{p.relative_to(ROOT)}: {name}" for p in PACKAGE
              for name in _top_level_defs(p.read_text()) if name not in read]
    assert unread == []
