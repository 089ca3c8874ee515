"""No module imports a name it never reads.

The repo runs no linter, so this parses every module of src/kpzlab (but
the package __init__, whose imports are its exports), tests/ and scripts/.
An `import x as x` alias is PEP 484's explicit re-export, and is exempt.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = [p for d in ("src/kpzlab", "tests", "scripts")
           for p in sorted((ROOT / d).glob("*.py")) if p.name != "__init__.py"]


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
