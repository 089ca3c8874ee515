"""config.ConfigError is the one refusal type in src/kpzlab.

A refusal is decided before any replica runs and exits 2; anything else
raised inside a run is a fault and exits 3. So src/kpzlab defines no
exception class but ConfigError (the lattice's ConeWrapWarning is a
warning, not a refusal), and cli.main's exit-2 handler catches
ConfigError alone.
"""
import ast
import builtins
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kpzlab"
WARNINGS = {"ConeWrapWarning"}


def _base_names(node: ast.ClassDef) -> set:
    return {b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
            for b in node.bases}


def _exception_classes(sources) -> set:
    """Names of the classes in the sources that derive from an exception,
    builtin or defined in the sources."""
    known = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [node for source in sources
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    found = set()
    while True:
        new = {c.name for c in classes
               if c.name not in found and _base_names(c) & (known | found)}
        if not new:
            return found
        found |= new


def _exit_handler_types(source: str, code: int) -> list:
    """The exception types named by each handler in main that returns
    `code`, one list per handler."""
    main = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    out = []
    for node in ast.walk(main):
        if not isinstance(node, ast.ExceptHandler):
            continue
        returns = [r for r in ast.walk(node) if isinstance(r, ast.Return)
                   and isinstance(r.value, ast.Constant)
                   and r.value.value == code]
        if returns:
            t = node.type
            elts = t.elts if isinstance(t, ast.Tuple) else [t]
            out.append([e.id if isinstance(e, ast.Name) else ast.unparse(e)
                        for e in elts])
    return out


def test_scanner_finds_exception_classes():
    src = ("class A(ValueError): pass\n"
           "class B(A): pass\n"
           "class C: pass\n"
           "class D(mod.RuntimeWarning): pass\n"
           "class E(C): pass\n")
    assert _exception_classes([src]) == {"A", "B", "D"}


def test_scanner_finds_exit_handlers():
    src = ("def main():\n"
           "    try:\n        run()\n"
           "    except (ValueError, KeyError):\n        return 2\n"
           "    except ArithmeticError:\n        return 3\n")
    assert _exit_handler_types(src, 2) == [["ValueError", "KeyError"]]
    assert _exit_handler_types(src, 3) == [["ArithmeticError"]]


def test_config_error_is_the_only_exception_class():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _exception_classes(sources) - WARNINGS == {"ConfigError"}


def test_only_config_error_exits_2():
    source = (SRC / "cli.py").read_text()
    assert _exit_handler_types(source, 2) == [["ConfigError"]]
