"""studies.ExperimentPlan is the one builder of phi, scheme, noise,
geometry and evolution in src/kpzlab, and studies.decomposition_row the
one decomposition sampler.

Every other module takes the objects a plan built, so a batched engine or
a new geometry rule has one place to change. Each builder's own module
defines it without calling it. Likewise only studies.py calls
evolve_and_decompose and macro_terms, so the decompose command and the
remainder study sample their rows one way, and only lattice.capture calls
step, so every evolution is read one way.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kpzlab"
BUILDERS = {"make_driving", "make_scheme", "replica_noise", "LatticeGeometry",
            "EvolutionConfig"}
SAMPLERS = {"evolve_and_decompose", "macro_terms"}
MODULES = [p for p in sorted(SRC.glob("*.py"))
           if p.name not in ("__init__.py", "studies.py")]
ALL_MODULES = sorted(SRC.glob("*.py"))


def _builder_calls(source: str, names=BUILDERS) -> list:
    """'line N: name' for each call of one of the names in the source."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in names:
                calls.append(f"line {node.lineno}: {name}")
    return calls


def test_scanner_finds_builder_calls():
    src = ("x = make_driving('polymer', 1)\n"
           "y = lattice.LatticeGeometry(1, 5)\n"
           "z = EvolutionConfig\nw = replace(config, noise=n)\n")
    assert _builder_calls(src) == ["line 1: make_driving",
                                   "line 2: LatticeGeometry"]
    src = ("s = evolve_and_decompose(run, x0)\n"
           "m = rescale.macro_terms(s, scheme, 1.0, hess, 1)\n"
           "f = macro_terms\n")
    assert _builder_calls(src, SAMPLERS) == ["line 1: evolve_and_decompose",
                                             "line 2: macro_terms"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_plan_builds(path):
    assert _builder_calls(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_studies_samples_decompositions(path):
    assert _builder_calls(path.read_text(), SAMPLERS) == []


def _callers(source: str, name: str) -> list:
    """Names of the functions whose bodies call name; '<module>' for a
    call outside any function."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)
    return [owner.get(node, "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def _names(source: str) -> set:
    """Every identifier, attribute, imported name and string constant."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_scanner_finds_step_callers_and_names():
    src = ("def capture(c):\n    return step(c)\n"
           "def other():\n    lattice.step(1)\n    step = 3\n"
           "step(0)\n__all__ = ['trajectory']\n")
    assert sorted(_callers(src, "step")) == ["<module>", "capture", "other"]
    assert "trajectory" in _names(src)
    assert "trajectory" in _names("from .lattice import trajectory\n")


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_capture_steps(path):
    expect = ["capture"] if path.name == "lattice.py" else []
    assert _callers(path.read_text(), "step") == expect


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_names_trajectory(path):
    assert "trajectory" not in _names(path.read_text())
